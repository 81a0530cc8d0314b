"""Fuzzing the loaders with arbitrary text and with mutated valid files: each
input either loads or raises a GridSigmaError, never another exception."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import legacy_formats
from gridsigma import detectors
from gridsigma.errors import DatasetError, DetectorError, GridSigmaError
from gridsigma.grid import builtin_ieee14, default_layout
from gridsigma.scenario import (
    FeatureStats,
    SplitSizes,
    build_dataset,
    ingest_load_csv,
    meta_to_json,
    stats_to_json,
    synth_load_profile,
)

# Tokens that change a JSON value's type or push a number out of range.
_TOKENS = st.sampled_from([
    "", ",", ":", "[", "]", "{", "}", '"', "\\", "\n", "\r", "\x00", "-", "0",
    "-0", "1e400", "-1e400", "NaN", "Infinity", "null", "true", "[]", "{}",
    '"x"', "-1", "99999999999999999999", "1.5", "ÿ", "#",
])
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "replace", "number"]),
        st.floats(0.0, 1.0),
        st.one_of(_TOKENS, st.text(max_size=8)),
        st.integers(1, 12),
    ),
    min_size=1,
    max_size=4,
)
_NUMBER = re.compile(r"-?[0-9][0-9.eE+-]*")


def _mutate(text: str, edits) -> str:
    """Apply each edit at its fraction of the text's length: insert the
    token, delete span characters, replace them with the token, or replace
    the next number with it."""
    for op, where, token, span in edits:
        at = int(where * len(text))
        if op == "number" and (number := _NUMBER.search(text, at)):
            at, span = number.start(), len(number.group())
        if op == "insert":
            text = text[:at] + token + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + span:]
        else:
            text = text[:at] + token + text[at + span:]
    return text


def _loads_or_refuses(load, *args):
    try:
        load(*args)
    except GridSigmaError:
        pass


@pytest.fixture(scope="module")
def tiny_files():
    """dataset.jsonl, stats.json and meta.json of a 6-sample dataset."""
    case = builtin_ieee14()
    ds = build_dataset(case, synth_load_profile(3, len(case.buses), seed=1),
                       default_layout(case),
                       sizes=SplitSizes(train=2, validation=2, test=2), seed=1)
    return legacy_formats.written(ds)[0], stats_to_json(ds.stats), meta_to_json(ds)


def _tiny_model_json() -> str:
    rng = np.random.default_rng(0)
    dims = (3, 2, 3)
    model = detectors.DetectorModel(
        layer_dims=dims,
        weights=tuple(rng.normal(size=(a, b)) for a, b in zip(dims, dims[1:])),
        biases=tuple(np.zeros(b) for b in dims[1:]),
        input_stats=FeatureStats(mean=np.zeros(3), std=np.ones(3), n=4, split="train"),
        threshold=0.25,
        train_seed=1,
    )
    return detectors.model_to_json(model)


_MODEL_JSON = _tiny_model_json()
_LOAD_CSV = legacy_formats.export_load_csv(synth_load_profile(4, 3, seed=2), [1, 2, 3])


_TOO_BIG = [("number", 0.0, "1e400", 1)]  # a float infinity in the first number
_TOO_DEEP = [("insert", 0.0, "[" * 100_000, 1)]


class TestDatasetFromFiles:
    @settings(max_examples=150, deadline=None)
    @given(which=st.integers(0, 2), edits=_EDITS)
    @example(which=0, edits=_TOO_BIG)  # the first sample's id
    @example(which=2, edits=_TOO_BIG)  # master_seed
    @example(which=0, edits=_TOO_DEEP)
    def test_mutated_files(self, tiny_files, which, edits):
        files = list(tiny_files)
        files[which] = _mutate(files[which], edits)
        _loads_or_refuses(legacy_formats.from_texts, *files)

    @settings(max_examples=150, deadline=None)
    @given(which=st.integers(0, 2), text=st.text())
    def test_arbitrary_text(self, tiny_files, which, text):
        files = list(tiny_files)
        files[which] = text
        _loads_or_refuses(legacy_formats.from_texts, *files)

    def test_valid_files_load(self, tiny_files):
        assert len(legacy_formats.from_texts(*tiny_files).features) == 6

    @pytest.mark.parametrize("which, old, new, message", [
        (0, '"hour":0', '"hour":1e400', "dataset line 1: cannot convert float"),
        (1, '"n": 2', '"n": 1e400', "stats.json: OverflowError"),
        (2, '"index": 0', '"index": -1e400', "meta.json: OverflowError"),
        (0, '{"id":0', "[" * 100_000, "dataset line 1: maximum recursion depth"),
    ], ids=["hour", "stats-n", "layout-index", "nesting"])
    def test_unreadable_value_is_dataset_error(self, tiny_files, which, old, new,
                                               message):
        files = list(tiny_files)
        assert old in files[which]
        files[which] = files[which].replace(old, new, 1)
        with pytest.raises(DatasetError, match=message):
            legacy_formats.from_texts(*files)


class TestModelFromJson:
    @settings(max_examples=300, deadline=None)
    @given(edits=_EDITS)
    @example(edits=_TOO_BIG)  # layer_dims[0]
    @example(edits=_TOO_DEEP)
    def test_mutated_file(self, edits):
        _loads_or_refuses(detectors.model_from_json, _mutate(_MODEL_JSON, edits))

    @settings(max_examples=150, deadline=None)
    @given(text=st.text())
    def test_arbitrary_text(self, text):
        _loads_or_refuses(detectors.model_from_json, text)

    def test_valid_file_loads(self):
        assert detectors.model_from_json(_MODEL_JSON).layer_dims == (3, 2, 3)

    def test_seed_out_of_range_is_detector_error(self):
        text = _MODEL_JSON.replace('"train_seed": 1', '"train_seed": 1e400')
        with pytest.raises(DetectorError, match="model.json: OverflowError"):
            detectors.model_from_json(text)


class TestIngestLoadCsv:
    @settings(max_examples=300, deadline=None)
    @given(edits=_EDITS)
    @example(edits=[("insert", 0.0, "1,2\r3,4\n", 1)])
    def test_mutated_file(self, edits):
        _loads_or_refuses(ingest_load_csv, _mutate(_LOAD_CSV, edits), 3)

    @settings(max_examples=150, deadline=None)
    @given(text=st.text(), bus_count=st.integers(1, 3))
    @example(text="1,2\r3,4\n", bus_count=2)
    def test_arbitrary_text(self, text, bus_count):
        _loads_or_refuses(ingest_load_csv, text, bus_count)

    def test_lone_carriage_return_is_dataset_error(self):
        with pytest.raises(DatasetError, match="CSV: new-line character"):
            ingest_load_csv("1,2\r3,4\n", 2)
