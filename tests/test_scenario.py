import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_formats
from gridsigma import scenario
from gridsigma.errors import DatasetError
from gridsigma.grid import (
    FeatureLayout,
    LayoutEntry,
    default_layout,
    extract_features,
    parse_case,
    solve_newton,
)
from gridsigma.scenario import (
    ANOMALY,
    NORMAL,
    Dataset,
    Sample,
    SplitSizes,
    build_dataset,
    compute_stats,
    dataset_blocks,
    dataset_from_files,
    dataset_to_jsonl,
    export_load_csv,
    features_to_csv,
    ingest_load_csv,
    inject_anomaly,
    meta_to_json,
    stats_from_json,
    stats_to_json,
    synth_load_profile,
    zscores,
)


def make_sample(values, sample_id=0, label=NORMAL):
    return Sample(
        id=sample_id,
        features=np.asarray(values, dtype=float),
        label=label,
        injected=(),
        deltas=(),
        hour=0,
    )


class TestSynthProfile:
    def test_deterministic(self):
        a = synth_load_profile(24, 14, seed=42)
        b = synth_load_profile(24, 14, seed=42)
        assert np.array_equal(a.scale, b.scale)

    def test_different_seeds_differ(self):
        a = synth_load_profile(24, 14, seed=1)
        b = synth_load_profile(24, 14, seed=2)
        assert not np.array_equal(a.scale, b.scale)

    def test_clamp_bounds(self):
        p = synth_load_profile(24, 14, seed=0)
        assert p.scale.min() >= 0.6
        assert p.scale.max() <= 1.4

    def test_year_mean_near_one(self):
        p = synth_load_profile(8760, 14, seed=42)
        assert abs(p.scale.mean() - 1.0) <= 0.01

    def test_rejects_zero_hours(self):
        with pytest.raises(DatasetError):
            synth_load_profile(0, 14, seed=0)


class TestLoadCsv:
    def test_two_row_csv(self):
        text = "1,2,3\n1.0,1.1,0.9\n0.8,1.2,1.0\n"
        profile = ingest_load_csv(text, 3)
        assert profile.hours == 2
        assert profile.scale[1, 2] == 1.0

    def test_missing_column_names_row(self):
        text = "1,2,3\n1.0,1.1,0.9\n0.8,1.2\n"
        with pytest.raises(DatasetError, match="row 3"):
            ingest_load_csv(text, 3)

    def test_non_numeric_cell_names_row(self):
        text = "1,2,3\nx,1.1,0.9\n"
        with pytest.raises(DatasetError, match="row 2"):
            ingest_load_csv(text, 3)

    def test_round_trip(self):
        profile = synth_load_profile(24, 4, seed=3)
        text = export_load_csv(profile, [1, 2, 3, 4])
        again = ingest_load_csv(text, 4)
        assert again.hours == profile.hours
        assert np.array_equal(again.scale, profile.scale)

    def test_out_of_range_multiplier_rejected(self):
        with pytest.raises(DatasetError, match=r"\(0, 4\)"):
            ingest_load_csv("1,2\n1.0,-0.5\n", 2)
        with pytest.raises(DatasetError, match=r"\(0, 4\)"):
            ingest_load_csv("1,2\n1.0,4.5\n", 2)


class TestInjectAnomaly:
    def test_fifteen_percent_on_unit_value(self):
        features = np.ones(68)
        out, injected, deltas = inject_anomaly(features, seed=5, k_inject=3)
        for idx, delta in zip(injected, deltas):
            assert abs(delta) == pytest.approx(0.15)
            assert out[idx] in (pytest.approx(1.15), pytest.approx(0.85))

    def test_floor_engages_on_zero_value(self):
        features = np.zeros(68)
        out, injected, deltas = inject_anomaly(features, seed=5, k_inject=3)
        for delta in deltas:
            assert abs(delta) == pytest.approx(0.05)

    def test_exactly_k_positions_change(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=68)
        out, injected, deltas = inject_anomaly(features, seed=9, k_inject=3)
        changed = np.nonzero(out != features)[0]
        assert len(injected) == 3
        assert set(changed) == set(injected)

    def test_deterministic_in_seed(self):
        features = np.linspace(-1, 1, 68)
        a = inject_anomaly(features, seed=11)
        b = inject_anomaly(features, seed=11)
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1] and a[2] == b[2]

    def test_k_too_large(self):
        with pytest.raises(DatasetError):
            inject_anomaly(np.ones(4), seed=0, k_inject=5)


class TestStats:
    def test_single_sample_zero_std(self):
        stats = compute_stats([make_sample([1.0, -2.0, 3.5])])
        assert np.array_equal(stats.std, np.zeros(3))

    def test_two_samples_hand_computed(self):
        stats = compute_stats([make_sample([0.0]), make_sample([2.0])])
        assert stats.mean[0] == 1.0
        assert stats.std[0] == 1.0  # population std

    def test_constant_feature(self):
        samples = [make_sample([7.0, i]) for i in range(5)]
        stats = compute_stats(samples)
        assert stats.std[0] == 0.0

    def test_empty_input(self):
        with pytest.raises(DatasetError):
            compute_stats([])

    def test_recompute_bit_identical(self):
        rng = np.random.default_rng(1)
        samples = [make_sample(rng.normal(size=68)) for _ in range(50)]
        a = compute_stats(samples)
        b = compute_stats(samples)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.std, b.std)


class TestZScores:
    def test_value_at_mean(self):
        stats = compute_stats([make_sample([0.0]), make_sample([2.0])])
        assert zscores(np.array([1.0]), stats)[0] == 0.0

    def test_three_sigma_point(self):
        stats = compute_stats([make_sample([0.0]), make_sample([2.0])])
        assert zscores(np.array([4.0]), stats)[0] == pytest.approx(3.0)

    def test_zero_std_floor(self):
        stats = compute_stats([make_sample([5.0]), make_sample([5.0])])
        z = zscores(np.array([5.0 + 1e-6]), stats)
        assert z[0] == pytest.approx(1e6)

    def test_length_mismatch(self):
        stats = compute_stats([make_sample([1.0, 2.0])])
        with pytest.raises(DatasetError):
            zscores(np.zeros(3), stats)

    @given(
        a=st.floats(min_value=0.01, max_value=1000),
        b_over_a=st.floats(min_value=-10, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, a, b_over_a):
        # Offset scales with a: unit-conversion-style rescalings, where the
        # subtraction x - mean stays well-conditioned.
        b = a * b_over_a
        rng = np.random.default_rng(123)
        raw = rng.normal(size=(30, 4))
        samples = [make_sample(row) for row in raw]
        stats = compute_stats(samples)
        z_before = np.stack([zscores(s.features, stats) for s in samples])

        scaled = raw.copy()
        scaled[:, 2] = a * raw[:, 2] + b
        samples2 = [make_sample(row) for row in scaled]
        stats2 = compute_stats(samples2)
        z_after = np.stack([zscores(s.features, stats2) for s in samples2])
        assert np.max(np.abs(z_after[:, 2] - z_before[:, 2])) <= 1e-12


class TestBuildDataset:
    def test_default_shape_and_balance(self, dataset42):
        assert len(dataset42.samples) == 1600
        assert len(dataset42.splits["train"]) == 1200
        assert len(dataset42.splits["validation"]) == 200
        assert len(dataset42.splits["test"]) == 200
        for name in ("train", "validation", "test"):
            labels = [s.label for s in dataset42.split_samples(name)]
            assert labels.count(NORMAL) == labels.count(ANOMALY)

    def test_splits_disjoint_and_cover(self, dataset42):
        all_ids = set()
        for ids in dataset42.splits.values():
            assert not (all_ids & set(ids))
            all_ids |= set(ids)
        assert all_ids == {s.id for s in dataset42.samples}

    def test_deterministic(self, ieee14, layout68, dataset42):
        profile = synth_load_profile(800, 14, seed=42)
        again = build_dataset(ieee14, profile, layout68, seed=42)
        assert dataset_to_jsonl(again) == dataset_to_jsonl(dataset42)
        assert np.array_equal(again.stats.mean, dataset42.stats.mean)
        assert np.array_equal(again.stats.std, dataset42.stats.std)

    def test_anomalous_have_three_injections(self, dataset42):
        for s in dataset42.samples:
            if s.label == ANOMALY:
                assert len(s.injected) == 3
            else:
                assert s.injected == ()

    def test_injection_audit_reconstructs_exactly(self, dataset42):
        """base + deltas reproduces features bitwise via the hour twin."""
        by_hour = {
            s.hour: s for s in dataset42.samples if s.label == NORMAL
        }
        for s in dataset42.samples:
            if s.label != ANOMALY:
                continue
            twin = by_hour[s.hour]
            expected = twin.features.copy()
            for idx, delta in zip(s.injected, s.deltas):
                expected[idx] = expected[idx] + delta
            assert np.array_equal(s.features, expected)

    def test_stats_from_train_split_only(self, dataset42):
        train = dataset42.split_samples("train")
        recomputed = compute_stats(train)
        assert np.array_equal(recomputed.mean, dataset42.stats.mean)
        assert np.array_equal(recomputed.std, dataset42.stats.std)
        assert dataset42.stats.n == 1200
        assert dataset42.stats.split == "train"

    def test_profile_too_short(self, ieee14, layout68):
        profile = synth_load_profile(10, 14, seed=0)
        with pytest.raises(DatasetError, match="at least"):
            build_dataset(ieee14, profile, layout68, sizes=SplitSizes(48, 8, 8))

    def test_odd_split_rejected(self, ieee14, layout68):
        profile = synth_load_profile(40, 14, seed=0)
        with pytest.raises(DatasetError, match="even"):
            build_dataset(ieee14, profile, layout68, sizes=SplitSizes(15, 8, 8))

    def test_failed_hours_skipped_and_logged(self, ieee14, layout68, caplog):
        # At scale 3.9 the solve needs 6 iterations, so max_iter=4 fails those
        # hours; NaN and inf loads fail on their non-finite mismatch. Every
        # other hour of the batch must come out as solve_newton gives it.
        profile = synth_load_profile(14, 14, seed=3)
        profile.scale[[2, 9]] = 3.9
        profile.scale[5, 3] = np.nan
        profile.scale[11, 6] = np.inf
        with caplog.at_level("WARNING", logger="gridsigma.scenario"):
            ds = build_dataset(
                ieee14, profile, layout68, sizes=SplitSizes(12, 4, 4), max_iter=4
            )
        skipped = [r.getMessage() for r in caplog.records]
        assert skipped == [
            "hour 2 skipped: no convergence in 4 iterations (mismatch 1.703e-03)",
            "hour 5 skipped: non-finite mismatch at iteration 0",
            "hour 9 skipped: no convergence in 4 iterations (mismatch 1.703e-03)",
            "hour 11 skipped: non-finite mismatch at iteration 0",
        ]
        normals = [s for s in ds.samples if s.label == NORMAL]
        assert [s.hour for s in normals] == [0, 1, 3, 4, 6, 7, 8, 10, 12, 13]
        for s in normals:
            sol = solve_newton(ieee14, profile.scale[s.hour], max_iter=4)
            expected = extract_features(sol, layout68)
            assert np.max(np.abs(s.features - expected)) <= 1e-12

    def test_always_singular_case_is_dataset_error(self):
        # With its only branch out of service, bus 2 is islanded and every
        # hour's Jacobian is singular.
        case = parse_case(
            """
            baseMVA 100.0
            bus
            1 3 0.0 0.0 0.0 0.0 1.0 0.0
            2 1 50.0 10.0 0.0 0.0 1.0 0.0
            gen
            1 0.0 1.0 -9999 9999
            branch
            1 2 0.01 0.1 0.0 0 0 0
            """
        )
        profile = synth_load_profile(10, 2, seed=0)
        with pytest.raises(DatasetError, match="only 0 of 10 required hours"):
            build_dataset(case, profile, default_layout(case), sizes=SplitSizes(12, 4, 4))


class TestPersistence:
    def test_jsonl_stats_meta_round_trip(self, dataset42):
        jsonl = dataset_to_jsonl(dataset42)
        stats_text = stats_to_json(dataset42.stats)
        meta = meta_to_json(dataset42)
        again = dataset_from_files(jsonl, stats_text, meta)
        assert len(again.samples) == len(dataset42.samples)
        assert again.splits == dataset42.splits
        assert again.layout == dataset42.layout
        assert again.master_seed == dataset42.master_seed
        for a, b in zip(again.samples, dataset42.samples):
            assert a.id == b.id and a.label == b.label and a.hour == b.hour
            assert a.injected == b.injected and a.deltas == b.deltas
            assert np.array_equal(a.features, b.features)
        assert dataset_to_jsonl(again) == jsonl

    def test_inconsistent_record_rejected(self, dataset42):
        import json

        jsonl = dataset_to_jsonl(dataset42)
        first = json.loads(jsonl.splitlines()[0])
        first["label"] = ANOMALY  # but injected stays empty
        broken = json.dumps(first) + "\n" + "\n".join(jsonl.splitlines()[1:])
        with pytest.raises(DatasetError, match="line 1"):
            dataset_from_files(
                broken, stats_to_json(dataset42.stats), meta_to_json(dataset42)
            )

    def test_stats_json_round_trip(self, dataset42):
        text = stats_to_json(dataset42.stats)
        again = stats_from_json(text)
        assert np.array_equal(again.mean, dataset42.stats.mean)
        assert np.array_equal(again.std, dataset42.stats.std)

    def test_features_csv_shape(self, dataset42):
        text = features_to_csv(dataset42)
        lines = text.strip().splitlines()
        assert len(lines) == 1601
        assert lines[0].startswith("id,hour,label,P_1,")


# Floats whose repr is easy to get wrong: signed zero, the smallest
# subnormal, the switch to exponent notation at 1e16 and 1e-5, integral values.
_EDGE_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 9.999999999999999e-06,
     1e22, 2.0**53, 1.0, -7.0, 0.1, 1.7976931348623157e308]
)
_FINITE = st.one_of(
    _EDGE_FLOATS,
    st.integers(-(10**6), 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def small_datasets(draw):
    n_features = draw(st.integers(1, 5))
    layout = FeatureLayout(
        tuple(LayoutEntry(f"P_{i + 1}", "p_inj", i) for i in range(n_features))
    )
    samples = []
    for i in range(draw(st.integers(1, 6))):
        injected = tuple(sorted(draw(
            st.sets(st.integers(0, n_features - 1), max_size=n_features)
        )))
        samples.append(Sample(
            id=i,
            features=np.asarray(
                draw(st.lists(_FINITE, min_size=n_features, max_size=n_features)),
                dtype=float,
            ),
            label=ANOMALY if injected else NORMAL,
            injected=injected,
            deltas=tuple(draw(
                st.lists(_FINITE, min_size=len(injected), max_size=len(injected))
            )),
            hour=draw(st.integers(0, 10**6)),
        ))
    # The loader checks stats.json against the train split. One train sample
    # keeps its stats exact (mean = the sample, std = 0) for any finite floats.
    return Dataset(
        samples=tuple(samples),
        splits={"train": (0,), "validation": tuple(range(1, len(samples))),
                "test": ()},
        layout=layout,
        stats=compute_stats(samples[:1]),
        master_seed=0,
    )


class TestTemplatedWriters:
    @settings(max_examples=200, deadline=None)
    @given(small_datasets())
    def test_bytes_match_json_and_csv_modules(self, ds):
        jsonl = dataset_to_jsonl(ds)
        assert jsonl == legacy_formats.dataset_to_jsonl(ds)
        assert features_to_csv(ds) == legacy_formats.features_to_csv(ds)
        again = dataset_from_files(jsonl, stats_to_json(ds.stats), meta_to_json(ds))
        assert dataset_to_jsonl(again) == jsonl

    def test_default_dataset_bytes_match(self, dataset42):
        assert dataset_to_jsonl(dataset42) == legacy_formats.dataset_to_jsonl(dataset42)
        assert features_to_csv(dataset42) == legacy_formats.features_to_csv(dataset42)

    @pytest.mark.parametrize("where", ["features", "deltas"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_jsonl_refuses_non_finite(self, dataset42, where, value):
        sample = dataset42.by_id(1500)  # anomalous, so it has deltas
        if where == "features":
            features = sample.features.copy()
            features[3] = value
            sample = replace(sample, features=features)
        else:
            sample = replace(sample, deltas=(value,) + sample.deltas[1:])
        ds = replace(dataset42, samples=(sample,))
        with pytest.raises(DatasetError, match="non-finite"):
            dataset_to_jsonl(ds)


@pytest.fixture(scope="module")
def dataset82(ieee14):
    """640 samples on the 82-sensor layout: more than two blocks."""
    profile = synth_load_profile(320, len(ieee14.buses), seed=5)
    return build_dataset(ieee14, profile, default_layout(ieee14, include_voltage=True),
                         sizes=SplitSizes(train=480, validation=80, test=80), seed=5)


_B = scenario._BLOCK_ROWS


class TestDatasetBlocks:
    @pytest.mark.parametrize("layout", ["68", "82"])
    @pytest.mark.parametrize("rows", [1, _B - 1, _B, _B + 1, 2 * _B + 1])
    def test_blocks_equal_legacy_writers(self, dataset42, dataset82, layout, rows):
        full = {"68": dataset42, "82": dataset82}[layout]
        assert len(full.layout) == int(layout)
        ds = replace(full, samples=full.samples[:rows])
        blocks = list(dataset_blocks(ds))
        assert len(blocks) == -(-rows // _B)
        for k, (jsonl, csv_text) in enumerate(blocks):
            in_block = min(_B, rows - k * _B)
            assert jsonl.count("\n") == in_block
            assert csv_text.count("\n") == in_block + (k == 0)  # header
        assert "".join(j for j, _ in blocks) == legacy_formats.dataset_to_jsonl(ds)
        assert "".join(c for _, c in blocks) == legacy_formats.features_to_csv(ds)
        assert dataset_to_jsonl(ds) == legacy_formats.dataset_to_jsonl(ds)
        assert features_to_csv(ds) == legacy_formats.features_to_csv(ds)

    def test_empty_dataset_is_the_csv_header(self, dataset42):
        ds = replace(dataset42, samples=())
        assert list(dataset_blocks(ds)) == [("", legacy_formats.features_to_csv(ds))]

    @pytest.mark.parametrize("edit", [
        lambda s: replace(s, features=np.where(np.arange(len(s.features)) == 9,
                                               np.nan, s.features)),
        lambda s: replace(s, label="Anomaly"),
    ], ids=["nan-feature", "unknown-label"])
    def test_last_sample_refused_before_any_block(self, dataset42, edit):
        ds = replace(dataset42, samples=dataset42.samples[:-1]
                     + (edit(dataset42.samples[-1]),))
        with pytest.raises(DatasetError, match="sample 1599"):
            dataset_blocks(ds)  # raises on the call, not on the first next()
        for writer in (dataset_to_jsonl, features_to_csv):
            with pytest.raises(DatasetError, match="sample 1599"):
                writer(ds)


@pytest.fixture(scope="module")
def files42(dataset42):
    """The seed-42 dataset as its three files' texts."""
    return (
        dataset_to_jsonl(dataset42),
        stats_to_json(dataset42.stats),
        meta_to_json(dataset42),
    )


class TestLoaderChecks:
    def test_by_id_is_positional(self, files42):
        ds = dataset_from_files(*files42)
        assert ds.by_id(1000).id == 1000
        for bad in (-1, len(ds.samples)):
            with pytest.raises(DatasetError, match=f"no sample with id {bad}"):
                ds.by_id(bad)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.rstrip("\n"),
        lambda text: text.replace("\n", "\n\n", 3),
    ], ids=["crlf", "no-final-newline", "blank-lines"])
    def test_line_endings_tolerated(self, files42, edit):
        jsonl, stats_text, meta_text = files42
        ds = dataset_from_files(edit(jsonl), stats_text, meta_text)
        assert dataset_to_jsonl(ds) == jsonl

    def test_swapped_lines_rejected(self, files42):
        jsonl, stats_text, meta_text = files42
        lines = jsonl.splitlines(keepends=True)
        lines[0], lines[1000] = lines[1000], lines[0]
        with pytest.raises(DatasetError, match="line 1: id 1000, expected 0"):
            dataset_from_files("".join(lines), stats_text, meta_text)

    def _with_meta(self, files42, edit):
        jsonl, stats_text, meta_text = files42
        meta = json.loads(meta_text)
        edit(meta)
        return dataset_from_files(jsonl, stats_text, json.dumps(meta))

    @pytest.mark.parametrize("bad_id", [99999, -1, 1600, 2.0, "3"])
    def test_split_id_out_of_range_rejected(self, files42, bad_id):
        def edit(meta):
            meta["splits"]["test"][0] = bad_id

        with pytest.raises(DatasetError, match="test split id .* names no sample"):
            self._with_meta(files42, edit)

    def test_id_in_two_splits_rejected(self, files42):
        def edit(meta):
            meta["splits"]["test"][0] = meta["splits"]["train"][0]

        with pytest.raises(DatasetError, match="listed more than once"):
            self._with_meta(files42, edit)

    @pytest.mark.parametrize("edit", [
        lambda rec: rec.update(label="Normal"),
        lambda rec: rec.update(label=None),
        lambda rec: rec["features"].__setitem__(5, float("nan")),
        lambda rec: rec["features"].__setitem__(5, float("-inf")),
        lambda rec: rec.update(features=rec["features"][:-1]),
        lambda rec: rec.update(features=[rec["features"]]),
        lambda rec: rec.pop("hour"),
    ], ids=["label-case", "label-null", "feature-nan", "feature-inf",
            "feature-short", "feature-nested", "missing-key"])
    def test_bad_record_rejected(self, files42, edit):
        jsonl, stats_text, meta_text = files42
        lines = jsonl.splitlines()
        rec = json.loads(lines[7])
        edit(rec)
        lines[7] = json.dumps(rec)  # writes NaN / -Infinity tokens
        with pytest.raises(DatasetError, match="dataset line 8"):
            dataset_from_files("\n".join(lines), stats_text, meta_text)

    def test_non_finite_delta_rejected(self, files42):
        jsonl, stats_text, meta_text = files42
        lines = jsonl.splitlines()
        rec = json.loads(lines[1500])
        rec["deltas"][0] = float("inf")
        lines[1500] = json.dumps(rec)
        with pytest.raises(DatasetError, match="line 1501: non-finite"):
            dataset_from_files("\n".join(lines), stats_text, meta_text)

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("master_seed"),
        lambda meta: meta["splits"].pop("test"),
        lambda meta: meta["layout"][0].pop("kind"),
        lambda meta: meta.update(splits=[1, 2]),
    ], ids=["master_seed", "test-split", "layout-kind", "splits-list"])
    def test_meta_missing_key_rejected(self, files42, edit):
        with pytest.raises(DatasetError, match="meta.json"):
            self._with_meta(files42, edit)

    def test_truncated_meta_rejected(self, files42):
        jsonl, stats_text, meta_text = files42
        with pytest.raises(DatasetError, match="meta.json: JSONDecodeError"):
            dataset_from_files(jsonl, stats_text, meta_text[:200])

    @pytest.mark.parametrize("edit", [
        lambda text: text[:200],
        lambda text: text.replace('"std"', '"sd"'),
        lambda text: json.dumps({**json.loads(text),
                                 "mean": json.loads(text)["mean"][:-1]}),
        lambda text: json.dumps({**json.loads(text),
                                 "std": json.loads(text)["std"] + [1.0]}),
        lambda text: json.dumps({**json.loads(text),
                                 "mean": [float("nan")] * 68}),
    ], ids=["truncated", "missing-key", "short-mean", "long-std", "nan-mean"])
    def test_bad_stats_rejected(self, files42, edit):
        jsonl, stats_text, meta_text = files42
        with pytest.raises(DatasetError, match="stats.json"):
            dataset_from_files(jsonl, edit(stats_text), meta_text)

    def test_hand_edited_mean_rejected(self, files42):
        jsonl, stats_text, meta_text = files42
        doc = json.loads(stats_text)
        doc["mean"][17] = float(np.nextafter(doc["mean"][17], np.inf))
        with pytest.raises(DatasetError, match="stats.json: mean differs from "
                                               "that of the 1200 train samples"):
            dataset_from_files(jsonl, json.dumps(doc), meta_text)

    def test_hand_edited_std_rejected(self, files42):
        jsonl, stats_text, meta_text = files42
        doc = json.loads(stats_text)
        doc["std"][0] *= 2
        with pytest.raises(DatasetError, match="stats.json: std differs"):
            dataset_from_files(jsonl, json.dumps(doc), meta_text)

    def test_train_id_moved_without_new_stats_rejected(self, files42):
        def move(meta):
            meta["splits"]["validation"].append(meta["splits"]["train"].pop())

        with pytest.raises(DatasetError, match="stats.json: n differs from that "
                                               "of the 1199 train samples"):
            self._with_meta(files42, move)

    def test_train_id_swapped_without_new_stats_rejected(self, files42):
        def swap(meta):
            splits = meta["splits"]
            splits["train"][0], splits["validation"][0] = (
                splits["validation"][0], splits["train"][0])

        with pytest.raises(DatasetError, match="stats.json: mean differs"):
            self._with_meta(files42, swap)

    def test_without_stats_text_takes_train_stats(self, dataset42, files42):
        jsonl, stats_text, meta_text = files42
        ds = dataset_from_files(jsonl, None, meta_text)
        assert stats_to_json(ds.stats) == stats_text
