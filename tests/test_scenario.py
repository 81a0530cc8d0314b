import hashlib
import io
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_formats
from gridsigma import scenario
from gridsigma.errors import DatasetError
from gridsigma.grid import (
    PQ,
    SLACK,
    Branch,
    Bus,
    FeatureLayout,
    Generator,
    GridCase,
    LayoutEntry,
    default_layout,
    extract_features,
    solve_newton,
)
from gridsigma.scenario import (
    ANOMALY,
    NORMAL,
    Sample,
    SplitSizes,
    build_dataset,
    compute_stats,
    ingest_load_csv,
    inject_anomaly,
    meta_to_json,
    stats_from_json,
    stats_to_json,
    synth_load_profile,
    zscores,
)


def with_samples(ds, samples, **changes):
    """ds with these samples in place of its own; its splits keep the ids
    that name one of them."""
    splits = {name: ids[ids < len(samples)] for name, ids in ds.splits.items()}
    fields = {"splits": splits, "layout": ds.layout, "stats": ds.stats,
              "master_seed": ds.master_seed, **changes}
    return legacy_formats.dataset_of(samples, **fields)


from_texts, written = legacy_formats.from_texts, legacy_formats.written
samples_of = legacy_formats.samples


def stats_of(rows):
    """compute_stats over every row of this (n, d) matrix."""
    rows = np.asarray(rows, dtype=float)
    return compute_stats(rows, range(len(rows)))


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
        text = legacy_formats.export_load_csv(profile, [1, 2, 3, 4])
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
        stats = stats_of([[1.0, -2.0, 3.5]])
        assert np.array_equal(stats.std, np.zeros(3))

    def test_two_samples_hand_computed(self):
        stats = stats_of([[0.0], [2.0]])
        assert stats.mean[0] == 1.0
        assert stats.std[0] == 1.0  # population std

    def test_constant_feature(self):
        stats = stats_of([[7.0, i] for i in range(5)])
        assert stats.std[0] == 0.0

    def test_empty_input(self):
        with pytest.raises(DatasetError):
            compute_stats(np.empty((0, 3)), [])

    def test_recompute_bit_identical(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(50, 68))
        a = stats_of(rows)
        b = stats_of(rows)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.std, b.std)

    @pytest.mark.parametrize("width", [1, 68, 82])
    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 700])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_chunked_stats_bit_equal_stacked_numpy(self, rows, width, seed):
        # Around one chunk of rows and over several. Column scales from 1e-8
        # to 1e14 with offsets, cells a few decades apart within a column,
        # and signed zeros scattered and filling one column; the train ids
        # skip rows.
        rng = np.random.default_rng(seed)
        matrix = (rng.normal(size=(2 * rows, width))
                  * 10.0 ** rng.integers(-8, 15, size=width)
                  * 10.0 ** rng.integers(-3, 4, size=(2 * rows, width))
                  + rng.normal(size=width) * 10.0 ** rng.integers(-8, 15, size=width))
        matrix[rng.random(matrix.shape) < 0.1] = -0.0
        if width > 1:
            matrix[:, -1] = -0.0
        ids = np.sort(rng.choice(2 * rows, size=rows, replace=False))
        stacked = np.stack([matrix[i] for i in ids])
        for stats in (stats_of(stacked), compute_stats(matrix, ids)):
            assert stats.mean.tobytes() == stacked.mean(axis=0).tobytes()
            assert stats.std.tobytes() == stacked.std(axis=0).tobytes()
            assert stats.n == rows

    @pytest.mark.parametrize("seed, sha256", [
        (42, "1e4c54397fadab4202b9926723e1e74939aaf6d52c5afdaaea8efa8da0b48898"),
        (7, "132829afa2564d6c6d57676ae467c263a4a473a9ece17a9102e5e6104072c6e7"),
    ])
    def test_stats_json_bytes_pinned(self, ieee14, layout68, dataset42, seed, sha256):
        ds = dataset42 if seed == 42 else build_dataset(
            ieee14, synth_load_profile(800, 14, seed=seed), layout68, seed=seed)
        text = stats_to_json(ds.stats)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256

    def test_dataset_files_bytes_pinned(self, dataset42, tmp_path):
        scenario.write_dataset_dir(dataset42, tmp_path)
        jsonl_path, csv_path = tmp_path / "dataset.jsonl", tmp_path / "features.csv"
        for path, sha256 in (
            (jsonl_path, "758ab1f14506825bd1e71b1027ceb2c408c03e11f9d7cd8be63f84d701c44ac8"),
            (csv_path, "2581f18924a5cbb35827ca7d5e419a72d14ebb0a843735cfdb5b803de31eae19"),
        ):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256, path.name


class TestZScores:
    def test_value_at_mean(self):
        stats = stats_of([[0.0], [2.0]])
        assert zscores(np.array([1.0]), stats)[0] == 0.0

    def test_three_sigma_point(self):
        stats = stats_of([[0.0], [2.0]])
        assert zscores(np.array([4.0]), stats)[0] == pytest.approx(3.0)

    def test_zero_std_floor(self):
        stats = stats_of([[5.0], [5.0]])
        z = zscores(np.array([5.0 + 1e-6]), stats)
        assert z[0] == pytest.approx(1e6)

    def test_length_mismatch(self):
        stats = stats_of([[1.0, 2.0]])
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
        stats = stats_of(raw)
        z_before = np.stack([zscores(row, stats) for row in raw])

        scaled = raw.copy()
        scaled[:, 2] = a * raw[:, 2] + b
        stats2 = stats_of(scaled)
        z_after = np.stack([zscores(row, stats2) for row in scaled])
        assert np.max(np.abs(z_after[:, 2] - z_before[:, 2])) <= 1e-12


class TestBuildDataset:
    def test_default_shape_and_balance(self, dataset42):
        assert len(dataset42.features) == 1600
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
        assert all_ids == {s.id for s in samples_of(dataset42)}

    def test_deterministic(self, ieee14, layout68, dataset42):
        profile = synth_load_profile(800, 14, seed=42)
        again = build_dataset(ieee14, profile, layout68, seed=42)
        assert written(again) == written(dataset42)
        assert np.array_equal(again.stats.mean, dataset42.stats.mean)
        assert np.array_equal(again.stats.std, dataset42.stats.std)

    def test_anomalous_have_three_injections(self, dataset42):
        for s in samples_of(dataset42):
            if s.label == ANOMALY:
                assert len(s.injected) == 3
            else:
                assert s.injected == ()

    def test_injection_audit_reconstructs_exactly(self, dataset42):
        """base + deltas reproduces features bitwise via the hour twin."""
        samples = samples_of(dataset42)
        by_hour = {
            s.hour: s for s in samples if s.label == NORMAL
        }
        for s in samples:
            if s.label != ANOMALY:
                continue
            twin = by_hour[s.hour]
            expected = twin.features.copy()
            for idx, delta in zip(s.injected, s.deltas):
                expected[idx] = expected[idx] + delta
            assert np.array_equal(s.features, expected)

    def test_stats_from_train_split_only(self, dataset42):
        train = np.stack([s.features for s in dataset42.split_samples("train")])
        recomputed = stats_of(train)
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
        normals = [s for s in samples_of(ds) if s.label == NORMAL]
        assert [s.hour for s in normals] == [0, 1, 3, 4, 6, 7, 8, 10, 12, 13]
        for s in normals:
            sol = solve_newton(ieee14, profile.scale[s.hour], max_iter=4)
            expected = extract_features(sol, layout68)
            assert np.array_equal(s.features, expected)

    def test_always_singular_case_is_dataset_error(self):
        # With its only branch out of service, bus 2 is islanded and every
        # hour's Jacobian is singular.
        case = GridCase(
            base_mva=100.0,
            buses=(
                Bus(1, SLACK, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0),
                Bus(2, PQ, 0.5, 0.1, 0.0, 0.0, 1.0, 0.0),
            ),
            branches=(Branch(1, 2, 0.01, 0.1, 0.0, in_service=False),),
            gens=(Generator(1, 0.0, 1.0),),
        )
        profile = synth_load_profile(10, 2, seed=0)
        with pytest.raises(DatasetError, match="only 0 of 10 required hours"):
            build_dataset(case, profile, default_layout(case), sizes=SplitSizes(12, 4, 4))


class TestChunkHours:
    """The hours per stacked power-flow solve never change a byte."""

    @pytest.mark.parametrize("failed", [(), (3, 130, 131)],
                             ids=["all-converge", "failed-inside-chunks"])
    def test_chunk_size_never_changes_bytes(self, ieee14, layout68, monkeypatch,
                                            failed):
        # A NaN load fails its hour; the failed hours fall inside chunks of
        # 7, 128 and 512 hours, so later hours shift across chunk edges.
        profile = synth_load_profile(200 + len(failed), 14, seed=42)
        profile.scale[list(failed), 5] = np.nan
        built = []
        for chunk in (1, 7, 128, 512):
            monkeypatch.setattr(scenario, "_CHUNK_HOURS", chunk)
            ds = build_dataset(ieee14, profile, layout68,
                               sizes=SplitSizes(300, 50, 50), seed=42)
            matrix = ds.features
            text = "".join(written(ds))
            built.append((matrix.view(np.uint64), text))
        assert len(built[0][1]) > 0
        for matrix, text in built[1:]:
            assert np.array_equal(matrix, built[0][0])
            assert text == built[0][1]
        if failed:
            hours = set(ds.hours.tolist())
            assert hours.isdisjoint(failed) and len(hours) == 200


class TestPersistence:
    def test_jsonl_stats_meta_round_trip(self, dataset42):
        jsonl = written(dataset42)[0]
        stats_text = stats_to_json(dataset42.stats)
        meta = meta_to_json(dataset42)
        again = from_texts(jsonl, stats_text, meta)
        assert len(again.features) == len(dataset42.features)
        assert again.splits.keys() == dataset42.splits.keys()
        for name, ids in again.splits.items():
            assert np.array_equal(ids, dataset42.splits[name])
        assert again.layout == dataset42.layout
        assert again.master_seed == dataset42.master_seed
        for a, b in zip(samples_of(again), samples_of(dataset42)):
            assert a.id == b.id and a.label == b.label and a.hour == b.hour
            assert a.injected == b.injected and a.deltas == b.deltas
            assert np.array_equal(a.features, b.features)
        assert written(again)[0] == jsonl

    def test_inconsistent_record_rejected(self, dataset42):
        import json

        jsonl = written(dataset42)[0]
        first = json.loads(jsonl.splitlines()[0])
        first["label"] = ANOMALY  # but injected stays empty
        broken = json.dumps(first) + "\n" + "\n".join(jsonl.splitlines()[1:])
        with pytest.raises(DatasetError, match=re.escape(
                "dataset.jsonl: sample 0: label 'anomaly' inconsistent with injected ()")):
            from_texts(broken, stats_to_json(dataset42.stats), meta_to_json(dataset42))

    def test_stats_json_round_trip(self, dataset42):
        text = stats_to_json(dataset42.stats)
        again = stats_from_json(text)
        assert np.array_equal(again.mean, dataset42.stats.mean)
        assert np.array_equal(again.std, dataset42.stats.std)

    def test_features_csv_shape(self, dataset42):
        text = written(dataset42)[1]
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
    return legacy_formats.dataset_of(
        samples,
        layout,
        splits={"train": (0,), "validation": tuple(range(1, len(samples))),
                "test": ()},
    )


class TestTemplatedWriters:
    @settings(max_examples=200, deadline=None)
    @given(small_datasets())
    def test_bytes_match_json_and_csv_modules(self, ds):
        jsonl, csv_text = written(ds)
        assert jsonl == legacy_formats.dataset_to_jsonl(ds)
        assert csv_text == legacy_formats.features_to_csv(ds)
        again = from_texts(jsonl, stats_to_json(ds.stats), meta_to_json(ds))
        assert written(again)[0] == jsonl

    def test_default_dataset_bytes_match(self, dataset42):
        assert written(dataset42) == (legacy_formats.dataset_to_jsonl(dataset42),
                                      legacy_formats.features_to_csv(dataset42))

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
        ds = with_samples(dataset42, [replace(sample, id=0)])
        with pytest.raises(DatasetError, match="non-finite"):
            written(ds)


@pytest.fixture(scope="module")
def dataset82(ieee14):
    """640 samples on the 82-sensor layout: more than two blocks."""
    profile = synth_load_profile(320, len(ieee14.buses), seed=5)
    return build_dataset(ieee14, profile, default_layout(ieee14, include_voltage=True),
                         sizes=SplitSizes(train=480, validation=80, test=80), seed=5)


_B = scenario._BLOCK_ROWS


class Writes(io.BytesIO):
    """An in-memory binary file that keeps each write's bytes."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return super().write(data)
# Hours drawn for rows after the prefix: 0-2 are the first prefix rows' hours
# (when there is a prefix), 7777 is no prefix row's hour.
_HOURS = [0, 1, 2, 7777]


@st.composite
def repeated_hour_datasets(draw, full):
    """A prefix of full's first rows (none, all but the last of block 0, or
    all of block 0), then up to 12 rows at a few repeated hours. Each such row
    starts from the last row drawn at its hour (else a real row) and has
    random cells set to an edge float, negated (0.0 <-> -0.0) or moved one
    float toward zero (a repr of another length)."""
    n = len(full.layout)
    samples = [full.by_id(i) for i in range(draw(st.sampled_from([0, _B - 1, _B])))]
    last = {}
    for _ in range(draw(st.integers(1, 12))):
        hour = draw(st.sampled_from(_HOURS))
        values = last.get(hour, full.features[_HOURS.index(hour)]).copy()
        edits = draw(st.lists(st.tuples(
            st.one_of(st.integers(0, 2), st.integers(0, n - 1)),  # 0-2 collide
            st.one_of(_EDGE_FLOATS, st.sampled_from(["negate", "next"])),
        ), max_size=4))
        for i, edit in edits:
            if i < len(values):
                values[i] = (-values[i] if edit == "negate"
                             else np.nextafter(values[i], 0.0) if edit == "next"
                             else edit)
        last[hour] = values
        samples.append(Sample(id=len(samples), features=values, label=NORMAL,
                              injected=(), deltas=(), hour=hour))
    return with_samples(full, samples)


class TestDatasetBlocks:
    @pytest.mark.parametrize("layout", ["68", "82"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_repeated_hours_equal_legacy_writers(self, dataset42, dataset82,
                                                 layout, data):
        ds = data.draw(repeated_hour_datasets({"68": dataset42,
                                               "82": dataset82}[layout]))
        assert written(ds) == (legacy_formats.dataset_to_jsonl(ds),
                               legacy_formats.features_to_csv(ds))

    def test_signed_zero_keeps_its_text(self, dataset42):
        # -0.0 == 0.0, so only a comparison of bits gives -0.0 its own text.
        first = dataset42.by_id(0)
        base, later = first.features.copy(), first.features.copy()
        base[:2] = 0.0, 5e-324
        later[:2] = -0.0, 5e-324
        ds = with_samples(dataset42, [replace(first, features=base),
                                      replace(first, id=1, features=later)])
        jsonl = written(ds)[0]
        assert jsonl == legacy_formats.dataset_to_jsonl(ds)
        assert '"features":[-0.0,5e-324,' in jsonl.splitlines()[1]

    def test_anomaly_rows_format_only_their_injected_cells(self, dataset42,
                                                           monkeypatch):
        formatted = []
        floats_text = scenario._floats_text

        def counting(values):
            formatted.append(len(values))
            return floats_text(values)

        monkeypatch.setattr(scenario, "_floats_text", counting)
        assert written(dataset42)[0] == legacy_formats.dataset_to_jsonl(dataset42)
        # Features: once per normal row, whose hour is new; deltas: every row.
        assert formatted.count(len(dataset42.layout)) == 800
        assert formatted.count(3) == 800 and formatted.count(0) == 800

    @pytest.mark.parametrize("layout", ["68", "82"])
    @pytest.mark.parametrize("rows", [1, _B - 1, _B, _B + 1, 2 * _B + 1])
    def test_blocks_equal_legacy_writers(self, dataset42, dataset82, layout, rows):
        full = {"68": dataset42, "82": dataset82}[layout]
        assert len(full.layout) == int(layout)
        ds = with_samples(full, [full.by_id(i) for i in range(rows)])
        jsonl, csv_file = Writes(), Writes()
        scenario.write_dataset(ds, jsonl, csv_file)
        assert len(jsonl.writes) == -(-rows // _B)
        assert csv_file.writes[0].count(b"\n") == 1  # the header
        for k, (lines, csv_rows) in enumerate(zip(jsonl.writes, csv_file.writes[1:])):
            in_block = min(_B, rows - k * _B)
            assert lines.count(b"\n") == csv_rows.count(b"\n") == in_block
        assert jsonl.getvalue().decode() == legacy_formats.dataset_to_jsonl(ds)
        assert csv_file.getvalue().decode() == legacy_formats.features_to_csv(ds)

    def test_zero_feature_rows_end_at_the_label(self, dataset42):
        # Two samples at one hour, so the second reuses the first's text.
        first = replace(dataset42.by_id(0), features=np.zeros(0))
        ds = with_samples(dataset42, [first, replace(first, id=1)],
                          layout=FeatureLayout(()))
        csv_text = written(ds)[1]
        assert csv_text == legacy_formats.features_to_csv(ds)
        assert csv_text.splitlines()[1:] == ["0,0,normal", "1,0,normal"]

    def test_empty_dataset_is_the_csv_header(self, dataset42):
        ds = with_samples(dataset42, [])
        assert written(ds) == ("", legacy_formats.features_to_csv(ds))

    @pytest.mark.parametrize("edit", [
        lambda s: replace(s, features=np.where(np.arange(len(s.features)) == 9,
                                               np.nan, s.features)),
        lambda s: replace(s, deltas=(np.inf,) + s.deltas[1:]),
    ], ids=["nan-feature", "inf-delta"])
    def test_last_sample_refused_before_any_block(self, dataset42, edit):
        samples = samples_of(dataset42)
        ds = with_samples(dataset42, samples[:-1] + (edit(samples[-1]),))
        jsonl, csv_file = Writes(), Writes()
        with pytest.raises(DatasetError, match="sample 1599"):
            scenario.write_dataset(ds, jsonl, csv_file)
        assert jsonl.writes == csv_file.writes == []


class TestWriteDatasetFiles:
    """write_dataset_dir reads each anomaly's base text back from the
    dataset.jsonl it is writing; its files equal the legacy writers'."""

    @pytest.mark.parametrize("which", ["400", "1600", "82-sensors", "skipped-hours"])
    def test_files_equal_legacy_writers(self, ieee14, layout68, dataset42, dataset82,
                                        tmp_path, which):
        if which == "400":
            ds = build_dataset(ieee14, synth_load_profile(200, 14, seed=42), layout68,
                               sizes=SplitSizes(300, 50, 50), seed=42)
            # Anomaly 200's base, row 0, is in its block: not yet written.
            assert ds.hours[200] == ds.hours[0] and 200 < _B
        elif which == "skipped-hours":
            # TestChunkHours' profile: failed hours shift the later ones.
            profile = synth_load_profile(203, 14, seed=42)
            profile.scale[[3, 130, 131], 5] = np.nan
            ds = build_dataset(ieee14, profile, layout68,
                               sizes=SplitSizes(300, 50, 50), seed=42)
            assert {3, 130, 131}.isdisjoint(ds.hours.tolist())
        else:
            ds = dataset42 if which == "1600" else dataset82
        out = tmp_path / "d"
        names = ["dataset.jsonl", "stats.json", "meta.json", "features.csv",
                 scenario.COLUMNS_FILE]
        assert scenario.write_dataset_dir(ds, out) == [out / name for name in names]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        jsonl_path, csv_path = out / "dataset.jsonl", out / "features.csv"
        assert jsonl_path.read_text(encoding="utf-8") == legacy_formats.dataset_to_jsonl(ds)
        assert csv_path.read_text(encoding="utf-8") == legacy_formats.features_to_csv(ds)
        assert (out / "stats.json").read_text(encoding="utf-8") == stats_to_json(ds.stats)
        assert (out / "meta.json").read_text(encoding="utf-8") == meta_to_json(ds)

    def test_refused_dataset_creates_neither_file(self, dataset42, tmp_path):
        """None of the five files, and not the directory either."""
        last = dataset42.by_id(1599)
        ds = with_samples(dataset42, samples_of(dataset42)[:-1] + (
            replace(last, deltas=(np.inf,) + last.deltas[1:]),))
        out = tmp_path / "d"
        with pytest.raises(DatasetError, match="sample 1599: non-finite"):
            scenario.write_dataset_dir(ds, out)
        assert not out.exists()
        out.mkdir()
        with pytest.raises(DatasetError, match="sample 1599: non-finite"):
            scenario.write_dataset_dir(ds, out)
        assert not any(out.iterdir())

    def test_layout_narrower_than_the_rows_refused(self, dataset42, tmp_path):
        ds = replace(dataset42, layout=FeatureLayout(dataset42.layout.entries[:-1]))
        out = tmp_path / "d"
        with pytest.raises(DatasetError, match=re.escape("68 features, layout has 67")):
            scenario.write_dataset_dir(ds, out)
        assert not out.exists()


@pytest.fixture(scope="module")
def files42(dataset42):
    """The seed-42 dataset as its three files' texts."""
    return (
        written(dataset42)[0],
        stats_to_json(dataset42.stats),
        meta_to_json(dataset42),
    )


class TestLoaderChecks:
    def test_by_id_is_positional(self, files42):
        ds = from_texts(*files42)
        assert ds.by_id(1000).id == 1000
        for bad in (-1, len(ds.features)):
            with pytest.raises(DatasetError, match=f"no sample with id {bad}"):
                ds.by_id(bad)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.rstrip("\n"),
        lambda text: text.replace("\n", "\n\n", 3),
    ], ids=["crlf", "no-final-newline", "blank-lines"])
    def test_line_endings_tolerated(self, files42, edit):
        jsonl, stats_text, meta_text = files42
        ds = from_texts(edit(jsonl), stats_text, meta_text)
        assert written(ds)[0] == jsonl

    def test_swapped_lines_rejected(self, files42):
        jsonl, stats_text, meta_text = files42
        lines = jsonl.splitlines(keepends=True)
        lines[0], lines[1000] = lines[1000], lines[0]
        with pytest.raises(DatasetError, match="line 1: id 1000, expected 0"):
            from_texts("".join(lines), stats_text, meta_text)

    def _with_meta(self, files42, edit):
        jsonl, stats_text, meta_text = files42
        meta = json.loads(meta_text)
        edit(meta)
        return from_texts(jsonl, stats_text, json.dumps(meta))

    def test_samples_outside_the_splits_load(self, files42, dataset42):
        # The matrix is allocated for the 1400 split ids and grows to 1600 rows.
        ds = self._with_meta(files42, lambda meta: meta["splits"].update(test=[]))
        assert len(ds.features) == 1600
        assert ds.by_id(0).features.base.shape == (1600, 68)
        for a, b in zip(samples_of(ds), samples_of(dataset42)):
            assert a.features.tobytes() == b.features.tobytes()
        assert written(ds)[0] == files42[0]

    @pytest.mark.parametrize("bad_id", [99999, -1, 1600, 2.0, "3", True])
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
        lambda rec: rec["deltas"].append(0.5),
        # numpy would store "1.5" as 1.5; the line's own check refuses it.
        lambda rec: rec["features"].__setitem__(5, "1.5"),
    ], ids=["label-case", "label-null", "feature-nan", "feature-inf",
            "feature-short", "feature-nested", "missing-key", "deltas-long",
            "feature-str"])
    def test_bad_record_rejected(self, files42, edit):
        jsonl, stats_text, meta_text = files42
        lines = jsonl.splitlines()
        rec = json.loads(lines[7])
        edit(rec)
        lines[7] = json.dumps(rec)  # writes NaN / -Infinity tokens
        with pytest.raises(DatasetError, match="dataset line 8"):
            from_texts("\n".join(lines), stats_text, meta_text)

    def test_non_finite_delta_rejected(self, files42):
        jsonl, stats_text, meta_text = files42
        lines = jsonl.splitlines()
        rec = json.loads(lines[1500])
        rec["deltas"][0] = float("inf")
        lines[1500] = json.dumps(rec)
        with pytest.raises(DatasetError, match="line 1501: non-finite"):
            from_texts("\n".join(lines), stats_text, meta_text)

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
            from_texts(jsonl, stats_text, meta_text[:200])

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
            from_texts(jsonl, edit(stats_text), meta_text)

    def test_hand_edited_mean_rejected(self, files42):
        jsonl, stats_text, meta_text = files42
        doc = json.loads(stats_text)
        doc["mean"][17] = float(np.nextafter(doc["mean"][17], np.inf))
        with pytest.raises(DatasetError, match="stats.json: mean differs from "
                                               "that of the 1200 train samples"):
            from_texts(jsonl, json.dumps(doc), meta_text)

    def test_hand_edited_std_rejected(self, files42):
        jsonl, stats_text, meta_text = files42
        doc = json.loads(stats_text)
        doc["std"][0] *= 2
        with pytest.raises(DatasetError, match="stats.json: std differs"):
            from_texts(jsonl, json.dumps(doc), meta_text)

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
