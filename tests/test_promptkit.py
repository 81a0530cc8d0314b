import hashlib
from dataclasses import replace

import numpy as np
import pytest

import legacy_formats
from gridsigma import promptkit
from gridsigma.errors import PromptError
from gridsigma.grid import builtin_ieee14, default_layout
from gridsigma.promptkit import (
    ICL,
    FEW_SHOT,
    HYBRID_SELECT,
    ZERO_SHOT,
    PromptConfig,
    VARIANTS,
    parse_selection,
    parse_value_block,
    parse_verdict,
    render_prompts,
    render_value_block,
    select_examples,
)
from gridsigma.scenario import ANOMALY, NORMAL, Sample, compute_stats, zscores

from conftest import GOLDEN_DIR


def fixture_samples(layout):
    """Deterministic synthetic samples for rendering tests and goldens."""
    n = len(layout)
    idx = np.arange(n, dtype=float)
    base = np.round(np.sin(idx * 0.7) * 2.0 + idx * 0.01, 6)
    samples = []
    for k in range(12):
        values = base + 0.05 * np.round(np.cos(idx * 0.3 + k), 6)
        if k % 3 == 2:
            injected = ((k * 5) % n, (k * 5 + 7) % n, (k * 5 + 29) % n)
            injected = tuple(sorted(set(injected)))
            deltas = []
            for j, i in enumerate(injected):
                delta = (1.5 + k / 3.0 + j) * (1 if (k + j) % 2 else -1)
                values[i] += delta
                deltas.append(delta)
            samples.append(
                Sample(id=k, features=values, label=ANOMALY,
                       injected=injected, deltas=tuple(deltas), hour=k)
            )
        else:
            samples.append(
                Sample(id=k, features=values, label=NORMAL,
                       injected=(), deltas=(), hour=k)
            )
    return samples


@pytest.fixture(scope="module")
def fixture_world():
    """The fixture samples as a dataset; its stats are those of all twelve."""
    layout = default_layout(builtin_ieee14())
    return legacy_formats.dataset_of(fixture_samples(layout), layout)


def block(ds, sample_id, variant):
    return render_value_block(ds.features[sample_id], ds.stats, ds.layout, variant)


def render_one(ds, sample_id, cfg, examples=()):
    return next(render_prompts(ds, [sample_id], cfg, examples))


def labels_of(ds, ids):
    return [ANOMALY if ds.anomalous[i] else NORMAL for i in ids]


class TestValueBlock:
    def test_z_only_has_no_mean_std_headers(self, fixture_world):
        text = block(fixture_world, 0, "z_only")
        assert "mean" not in text
        assert "std" not in text
        assert "|z|" in text

    def test_full_variant_has_four_numeric_columns(self, fixture_world):
        text = block(fixture_world, 0, "mean_std_value_z")
        table = parse_value_block(text)
        assert table.columns == ("value", "mean", "std", "|z|")
        data_rows = len(table.names)
        assert data_rows == 68

    def test_deterministic(self, fixture_world):
        a = block(fixture_world, 3, "mean_std_value")
        b = block(fixture_world, 3, "mean_std_value")
        assert a == b

    def test_groups_cover_all_kinds(self, fixture_world):
        text = block(fixture_world, 0, "value")
        for tag in ("[P]", "[Q]", "[Pf]", "[Qf]"):
            assert tag in text

    def test_column_nesting_across_variants(self, fixture_world):
        tables = {
            v: parse_value_block(block(fixture_world, 1, v))
            for v in VARIANTS
        }
        c1 = tables["value"].columns
        c2 = tables["mean_std_value"].columns
        c3 = tables["mean_std_value_z"].columns
        assert set(c1) < set(c2) < set(c3)
        assert c2[: len(c1)] == c1
        assert c3[: len(c2)] == c2
        assert not set(tables["z_only"].columns) & {"mean", "std"}
        # shared columns carry identical cells
        for col in c2:
            if col in c1:
                assert tables["value"].cells.get(col, tables["mean_std_value"].cells[col]) == tables["mean_std_value"].cells[col]
        for col in c3:
            if col in c2:
                assert tables["mean_std_value"].cells[col] == tables["mean_std_value_z"].cells[col]

    def test_round_trip_values(self, fixture_world):
        ds = fixture_world
        text = block(ds, 2, "mean_std_value_z")
        table = parse_value_block(text)
        assert table.names == tuple(ds.layout.names())
        expected = [round(float(v), 4) for v in ds.features[2]]
        assert list(table.cells["value"]) == pytest.approx(expected, abs=1e-9)

    def test_parse_rejects_garbage(self):
        with pytest.raises(PromptError):
            parse_value_block("this is not\na table at all")

    def test_length_mismatch_rejected(self, fixture_world):
        ds = fixture_world
        short = compute_stats(np.zeros((1, 3)), [0])
        with pytest.raises(PromptError):
            render_value_block(ds.features[0], short, ds.layout, "value")


class TestPromptConfig:
    def test_paradigm_defaults(self):
        assert PromptConfig(paradigm=ZERO_SHOT).k_examples == 0
        assert PromptConfig(paradigm=FEW_SHOT).k_examples == 2
        assert PromptConfig(paradigm=ICL).k_examples == 10

    def test_icl_allows_five(self):
        assert PromptConfig(paradigm=ICL, k_examples=5).k_examples == 5

    def test_invalid_combinations_rejected(self):
        with pytest.raises(PromptError):
            PromptConfig(paradigm=ZERO_SHOT, k_examples=2)
        with pytest.raises(PromptError):
            PromptConfig(paradigm=FEW_SHOT, k_examples=3)
        with pytest.raises(PromptError):
            PromptConfig(paradigm=ICL, k_examples=7)
        with pytest.raises(PromptError):
            PromptConfig(paradigm="chain_of_thought")

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "z_only"])
    def test_hybrid_select_requires_z_only(self, variant):
        with pytest.raises(PromptError, match="hybrid_select requires variant z_only"):
            PromptConfig(paradigm=HYBRID_SELECT, variant=variant)


class TestSelectExamples:
    def test_few_shot_one_of_each(self, dataset42):
        cfg = PromptConfig(paradigm=FEW_SHOT)
        picked = select_examples(dataset42, cfg)
        labels = labels_of(dataset42, picked)
        assert sorted(labels) == [ANOMALY, NORMAL]

    def test_icl_composition_and_determinism(self, dataset42):
        cfg = PromptConfig(paradigm=ICL, example_seed=11)
        a = select_examples(dataset42, cfg)
        b = select_examples(dataset42, cfg)
        assert a == b
        labels = labels_of(dataset42, a)
        assert labels.count(NORMAL) == 5
        assert labels.count(ANOMALY) == 5

    def test_icl_five_total(self, dataset42):
        cfg = PromptConfig(paradigm=ICL, k_examples=5, example_seed=11)
        picked = select_examples(dataset42, cfg)
        labels = labels_of(dataset42, picked)
        assert len(picked) == 5
        assert labels.count(NORMAL) == 2
        assert labels.count(ANOMALY) == 3

    def test_icl_spreads_anomaly_strengths(self, dataset42):
        cfg = PromptConfig(paradigm=ICL, example_seed=3)
        picked = select_examples(dataset42, cfg)

        def strength(i):
            return float(np.max(np.abs(zscores(dataset42.features[i], dataset42.stats))))

        strengths = sorted(strength(i) for i in picked if dataset42.anomalous[i])
        anom_strengths = sorted(
            strength(i) for i in dataset42.split_ids("train", ANOMALY).tolist()
        )
        quartiles = np.percentile(anom_strengths, [25, 50, 75])
        # at least one pick below the median and one above
        assert strengths[0] <= quartiles[1] <= strengths[-1]

    def test_all_normal_split_errors(self, dataset42):
        cfg = PromptConfig(paradigm=ICL)
        normals = dataset42.split_ids("train", NORMAL)
        ds = replace(dataset42, splits={**dataset42.splits, "train": normals})
        with pytest.raises(PromptError, match="0 anomalous samples, need 5"):
            select_examples(ds, cfg)

    def test_different_seeds_differ(self, dataset42):
        a = select_examples(dataset42, PromptConfig(paradigm=ICL, example_seed=1))
        b = select_examples(dataset42, PromptConfig(paradigm=ICL, example_seed=2))
        assert a != b

    @pytest.mark.parametrize("paradigm, k, seed, ids", [
        (FEW_SHOT, 2, 7, (411, 1166)),
        (ICL, 10, 7, (225, 804, 409, 1500, 165, 1184, 514, 1388, 587, 889)),
        (ICL, 5, 7, (411, 1416, 165, 1487, 1265)),
        (ICL, 10, 3, (710, 1261, 357, 1081, 192, 1277, 451, 1020, 8, 1223)),
    ], ids=["few-shot-seed7", "icl10-seed7", "icl5-seed7", "icl10-seed3"])
    def test_picks_pinned(self, dataset42, paradigm, k, seed, ids):
        # The ids, in their interleaved order. The last icl10 picks come from
        # the top strength bin, whose ties at 4 decimals the id breaks.
        cfg = PromptConfig(paradigm=paradigm, k_examples=k, example_seed=seed)
        picked = select_examples(dataset42, cfg)
        assert picked == ids
        assert all(type(i) is int for i in picked)


class TestRenderPrompt:
    def test_zero_shot_has_no_example_section(self, fixture_world):
        cfg = PromptConfig(paradigm=ZERO_SHOT, variant="z_only")
        bundle = render_one(fixture_world, 0, cfg)
        assert "Example" not in bundle.text

    def test_few_shot_has_exactly_two_example_blocks(self, fixture_world):
        cfg = PromptConfig(paradigm=FEW_SHOT, variant="z_only")
        bundle = render_one(fixture_world, 0, cfg, (1, 2))
        assert bundle.text.count("Example ") == 2
        assert bundle.text.count("Label: ") >= 2

    def test_required_phrases_present(self, fixture_world):
        cfg = PromptConfig(paradigm=ZERO_SHOT, variant="mean_std_value_z")
        text = render_one(fixture_world, 0, cfg).text
        assert "You are a power system analyst" in text
        assert "with 68 features per sample" in text
        assert "std := max(std, 1e-12)" in text
        assert "|z| >= 3.0" in text
        assert "must be exactly two lines" in text

    def test_example_count_mismatch_rejected(self, fixture_world):
        cfg = PromptConfig(paradigm=FEW_SHOT, variant="value")
        with pytest.raises(PromptError):
            render_one(fixture_world, 0, cfg, (1,))

    def test_rerender_reproduces_hash(self, fixture_world):
        cfg = PromptConfig(paradigm=ICL, variant="z_only", k_examples=10)
        examples = tuple(range(10))
        a = render_one(fixture_world, 11, cfg, examples)
        b = render_one(fixture_world, 11, cfg, examples)
        assert a.text == b.text
        assert a.content_hash == b.content_hash
        assert a.content_hash == hashlib.sha256(a.text.encode()).hexdigest()

    def test_hash_injectivity_across_benchmark(self, dataset42):
        """Distinct prompt texts never collide across a full benchmark run."""
        seen = {}
        cfgs = [
            PromptConfig(paradigm=ZERO_SHOT, variant=v) for v in VARIANTS
        ]
        test = dataset42.split_ids("test")
        for cfg in cfgs:
            for b in render_prompts(dataset42, test, cfg):
                if b.content_hash in seen:
                    assert seen[b.content_hash] == b.text
                seen[b.content_hash] = b.text
        assert len(seen) == len(set(seen.values()))


class TestRenderPrompts:
    @pytest.mark.parametrize("variant, paradigm", [
        (variant, paradigm) for variant in VARIANTS for paradigm in promptkit.PARADIGMS
        if paradigm != HYBRID_SELECT or variant == "z_only"
    ])
    def test_equals_one_prompt_at_a_time(self, dataset42, paradigm, variant):
        cfg = PromptConfig(paradigm=paradigm, variant=variant)
        examples = select_examples(dataset42, cfg)
        test = dataset42.split_ids("test")
        batch = list(render_prompts(dataset42, test, cfg, examples))
        assert batch == [render_one(dataset42, i, cfg, examples) for i in test]
        for bundle in batch:
            assert bundle.content_hash == hashlib.sha256(
                bundle.text.encode("utf-8")
            ).hexdigest()

    def test_examples_rendered_once_per_call(self, fixture_world, monkeypatch):
        ds = fixture_world
        calls = []
        original = promptkit.render_value_block

        def counting(values, *args):
            calls.append(values)
            return original(values, *args)

        monkeypatch.setattr(promptkit, "render_value_block", counting)
        cfg = PromptConfig(paradigm=ICL, variant="mean_std_value_z")
        bundles = list(render_prompts(ds, [10, 11], cfg, tuple(range(10))))
        assert len(bundles) == 2
        assert np.array_equal(np.stack(calls), ds.features)

    def test_wrong_example_count_raises_at_the_call(self, fixture_world):
        pulled = []

        def targets():
            for i in range(12):
                pulled.append(i)
                yield i

        with pytest.raises(PromptError, match="expects 2 examples"):
            render_prompts(fixture_world, targets(), PromptConfig(paradigm=FEW_SHOT),
                           (0,))
        assert pulled == []

    def test_samples_pulled_one_per_prompt(self, fixture_world):
        pulled = []

        def targets():
            for i in range(12):
                pulled.append(i)
                yield i

        bundles = render_prompts(fixture_world, targets(), PromptConfig())
        assert pulled == []
        assert next(bundles) == render_one(fixture_world, 0, PromptConfig())
        assert pulled == [0]

    def test_no_samples_no_prompts(self, fixture_world):
        cfg = PromptConfig(paradigm=FEW_SHOT)
        assert list(render_prompts(fixture_world, [], cfg, (0, 1))) == []
        with pytest.raises(PromptError, match="expects 2 examples"):
            render_prompts(fixture_world, [], cfg, (0,))


class TestValueBlockFormatting:
    @pytest.mark.parametrize("decimals", [0, 4, 6])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_per_cell_formatting(self, dataset42, variant, decimals):
        # Wide values, signed zeros and a NaN exercise the column widths and
        # the "-0.0000" cells.
        base = dataset42.features[1234].copy()
        base[[0, 20, 40, 60]] = [-0.0, -1e-9, 1.5e7, np.nan]
        test = dataset42.features[dataset42.split_ids("test")[:20]]
        for values in (base, *test):
            args = (values, dataset42.stats, dataset42.layout, variant, decimals)
            assert render_value_block(*args) == legacy_formats.render_value_block(*args)


class TestGoldenSnapshots:
    """Byte-frozen canonical renderings for every paradigm x variant."""

    def _bundles(self, fixture_world):
        ds = fixture_world
        target = 11
        out = {}
        for variant in VARIANTS:
            zero = PromptConfig(paradigm=ZERO_SHOT, variant=variant)
            out[f"zero_shot_{variant}"] = render_one(ds, target, zero)
            few = PromptConfig(paradigm=FEW_SHOT, variant=variant)
            out[f"few_shot_{variant}"] = render_one(ds, target, few, (0, 2))
            icl = PromptConfig(paradigm=ICL, variant=variant)
            out[f"icl_{variant}"] = render_one(ds, target, icl, tuple(range(10)))
        select = PromptConfig(paradigm=HYBRID_SELECT, variant="z_only", m_select=8)
        out["hybrid_select_z_only"] = render_one(ds, target, select)
        return out

    def test_golden_snapshots(self, fixture_world, update_golden):
        bundles = self._bundles(fixture_world)
        assert len(bundles) == 13
        if update_golden:
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            for name, bundle in bundles.items():
                (GOLDEN_DIR / f"{name}.txt").write_bytes(bundle.text.encode("utf-8"))
            pytest.skip("golden snapshots rewritten")
        for name, bundle in bundles.items():
            path = GOLDEN_DIR / f"{name}.txt"
            assert path.exists(), f"missing golden {name}; run pytest --update-golden"
            assert bundle.text.encode("utf-8") == path.read_bytes(), name

    def test_two_independent_renders_identical(self, fixture_world):
        a = {k: b.text for k, b in self._bundles(fixture_world).items()}
        b = {k: b.text for k, b in self._bundles(fixture_world).items()}
        assert a == b


class TestParseVerdict:
    def test_strict_two_lines(self):
        v = parse_verdict("anomaly\nSensor Pf_7 |z|=4.2 exceeds 3.0")
        assert v.label == ANOMALY
        assert v.parse_mode == "strict"
        assert v.rationale.startswith("Sensor Pf_7")

    def test_strict_with_label_prefix(self):
        v = parse_verdict("Label: NORMAL\nAll within bounds.")
        assert v.label == NORMAL
        assert v.parse_mode == "strict"

    def test_strict_with_numbered_prefix(self):
        v = parse_verdict("1) Label: anomaly\n2) Sensor P_3 is out of range.")
        assert v.label == ANOMALY
        assert v.parse_mode == "strict"

    def test_lenient_fallback(self):
        v = parse_verdict(
            "After careful review I conclude this is an anomaly.\n"
            "The z-score is big.\nThanks."
        )
        assert v.label == ANOMALY
        assert v.parse_mode == "lenient"

    def test_lenient_skips_ambiguous_lines(self):
        v = parse_verdict("normal or anomaly? hard to say\nnormal I think\nbye")
        assert v.label == NORMAL
        assert v.parse_mode == "lenient"

    def test_invalid_on_hedge(self):
        v = parse_verdict("I think it could be fine?")
        assert v.label == promptkit.INVALID
        assert v.parse_mode == promptkit.FAILED

    def test_invalid_on_empty(self):
        v = parse_verdict("")
        assert v.label == promptkit.INVALID

    def test_abnormal_is_not_normal_token(self):
        v = parse_verdict("abnormal reading\nnothing else")
        assert v.label == promptkit.INVALID

    def test_extra_blank_lines_still_strict(self):
        v = parse_verdict("\nanomaly\n\nSensor Q_2 too high.\n\n")
        assert v.parse_mode == "strict"
        assert v.label == ANOMALY


class TestParseSelection:
    def test_names_in_reply_order(self, layout68):
        ranked = parse_selection("Pf_7\nQ_3\nP_1\n", layout68, 8)
        assert [layout68.entries[i].name for i in ranked] == ["Pf_7", "Q_3", "P_1"]

    def test_lines_stripped_unknown_and_repeats_dropped(self, layout68):
        raw = "  Pf_7 \n\nNot_A_Sensor\nPf_7\n\tQ_3\nP_1: high\n"
        ranked = parse_selection(raw, layout68, 8)
        assert [layout68.entries[i].name for i in ranked] == ["Pf_7", "Q_3"]

    def test_stops_at_m(self, layout68):
        ranked = parse_selection("P_1\nP_2\nP_3\nP_4\n", layout68, 2)
        assert [layout68.entries[i].name for i in ranked] == ["P_1", "P_2"]

    def test_no_known_sensor_is_empty(self, layout68):
        assert parse_selection("nothing useful\n", layout68, 8) == ()
        assert parse_selection("", layout68, 8) == ()
