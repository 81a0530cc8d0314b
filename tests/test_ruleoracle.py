from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsigma import promptkit, ruleoracle
from gridsigma.promptkit import PromptConfig, PromptBundle
from gridsigma.ruleoracle import three_sigma_label
from gridsigma.scenario import ANOMALY, NORMAL, zscores


def brute_force_scan(z, threshold=3.0):
    """Independent index-by-index reimplementation of the rule."""
    violating = set()
    max_abs = 0.0
    for i in range(len(z)):
        magnitude = z[i] if z[i] >= 0 else -z[i]
        if magnitude > max_abs:
            max_abs = magnitude
        if magnitude >= threshold:
            violating.add(i)
    label = ANOMALY if violating else NORMAL
    return label, violating, max_abs


class TestThreeSigma:
    def test_boundary_inclusive(self):
        z = np.zeros(10)
        z[-1] = 3.0
        verdict = three_sigma_label(z)
        assert verdict.label == ANOMALY
        assert verdict.violating == {9}

    def test_all_below_threshold(self):
        verdict = three_sigma_label(np.full(68, 2.999))
        assert verdict.label == NORMAL
        assert verdict.violating == frozenset()

    def test_mixed_signs(self):
        verdict = three_sigma_label(np.array([-3.2, 0.0, 3.1]))
        assert verdict.label == ANOMALY
        assert verdict.violating == {0, 2}
        assert verdict.max_abs_z == pytest.approx(3.2)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            three_sigma_label(np.array([]))

    @pytest.mark.parametrize("z", [[np.nan, 0.5], [4.0, np.nan]])
    def test_nan_z_rejected(self, z):
        # A NaN is neither within nor beyond the threshold, even when another
        # sensor already violates it.
        with pytest.raises(ValueError, match="NaN z at index"):
            three_sigma_label(np.array(z))

    def test_brute_force_equivalence_1000(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            z = rng.normal(0, 1.5, size=68)
            verdict = three_sigma_label(z)
            label, violating, max_abs = brute_force_scan(z)
            assert verdict.label == label
            assert verdict.violating == violating
            assert verdict.max_abs_z == pytest.approx(max_abs)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=68), st.integers(0, 67))
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, values, bump_at):
        z = np.asarray(values)
        bump_at = bump_at % len(z)
        before = three_sigma_label(z)
        z2 = z.copy()
        z2[bump_at] = np.sign(z2[bump_at] or 1.0) * (abs(z2[bump_at]) + 5.0)
        after = three_sigma_label(z2)
        if before.label == ANOMALY:
            assert after.label == ANOMALY


class TestReferenceAgent:
    @pytest.fixture(scope="class")
    def stats(self, dataset42):
        return dataset42.stats

    def _bundle(self, ds, sample_id, variant):
        cfg = PromptConfig(paradigm="zero_shot", variant=variant)
        return next(promptkit.render_prompts(ds, [sample_id], cfg))

    def test_variant4_matches_oracle_with_rationale(self, dataset42):
        anomalous = next(
            s
            for s in dataset42.split_samples("test")
            if three_sigma_label(zscores(s.features, dataset42.stats)).label == ANOMALY
        )
        bundle = self._bundle(dataset42, anomalous.id, "z_only")
        verdict = ruleoracle.reference_agent(bundle)
        assert verdict.label == ANOMALY
        assert verdict.parse_mode == "strict"
        names = dataset42.layout.names()
        assert any(name in verdict.rationale for name in names)
        assert "exceeds" in verdict.rationale

    @pytest.mark.parametrize("variant", ["mean_std_value", "mean_std_value_z", "z_only"])
    def test_agreement_with_direct_rule_full_dataset(self, dataset42, variant):
        mismatches = 0
        cfg = PromptConfig(paradigm="zero_shot", variant=variant)
        ids = range(len(dataset42.features))
        for i, bundle in zip(ids, promptkit.render_prompts(dataset42, ids, cfg)):
            direct = three_sigma_label(zscores(dataset42.features[i], dataset42.stats)).label
            got = ruleoracle.reference_agent(bundle).label
            mismatches += got != direct
        assert mismatches == 0

    def test_variant1_infers_stats_from_values(self, dataset42):
        # Variant 1 carries no stats; the agent infers them across the block,
        # so its labels mirror the rule applied to within-sample z-scores.
        sample = dataset42.split_samples("test")[0]
        bundle = self._bundle(dataset42, sample.id, "value")
        verdict = ruleoracle.reference_agent(bundle)
        values = sample.features
        z = (values - values.mean()) / max(values.std(), 1e-12)
        assert verdict.label == three_sigma_label(z).label

    def test_corrupted_table_yields_invalid(self, dataset42):
        sample = dataset42.split_samples("test")[0]
        bundle = self._bundle(dataset42, sample.id, "z_only")
        corrupted = bundle.text.replace("**Value Block**:\n", "**Value Block**:\n@@garbage row@@\n")
        broken = PromptBundle(text=corrupted, config=bundle.config, content_hash="x")
        verdict = ruleoracle.reference_agent(broken)
        assert verdict.label == promptkit.INVALID
        assert verdict.parse_mode == promptkit.FAILED

    @pytest.mark.parametrize(
        "paradigm, variant",
        [
            ("zero_shot", "z_only"),
            ("zero_shot", "mean_std_value_z"),
            ("zero_shot", "mean_std_value"),
            ("zero_shot", "value"),
            ("hybrid_select", "z_only"),
        ],
    )
    def test_nan_feature_yields_invalid(self, dataset42, paradigm, variant):
        sample_id = dataset42.split_ids("test")[0]
        features = dataset42.features.copy()
        features[sample_id, 5] = np.nan
        cfg = PromptConfig(paradigm=paradigm, variant=variant)
        bundle = next(promptkit.render_prompts(
            replace(dataset42, features=features), [sample_id], cfg
        ))
        verdict = ruleoracle.reference_agent(bundle)
        assert verdict.label == promptkit.INVALID
        assert verdict.parse_mode == promptkit.FAILED
        assert verdict.rationale.startswith("value block has a NaN |z|: sensor ")
        if variant != "value":  # the value-only block infers a NaN mean for all
            assert verdict.rationale.endswith(dataset42.layout.names()[5])
        assert promptkit.parse_verdict(verdict.raw).parse_mode == promptkit.FAILED

    def test_raw_output_reparses_to_same_label(self, dataset42):
        for s in dataset42.split_samples("test")[:20]:
            bundle = self._bundle(dataset42, s.id, "z_only")
            verdict = ruleoracle.reference_agent(bundle)
            reparsed = promptkit.parse_verdict(verdict.raw)
            assert reparsed.label == verdict.label
            assert reparsed.parse_mode == "strict"
