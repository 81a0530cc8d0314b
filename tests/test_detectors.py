import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsigma import agents, detectors
from gridsigma.detectors import (
    DetectorModel,
    FeatureSelection,
    Hyper,
    SOURCE_FULL,
    SOURCE_REFERENCE,
    calibrate_hybrid_threshold,
    calibrate_threshold,
    detect,
    hybrid_detect,
    hybrid_score,
    llm_select_features,
    loss_and_gradients,
    model_from_json,
    model_to_json,
    reconstruction_error,
    reference_selector,
    train_autoencoder,
)
from gridsigma.errors import DetectorError
from gridsigma.scenario import ANOMALY, NORMAL, FeatureStats, Sample, zscores


def make_sample(values, sample_id=0, label=NORMAL):
    return Sample(
        id=sample_id,
        features=np.asarray(values, dtype=float),
        label=label,
        injected=(),
        deltas=(),
        hour=0,
    )


def unit_stats(dim):
    return FeatureStats(mean=np.zeros(dim), std=np.ones(dim), n=1, split="test")


def score_model(threshold=None):
    """1-1 model with zero weights: score(x) = standardized(x)^2."""
    return DetectorModel(
        layer_dims=(1, 1),
        weights=(np.zeros((1, 1)),),
        biases=(np.zeros(1),),
        input_stats=unit_stats(1),
        threshold=threshold,
        train_seed=0,
    )


class TestTraining:
    def test_loss_decreases_on_default_dataset(self, dataset42, model42):
        normals = [s for s in dataset42.split_samples("train") if s.label == NORMAL]
        stats = model42.input_stats
        x = np.stack([zscores(s.features, stats) for s in normals])
        rng = np.random.default_rng(np.random.SeedSequence([42, 10]))
        w0, b0 = detectors._init_params(model42.layer_dims, rng)
        initial = detectors._mean_loss(x, w0, b0)
        final = detectors._mean_loss(x, list(model42.weights), list(model42.biases))
        assert final < initial

    def test_bit_identical_across_runs(self, dataset42):
        normals = [s for s in dataset42.split_samples("train") if s.label == NORMAL]
        hyper = Hyper(epochs=3)
        a = train_autoencoder(normals[:150], hyper, seed=9)
        b = train_autoencoder(normals[:150], hyper, seed=9)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_different_seeds_differ(self, dataset42):
        normals = [s for s in dataset42.split_samples("train") if s.label == NORMAL]
        hyper = Hyper(epochs=2)
        a = train_autoencoder(normals[:150], hyper, seed=1)
        b = train_autoencoder(normals[:150], hyper, seed=2)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_constant_inputs_reach_zero_loss(self):
        samples = [make_sample(np.full(6, 3.7), sample_id=i) for i in range(120)]
        model = train_autoencoder(
            samples, Hyper(epochs=30), seed=0, layer_dims=(6, 4, 2, 4, 6)
        )
        losses = [reconstruction_error(model, s.features)[1] for s in samples[:5]]
        assert max(losses) < 1e-6

    def test_too_few_samples(self):
        samples = [make_sample(np.zeros(6), sample_id=i) for i in range(50)]
        with pytest.raises(DetectorError, match="at least 100"):
            train_autoencoder(samples, layer_dims=(6, 4, 2, 4, 6))

    def test_divergence_reports_epoch(self):
        # A NaN feature poisons the loss on the first batch.
        values = np.zeros(6)
        samples = [make_sample(values + i * 0.01, sample_id=i) for i in range(120)]
        poisoned = np.zeros(6)
        poisoned[2] = np.nan
        samples[0] = make_sample(poisoned, sample_id=0)
        with pytest.raises(DetectorError, match=r"diverged.*epoch"):
            train_autoencoder(samples, Hyper(epochs=5), seed=0,
                              layer_dims=(6, 4, 2, 4, 6))


class TestGradients:
    def test_analytic_matches_central_differences(self):
        """Toy 6-4-2-4-6 model, 100 random probes, rel err < 1e-4."""
        rng = np.random.default_rng(77)
        dims = (6, 4, 2, 4, 6)
        weights, biases = detectors._init_params(dims, rng)
        x = rng.normal(size=(5, 6))
        _, grads_w, grads_b = loss_and_gradients(x, weights, biases)
        eps = 1e-5
        worst = 0.0
        for _ in range(100):
            layer = int(rng.integers(len(weights)))
            if rng.integers(2):
                target, grad = weights, grads_w
            else:
                target, grad = biases, grads_b
            flat_index = int(rng.integers(target[layer].size))
            multi = np.unravel_index(flat_index, target[layer].shape)
            original = target[layer][multi]
            target[layer][multi] = original + eps
            up, _, _ = loss_and_gradients(x, weights, biases)
            target[layer][multi] = original - eps
            down, _, _ = loss_and_gradients(x, weights, biases)
            target[layer][multi] = original
            numeric = (up - down) / (2 * eps)
            analytic = grad[layer][multi]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / scale)
        assert worst < 1e-4


def per_layer_adam(x_train, x_val, hyper, seed, dims):
    """Adam with per-layer moment lists and the best epoch kept layer by layer.

    Independent of train_autoencoder's parameter layout; returns the best
    weights, the best biases and the number of epochs run.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 10]))
    weights, biases = detectors._init_params(dims, rng)
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    best_val = np.inf
    best_weights = [w.copy() for w in weights]
    best_biases = [b.copy() for b in biases]
    since_best = 0
    n = x_train.shape[0]
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch):
            batch = x_train[order[start : start + hyper.batch]]
            _, gw, gb = loss_and_gradients(batch, weights, biases)
            step += 1
            corr1 = 1.0 - beta1**step
            corr2 = 1.0 - beta2**step
            for l in range(len(weights)):
                m_w[l] = beta1 * m_w[l] + (1 - beta1) * gw[l]
                v_w[l] = beta2 * v_w[l] + (1 - beta2) * gw[l] ** 2
                weights[l] -= hyper.lr * (m_w[l] / corr1) / (np.sqrt(v_w[l] / corr2) + eps)
                m_b[l] = beta1 * m_b[l] + (1 - beta1) * gb[l]
                v_b[l] = beta2 * v_b[l] + (1 - beta2) * gb[l] ** 2
                biases[l] -= hyper.lr * (m_b[l] / corr1) / (np.sqrt(v_b[l] / corr2) + eps)
        val_loss = detectors._mean_loss(x_val, weights, biases)
        if val_loss < best_val:
            best_val = val_loss
            best_weights = [w.copy() for w in weights]
            best_biases = [b.copy() for b in biases]
            since_best = 0
        else:
            since_best += 1
            if since_best >= hyper.patience:
                break
    return best_weights, best_biases, epoch + 1


class TestOptimizer:
    @pytest.mark.parametrize(
        "hyper, stops_early",
        [
            (Hyper(lr=0.05, batch=16, epochs=40, patience=2), True),
            (Hyper(lr=0.01, batch=16, epochs=6, patience=6), False),
        ],
    )
    def test_bit_identical_to_per_layer_adam(self, hyper, stops_early):
        dims = (6, 4, 2, 4, 6)
        rng = np.random.default_rng(5)
        train = [make_sample(rng.normal(size=6), sample_id=i) for i in range(120)]
        val = [make_sample(rng.normal(size=6), sample_id=200 + i) for i in range(30)]
        stats = unit_stats(6)
        model = train_autoencoder(
            train, hyper, seed=3, val_normals=val, layer_dims=dims, stats=stats
        )
        x_train = np.stack([zscores(s.features, stats) for s in train])
        x_val = np.stack([zscores(s.features, stats) for s in val])
        weights, biases, epochs_run = per_layer_adam(x_train, x_val, hyper, 3, dims)
        assert (epochs_run < hyper.epochs) == stops_early
        assert len(model.weights) == len(weights) and len(model.biases) == len(biases)
        for got, want in zip(model.weights + model.biases, weights + biases):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


class TestReconstructionError:
    def test_identity_model_zero_residuals(self):
        model = DetectorModel(
            layer_dims=(3, 3),
            weights=(np.eye(3),),
            biases=(np.zeros(3),),
            input_stats=unit_stats(3),
            threshold=None,
            train_seed=0,
        )
        residuals, total = reconstruction_error(model, np.array([1.0, -2.0, 0.5]))
        assert np.allclose(residuals, 0.0)
        assert total == 0.0

    def test_residuals_non_negative(self, model42, dataset42):
        for s in dataset42.split_samples("test")[:10]:
            residuals, total = reconstruction_error(model42, s.features)
            assert (residuals >= 0).all()
            assert total >= 0

    def test_anomalous_error_exceeds_normal(self, model42, dataset42):
        test = dataset42.split_samples("test")
        normal_mean = np.mean(
            [reconstruction_error(model42, s.features)[1] for s in test if s.label == NORMAL]
        )
        anomalous_mean = np.mean(
            [reconstruction_error(model42, s.features)[1] for s in test if s.label == ANOMALY]
        )
        assert anomalous_mean > normal_mean

    def test_length_mismatch(self, model42):
        with pytest.raises(DetectorError):
            reconstruction_error(model42, np.zeros(5))


class TestCalibration:
    def test_perfect_separation_gives_f1_one(self):
        model = score_model()
        val = [make_sample([0.1], i) for i in range(3)] + [
            make_sample([2.0], 10 + i, label=ANOMALY) for i in range(3)
        ]
        tau = calibrate_threshold(model, val)
        assert tau == pytest.approx(4.0)
        calibrated = detectors.calibrate(model, val)
        assert all(detect(calibrated, s.features) == s.label for s in val)

    def test_all_scores_equal_flags_everything(self):
        model = score_model()
        val = [make_sample([1.0], 0), make_sample([1.0], 1, label=ANOMALY)]
        tau = calibrate_threshold(model, val)
        assert tau == pytest.approx(1.0)
        calibrated = detectors.calibrate(model, val)
        assert detect(calibrated, np.array([1.0])) == ANOMALY

    def test_tie_breaks_toward_smaller_tau(self):
        # scores: anomalies {1, 5}, normal {1}; tau=1 and tau=5 both give F1=0.8
        model = score_model()
        val = [
            make_sample([1.0], 0, label=ANOMALY),
            make_sample([np.sqrt(5.0)], 1, label=ANOMALY),
            make_sample([1.0], 2),
        ]
        tau = calibrate_threshold(model, val)
        assert tau == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 1.0, 1.5, 3.0, np.inf, np.nan]),
                st.booleans(),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_best_threshold_matches_brute_force_scan(self, pairs):
        # Few distinct scores, so ties are common; the reference is the
        # per-candidate scan that the sort-and-suffix-sum search replaced.
        scores = np.array([p[0] for p in pairs])
        truth = np.array([p[1] for p in pairs])
        best_tau, best_f1 = None, -1.0
        for tau in sorted({float(v) for v in scores if not np.isnan(v)}):
            pred = scores >= tau
            tp = int(np.sum(pred & truth))
            fp = int(np.sum(pred & ~truth))
            fn = int(np.sum(~pred & truth))
            if tp == 0:
                continue
            recall = tp / (tp + fn)
            precision = tp / (tp + fp)
            f1 = 2 * recall * precision / (recall + precision)
            if f1 > best_f1:
                best_f1, best_tau = f1, tau
        if best_tau is None:
            with pytest.raises(DetectorError):
                detectors._best_f1_threshold(scores, truth)
        else:
            assert detectors._best_f1_threshold(scores, truth) == best_tau

    def test_single_label_validation_rejected(self):
        model = score_model()
        with pytest.raises(DetectorError):
            calibrate_threshold(model, [make_sample([1.0], i) for i in range(4)])

    def test_seed42_validation_f1_in_expected_band(self, model42, dataset42):
        val = dataset42.split_samples("validation")
        preds = [detect(model42, s.features) for s in val]
        tp = sum(p == t.label == ANOMALY for p, t in zip(preds, val))
        fp = sum(p == ANOMALY and t.label == NORMAL for p, t in zip(preds, val))
        fn = sum(p == NORMAL and t.label == ANOMALY for p, t in zip(preds, val))
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert 0.8 <= f1 <= 1.0


class TestDetect:
    def test_uncalibrated_model_rejected(self, dataset42):
        model = score_model(threshold=None)
        with pytest.raises(DetectorError, match="not calibrated"):
            detect(model, np.array([1.0]))

    def test_all_means_vector_is_normal(self, model42, dataset42):
        assert detect(model42, dataset42.stats.mean.copy()) == NORMAL

    def test_high_variance_injection_detected(self, model42, dataset42):
        # An anomalous sample whose injection hit a top-variance sensor.
        stds = dataset42.stats.std
        threshold_std = np.quantile(stds, 0.75)
        hit = next(
            s
            for s in dataset42.split_samples("test")
            if s.label == ANOMALY
            and any(stds[i] >= threshold_std for i in s.injected)
        )
        assert detect(model42, hit.features) == ANOMALY

    def test_recall_on_test_split(self, model42, dataset42):
        test = dataset42.split_samples("test")
        flagged = sum(
            detect(model42, s.features) == ANOMALY
            for s in test
            if s.label == ANOMALY
        )
        total = sum(s.label == ANOMALY for s in test)
        assert flagged / total >= 0.9


class TestStandardizationConsistency:
    def test_power_of_two_rescale_keeps_decisions(self, model42, dataset42):
        # x' = 4x with stats recomputed in the same units: standardized values
        # are bit-identical (exact float scaling), so decisions cannot move.
        from dataclasses import replace

        scale = 4.0
        stats = model42.input_stats
        scaled_stats = FeatureStats(
            mean=stats.mean * scale, std=stats.std * scale, n=stats.n, split=stats.split
        )
        scaled_model = replace(model42, input_stats=scaled_stats)
        for s in dataset42.split_samples("test")[:50]:
            assert detect(model42, s.features) == detect(
                scaled_model, s.features * scale
            )


class TestSelectors:
    def test_reference_selector_hand_ranked(self):
        sel = reference_selector(np.array([0.0, 5.0, -7.0]), m=2)
        assert sel.ranked == (2, 1)
        assert sel.source == SOURCE_REFERENCE

    def test_m_larger_than_length(self):
        sel = reference_selector(np.array([1.0, -3.0]), m=10)
        assert sel.ranked == (1, 0)

    def test_tie_breaks_by_lower_index(self):
        z = np.zeros(12)
        z[3] = 2.0
        z[9] = -2.0
        sel = reference_selector(z, m=2)
        assert sel.ranked == (3, 9)

    def test_m_must_be_positive(self):
        with pytest.raises(DetectorError):
            reference_selector(np.array([1.0]), m=0)

    def test_llm_selection_matches_reference(self, dataset42):
        agent = agents.AgentKind(agents.REFERENCE_RULE)
        cache = agents.ResponseCache()
        for s in dataset42.split_samples("test")[:40]:
            got = llm_select_features(
                s, dataset42.stats, dataset42.layout, agent, cache=cache, m=8
            )
            want = reference_selector(zscores(s.features, dataset42.stats), 8, s.id)
            assert got.ranked == want.ranked

    def test_misspelled_sensor_dropped(self, dataset42, monkeypatch):
        sample = dataset42.split_samples("test")[0]

        def fake_complete(prompt, agent, endpoint=None, cache=None):
            return "Pf_7\nNot_A_Sensor\nQ_3\n"

        monkeypatch.setattr(agents, "complete", fake_complete)
        sel = llm_select_features(
            sample, dataset42.stats, dataset42.layout,
            agents.AgentKind(agents.REFERENCE_RULE),
        )
        names = [dataset42.layout.entries[i].name for i in sel.ranked]
        assert names == ["Pf_7", "Q_3"]

    def test_unreachable_endpoint_falls_back_to_full(self, dataset42):
        sample = dataset42.split_samples("test")[0]
        endpoint = agents.EndpointConfig(
            base_url="http://127.0.0.1:1",  # nothing listens here
            model_name="m",
            timeout=0.2,
            retries=0,
        )
        sel = llm_select_features(
            sample, dataset42.stats, dataset42.layout,
            agents.AgentKind(agents.HTTP_ENDPOINT), endpoint=endpoint,
        )
        assert sel.source == SOURCE_FULL
        assert sel.ranked == ()

    def test_empty_reply_falls_back_to_full(self, dataset42, monkeypatch):
        sample = dataset42.split_samples("test")[0]
        monkeypatch.setattr(agents, "complete", lambda *a, **k: "nothing useful\n")
        sel = llm_select_features(
            sample, dataset42.stats, dataset42.layout,
            agents.AgentKind(agents.REFERENCE_RULE),
        )
        assert sel.source == SOURCE_FULL


class TestHybrid:
    def test_full_selection_reduces_to_detect(self, model42, dataset42):
        full = FeatureSelection(sample_id=-1, ranked=(), source=SOURCE_FULL)
        for s in dataset42.split_samples("test")[:30]:
            assert hybrid_detect(
                model42, full, model42.threshold, s.features
            ) == detect(model42, s.features)

    def test_injected_selection_flags_anomaly(self, model42, dataset42):
        tau_h = calibrate_hybrid_threshold(
            model42, dataset42.split_samples("validation"), dataset42.stats, m=8
        )
        anomalous = [
            s for s in dataset42.split_samples("test") if s.label == ANOMALY
        ]
        hits = 0
        for s in anomalous:
            sel = FeatureSelection(
                sample_id=s.id, ranked=tuple(s.injected), source=SOURCE_REFERENCE
            )
            hits += hybrid_detect(model42, sel, tau_h, s.features) == ANOMALY
        assert hits / len(anomalous) >= 0.9

    def test_low_residual_selection_stays_normal(self, model42, dataset42):
        tau_h = calibrate_hybrid_threshold(
            model42, dataset42.split_samples("validation"), dataset42.stats, m=8
        )
        normal = next(
            s for s in dataset42.split_samples("test") if s.label == NORMAL
        )
        residuals, _ = reconstruction_error(model42, normal.features)
        quiet = tuple(int(i) for i in np.argsort(residuals)[:8])
        sel = FeatureSelection(sample_id=normal.id, ranked=quiet, source=SOURCE_REFERENCE)
        assert hybrid_detect(model42, sel, tau_h, normal.features) == NORMAL

    def test_empty_non_full_selection_rejected(self, model42, dataset42):
        bad = FeatureSelection(sample_id=0, ranked=(), source=SOURCE_REFERENCE)
        with pytest.raises(DetectorError):
            hybrid_score(model42, bad, dataset42.stats.mean)

    def test_hybrid_dominance_with_reference_selection(self, model42, dataset42):
        """Mirrors the performance-lift direction: hybrid F1 >= standalone F1."""
        from gridsigma import evalkit

        test = dataset42.split_samples("test")
        tau_h = calibrate_hybrid_threshold(
            model42, dataset42.split_samples("validation"), dataset42.stats, m=8
        )
        standalone = [detect(model42, s.features) for s in test]
        hybrid = [
            hybrid_detect(
                model42,
                reference_selector(zscores(s.features, dataset42.stats), 8, s.id),
                tau_h,
                s.features,
            )
            for s in test
        ]
        truths = [s.label for s in test]
        f1_standalone = evalkit.metrics(evalkit.confusion(standalone, truths)[0]).f1
        f1_hybrid = evalkit.metrics(evalkit.confusion(hybrid, truths)[0]).f1
        assert f1_hybrid >= f1_standalone


class TestPersistence:
    def test_model_json_round_trip(self, model42):
        text = model_to_json(model42)
        again = model_from_json(text)
        assert again.layer_dims == model42.layer_dims
        assert again.threshold == model42.threshold
        assert again.train_seed == model42.train_seed
        for a, b in zip(again.weights, model42.weights):
            assert np.array_equal(a, b)
        for a, b in zip(again.biases, model42.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(again.input_stats.mean, model42.input_stats.mean)
        assert model_to_json(again) == text
