import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_scoring
import legacy_training
from gridsigma import detectors
from gridsigma.detectors import (
    DetectorModel,
    Hyper,
    calibrate_hybrid_threshold,
    calibrate_threshold,
    detect,
    hybrid_scores,
    loss_and_gradients,
    model_from_json,
    model_to_json,
    reconstruction_error,
    train_autoencoder,
)
from gridsigma.errors import DetectorError, PromptError
from gridsigma.promptkit import HYBRID_SELECT, PromptConfig
from gridsigma.ruleoracle import top_abs_z
from gridsigma.scenario import (
    ANOMALY,
    NORMAL,
    FeatureStats,
    Sample,
    compute_stats,
    zscores,
)


def matrix(samples):
    return np.stack([s.features for s in samples])


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


def truth(samples):
    return np.array([s.label == ANOMALY for s in samples])


def validation(dataset):
    """The validation split's feature matrix and which rows are anomalies."""
    return (dataset.split_features("validation"),
            dataset.anomalous[dataset.split_ids("validation")])


def fit(samples, hyper=Hyper(), **kwargs):
    """Train on all but the last 12 samples, stopping early on those 12, with
    stats over all of them."""
    rows = matrix(samples)
    return train_autoencoder(rows[:-12], hyper, val_normals=rows[-12:],
                             stats=compute_stats(rows, range(len(rows))), **kwargs)


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
        normals = dataset42.split_features("train", NORMAL)[:150]
        val = dataset42.split_features("validation", NORMAL)
        hyper = Hyper(epochs=3)
        a = train_autoencoder(normals, hyper, seed=9, val_normals=val,
                              stats=dataset42.stats)
        b = train_autoencoder(normals, hyper, seed=9, val_normals=val,
                              stats=dataset42.stats)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_different_seeds_differ(self, dataset42):
        normals = dataset42.split_features("train", NORMAL)[:150]
        val = dataset42.split_features("validation", NORMAL)
        hyper = Hyper(epochs=2)
        a = train_autoencoder(normals, hyper, seed=1, val_normals=val,
                              stats=dataset42.stats)
        b = train_autoencoder(normals, hyper, seed=2, val_normals=val,
                              stats=dataset42.stats)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_constant_inputs_reach_zero_loss(self):
        samples = [make_sample(np.full(6, 3.7), sample_id=i) for i in range(120)]
        model = fit(samples, Hyper(epochs=30), seed=0, layer_dims=(6, 4, 2, 4, 6))
        losses = reconstruction_error(model, matrix(samples[:5])).mean(axis=1)
        assert max(losses) < 1e-6

    def test_default_layers_follow_feature_length(self):
        samples = [make_sample(np.full(5, 0.01 * i), sample_id=i) for i in range(120)]
        model = fit(samples, Hyper(epochs=1), seed=0)
        assert model.layer_dims == (5, 32, 8, 32, 5)

    def test_too_few_samples(self):
        samples = [make_sample(np.zeros(6), sample_id=i) for i in range(50)]
        with pytest.raises(DetectorError, match="at least 100"):
            fit(samples, layer_dims=(6, 4, 2, 4, 6))

    def test_divergence_reports_epoch(self):
        # A NaN feature poisons the loss on the first batch.
        values = np.zeros(6)
        samples = [make_sample(values + i * 0.01, sample_id=i) for i in range(120)]
        poisoned = np.zeros(6)
        poisoned[2] = np.nan
        samples[0] = make_sample(poisoned, sample_id=0)
        with pytest.raises(DetectorError, match=r"diverged.*epoch"):
            fit(samples, Hyper(epochs=5), seed=0, layer_dims=(6, 4, 2, 4, 6))

    @pytest.mark.parametrize("settings_, message", [
        (dict(batch=0), "batch must be >= 1"),
        (dict(batch=-5), "batch must be >= 1"),
        (dict(epochs=0), "epochs must be >= 1"),
        (dict(patience=0), "patience must be >= 1"),
        (dict(lr=0.0), "lr must be finite and positive"),
        (dict(lr=-1e-3), "lr must be finite and positive"),
        (dict(lr=float("nan")), "lr must be finite and positive"),
        (dict(lr=float("inf")), "lr must be finite and positive"),
    ], ids=["batch-0", "batch-negative", "epochs-0", "patience-0", "lr-0",
            "lr-negative", "lr-nan", "lr-inf"])
    def test_untrainable_settings_rejected(self, settings_, message):
        with pytest.raises(DetectorError, match=message):
            Hyper(**settings_)

    def test_empty_validation_normals_rejected(self):
        samples = [make_sample(np.full(6, 0.01 * i), sample_id=i) for i in range(120)]
        with pytest.raises(DetectorError, match="val_normals is empty"):
            train_autoencoder(matrix(samples), Hyper(epochs=2), seed=0,
                              val_normals=np.empty((0, 6)),
                              stats=compute_stats(matrix(samples), range(len(samples))),
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

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12),
        st.lists(st.integers(1, 10), min_size=0, max_size=4),
        st.sampled_from(["one row", "full batch", "tail batch"]),
        st.integers(0, 2**32 - 1),
    )
    def test_flat_buffer_matches_reference(self, width, hidden, rows, seed):
        """Gradients written into one flat vector equal the reference's bits."""
        dims = (width, *hidden, width)
        rng = np.random.default_rng(seed)
        weights, biases = detectors._init_params(dims, rng)
        for b in biases:
            b[:] = rng.normal(size=b.shape)
        n_rows = {"one row": 1, "full batch": 32, "tail batch": 17}[rows]
        x = rng.normal(size=(n_rows, width))
        x_before = x.copy()
        size = sum(w.size + b.size for w, b in zip(weights, biases))
        g = np.full(size, np.nan)  # a slot left unwritten stays NaN
        loss, grads_w, grads_b = loss_and_gradients(x, weights, biases, out=g)
        assert np.array_equal(x, x_before)  # the batch is read, never written
        ref_loss, ref_w, ref_b = legacy_training.loss_and_gradients(x, weights, biases)
        assert loss == ref_loss
        assert np.array_equal(g, detectors._flat(ref_w, ref_b))
        for got, want in zip(grads_w + grads_b, ref_w + ref_b):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert got.base is g
        alloc_loss, alloc_w, alloc_b = loss_and_gradients(x, weights, biases)
        assert alloc_loss == ref_loss
        assert np.array_equal(detectors._flat(alloc_w, alloc_b), g)


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
            # batch > n: one partial batch per epoch
            (Hyper(lr=0.02, batch=500, epochs=8, patience=8), False),
            # n % batch == 0: no tail batch
            (Hyper(lr=0.05, batch=40, epochs=40, patience=2), True),
        ],
    )
    def test_bit_identical_to_per_layer_adam(self, hyper, stops_early):
        dims = (6, 4, 2, 4, 6)
        rng = np.random.default_rng(5)
        train = [make_sample(rng.normal(size=6), sample_id=i) for i in range(120)]
        val = [make_sample(rng.normal(size=6), sample_id=200 + i) for i in range(30)]
        stats = unit_stats(6)
        model = train_autoencoder(
            matrix(train), hyper, seed=3, val_normals=matrix(val), layer_dims=dims,
            stats=stats,
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
        residuals = reconstruction_error(model, np.array([[1.0, -2.0, 0.5]]))
        assert residuals.shape == (1, 3)
        assert (residuals == 0.0).all()

    def test_residuals_non_negative(self, model42, dataset42):
        residuals = reconstruction_error(model42, matrix(dataset42.split_samples("test")))
        assert residuals.shape == (200, 68)
        assert (residuals >= 0).all()

    def test_anomalous_error_exceeds_normal(self, model42, dataset42):
        test = dataset42.split_samples("test")
        scores = reconstruction_error(model42, matrix(test)).mean(axis=1)
        truth = np.array([s.label == ANOMALY for s in test])
        assert scores[truth].mean() > scores[~truth].mean()

    def test_length_mismatch(self, model42):
        with pytest.raises(DetectorError, match=r"\(1, 5\)"):
            reconstruction_error(model42, np.zeros((1, 5)))

    def test_vector_refused(self, model42, dataset42):
        # A split is scored as one (n, d) matrix; a lone row is no such matrix.
        with pytest.raises(DetectorError, match=r"\(68,\)"):
            reconstruction_error(model42, dataset42.split_samples("test")[0].features)


class TestCalibration:
    def test_perfect_separation_gives_f1_one(self):
        model = score_model()
        val = [make_sample([0.1], i) for i in range(3)] + [
            make_sample([2.0], 10 + i, label=ANOMALY) for i in range(3)
        ]
        tau = calibrate_threshold(model, matrix(val), truth(val))
        assert tau == pytest.approx(4.0)
        calibrated = detectors.calibrate(model, matrix(val), truth(val))
        assert detect(calibrated, matrix(val)) == [s.label for s in val]

    def test_all_scores_equal_flags_everything(self):
        model = score_model()
        val = [make_sample([1.0], 0), make_sample([1.0], 1, label=ANOMALY)]
        tau = calibrate_threshold(model, matrix(val), truth(val))
        assert tau == pytest.approx(1.0)
        calibrated = detectors.calibrate(model, matrix(val), truth(val))
        assert detect(calibrated, np.array([[1.0]])) == [ANOMALY]

    def test_tie_breaks_toward_smaller_tau(self):
        # scores: anomalies {1, 5}, normal {1}; tau=1 and tau=5 both give F1=0.8
        model = score_model()
        val = [
            make_sample([1.0], 0, label=ANOMALY),
            make_sample([np.sqrt(5.0)], 1, label=ANOMALY),
            make_sample([1.0], 2),
        ]
        tau = calibrate_threshold(model, matrix(val), truth(val))
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
            calibrate_threshold(model, np.ones((4, 1)), np.zeros(4, dtype=bool))

    def test_seed42_validation_f1_in_expected_band(self, model42, dataset42):
        val = dataset42.split_samples("validation")
        preds = detect(model42, matrix(val))
        tp = sum(p == t.label == ANOMALY for p, t in zip(preds, val))
        fp = sum(p == ANOMALY and t.label == NORMAL for p, t in zip(preds, val))
        fn = sum(p == NORMAL and t.label == ANOMALY for p, t in zip(preds, val))
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert 0.8 <= f1 <= 1.0


class TestDetect:
    def test_uncalibrated_model_rejected(self, dataset42):
        model = score_model(threshold=None)
        with pytest.raises(DetectorError, match="not calibrated"):
            detect(model, np.array([[1.0]]))

    def test_all_means_vector_is_normal(self, model42, dataset42):
        assert detect(model42, dataset42.stats.mean[None, :]) == [NORMAL]

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
        assert detect(model42, hit.features[None, :]) == [ANOMALY]

    def test_recall_on_test_split(self, model42, dataset42):
        anomalous = [s for s in dataset42.split_samples("test") if s.label == ANOMALY]
        flagged = detect(model42, matrix(anomalous)).count(ANOMALY)
        assert flagged / len(anomalous) >= 0.9


class TestNonFiniteInput:
    """Unrefused, a NaN feature scores as "normal" and an infinite one as
    "anomaly" whatever the threshold."""

    @pytest.fixture(params=[np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def bad_features(self, request, dataset42):
        features = matrix(dataset42.split_samples("test")[:3])
        features[1, 5] = request.param
        return features

    def test_reconstruction_error_refuses(self, model42, bad_features):
        with pytest.raises(DetectorError, match="non-finite"):
            reconstruction_error(model42, bad_features)

    def test_detect_refuses(self, model42, bad_features):
        with pytest.raises(DetectorError, match="non-finite"):
            detect(model42, bad_features)

    @pytest.mark.parametrize("selection", [(), (1, 2), (5,)],
                             ids=["full", "other-sensors", "that-sensor"])
    def test_hybrid_refuses(self, model42, bad_features, selection):
        with pytest.raises(DetectorError, match="non-finite"):
            hybrid_scores(model42, bad_features, [selection] * len(bad_features))


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
        features = matrix(dataset42.split_samples("test")[:50])
        assert detect(model42, features) == detect(scaled_model, features * scale)


class TestSelectors:
    def test_reference_selector_hand_ranked(self):
        assert top_abs_z(np.abs([0.0, 5.0, -7.0]), 2).tolist() == [2, 1]

    def test_m_larger_than_length(self):
        assert top_abs_z(np.abs([1.0, -3.0]), 10).tolist() == [1, 0]

    def test_tie_breaks_by_lower_index(self):
        z = np.zeros(12)
        z[3] = 2.0
        z[9] = -2.0
        assert top_abs_z(np.abs(z), 2).tolist() == [3, 9]

    def test_m_must_be_positive(self):
        with pytest.raises(PromptError, match="m_select must be >= 1"):
            PromptConfig(paradigm=HYBRID_SELECT, m_select=0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda d: st.tuples(
            st.lists(st.lists(st.sampled_from([0.0, -0.0, 0.5, 2.0, 3.0]),
                              min_size=d, max_size=d), min_size=1, max_size=5),
            st.integers(1, d + 3),
        ))
    )
    def test_matrix_rows_match_sorted_reference(self, rows_m):
        # Few distinct values, so ties (and 0.0 against -0.0) are common.
        rows, m = rows_m
        want = [legacy_scoring.top_abs_z(row, m) for row in rows]
        assert top_abs_z(np.array(rows), m).tolist() == want
        assert [top_abs_z(row, m).tolist() for row in rows] == want


class TestHybrid:
    def test_full_selection_reduces_to_detect(self, model42, dataset42):
        features = matrix(dataset42.split_samples("test"))
        scores = hybrid_scores(model42, features, [()] * len(features))
        assert np.array_equal(scores, reconstruction_error(model42, features).mean(axis=1))
        labels = [ANOMALY if v >= model42.threshold else NORMAL for v in scores]
        assert labels == detect(model42, features)

    def test_injected_selection_flags_anomaly(self, model42, dataset42):
        tau_h = calibrate_hybrid_threshold(
            model42, *validation(dataset42), dataset42.stats, m=8
        )
        anomalous = [
            s for s in dataset42.split_samples("test") if s.label == ANOMALY
        ]
        scores = hybrid_scores(model42, matrix(anomalous), [s.injected for s in anomalous])
        assert np.mean(scores >= tau_h) >= 0.9

    def test_low_residual_selection_stays_normal(self, model42, dataset42):
        tau_h = calibrate_hybrid_threshold(
            model42, *validation(dataset42), dataset42.stats, m=8
        )
        normal = next(
            s for s in dataset42.split_samples("test") if s.label == NORMAL
        )
        features = normal.features[None, :]
        quiet = np.argsort(reconstruction_error(model42, features)[0])[:8]
        assert hybrid_scores(model42, features, [quiet])[0] < tau_h

    def test_selection_count_must_match_rows(self, model42, dataset42):
        with pytest.raises(DetectorError, match="2 selections for 1 feature rows"):
            hybrid_scores(model42, dataset42.stats.mean[None, :], [(0,), (1,)])

    def test_hybrid_dominance_with_reference_selection(self, model42, dataset42):
        """Mirrors the performance-lift direction: hybrid F1 >= standalone F1."""
        from gridsigma import evalkit

        test = dataset42.split_samples("test")
        tau_h = calibrate_hybrid_threshold(
            model42, *validation(dataset42), dataset42.stats, m=8
        )
        features = matrix(test)
        standalone = detect(model42, features)
        selections = top_abs_z(np.abs(zscores(features, dataset42.stats)), 8)
        hybrid = [
            ANOMALY if v >= tau_h else NORMAL
            for v in hybrid_scores(model42, features, selections)
        ]
        truths = [s.label for s in test]
        f1_standalone = evalkit.metrics(evalkit.confusion(standalone, truths)[0]).f1
        f1_hybrid = evalkit.metrics(evalkit.confusion(hybrid, truths)[0]).f1
        assert f1_hybrid >= f1_standalone


class TestAgainstPerSampleScoring:
    """One forward pass per split against one per sample (legacy_scoring):
    a mean residual may move in its last bits, so thresholds may move by a
    few ulp, but no label may change on the seed-42 splits."""

    ULPS = 4

    def test_detector_threshold_and_labels(self, model42, dataset42):
        from dataclasses import replace

        want_tau = legacy_scoring.calibrate_threshold(
            model42, dataset42.split_samples("validation")
        )
        assert abs(model42.threshold - want_tau) <= self.ULPS * np.spacing(want_tau)
        legacy = replace(model42, threshold=want_tau)
        test = dataset42.split_samples("test")
        assert detect(model42, matrix(test)) == [
            legacy_scoring.detect(legacy, s.features) for s in test
        ]

    def test_hybrid_threshold_selections_and_labels(self, model42, dataset42):
        from gridsigma import agents, evalkit

        run = evalkit.RunConfig(prompt=PromptConfig(paradigm=HYBRID_SELECT),
                                agent=agents.AgentKind(agents.REFERENCE_RULE))
        _, manifest = evalkit.run_hybrid_experiment(
            run, model42, dataset42, use_reference_selector=True
        )
        want_tau = legacy_scoring.calibrate_hybrid_threshold(
            model42, dataset42.split_samples("validation"), dataset42.stats
        )
        tau = manifest["config"]["tau_hybrid"]
        assert abs(tau - want_tau) <= self.ULPS * np.spacing(want_tau)
        for s, record in zip(dataset42.split_samples("test"), manifest["samples"]):
            ranked = legacy_scoring.top_abs_z(np.abs(zscores(s.features, dataset42.stats)), 8)
            score = legacy_scoring.hybrid_score(model42, ranked, s.features)
            assert record["selection"] == ranked
            assert record["label"] == (ANOMALY if score >= want_tau else NORMAL)


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

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["biases"][1].pop(), "layer 1 bias shape"),
        (lambda doc: doc["biases"].pop(), "4 weights and 3 biases"),
        (lambda doc: doc["weights"][0][3].pop(), "ValueError"),
        (lambda doc: doc["weights"][2].pop(), "layer 2 weight shape"),
        (lambda doc: doc["input_stats"]["mean"].pop(), "input stats hold"),
        (lambda doc: doc.pop("threshold"), "KeyError"),
        (lambda doc: doc["input_stats"].pop("std"), "KeyError"),
        (lambda doc: doc.update(layer_dims=None), "TypeError"),
    ], ids=["short-bias", "missing-bias", "ragged-weight", "short-weight",
            "short-stats", "no-threshold", "no-std", "null-dims"])
    def test_malformed_model_rejected(self, model42, edit, message):
        doc = json.loads(model_to_json(model42))
        edit(doc)
        with pytest.raises(DetectorError, match=message):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["", "{", "[1, 2]", "null"])
    def test_unparseable_model_rejected(self, text):
        with pytest.raises(DetectorError, match="model.json"):
            model_from_json(text)

    def test_bias_shape_checked_at_construction(self):
        with pytest.raises(DetectorError, match="layer 0 bias shape"):
            DetectorModel(
                layer_dims=(3, 3),
                weights=(np.eye(3),),
                biases=(np.zeros(2),),
                input_stats=unit_stats(3),
                threshold=None,
                train_seed=0,
            )


class TestLayering:
    def test_imports_neither_agents_nor_promptkit(self):
        # The detector is purely numeric: agent calls and prompt parsing for
        # hybrid selection happen in evalkit.
        tree = ast.parse(Path(detectors.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):  # from .x import y, from . import y
                imported.add((node.module or "").split(".")[-1])
                imported.update(alias.name for alias in node.names)
        assert imported.isdisjoint({"agents", "promptkit"}), imported
