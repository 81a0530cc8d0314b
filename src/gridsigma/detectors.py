"""Reconstruction-error anomaly detector and selection-gated hybrid scoring.

The detector is a tanh autoencoder trained with mean-squared reconstruction
loss and Adam-style moment updates, written directly in numpy so gradients
are analytic and checkable against finite differences. Inputs are
standardized with a fixed std floor; scoring only ever needs normal data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import MALFORMED_DOCUMENT, DetectorError
from .ruleoracle import top_abs_z
from .scenario import (
    ANOMALY,
    NORMAL,
    FeatureStats,
    stats_from_dict,
    stats_to_dict,
    zscores,
)


@dataclass(frozen=True)
class Hyper:
    lr: float = 1e-3
    batch: int = 32
    epochs: int = 200
    patience: int = 20

    def __post_init__(self):
        for name in ("batch", "epochs", "patience"):
            if getattr(self, name) < 1:
                raise DetectorError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.lr < math.inf:
            raise DetectorError(f"lr must be finite and positive, got {self.lr}")


@dataclass(frozen=True)
class DetectorModel:
    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]  # weights[l]: (dims[l], dims[l+1])
    biases: tuple[np.ndarray, ...]
    input_stats: FeatureStats
    threshold: float | None  # anomaly cutoff on mean squared residual
    train_seed: int

    def __post_init__(self):
        dims = self.layer_dims
        if not len(self.weights) == len(self.biases) == len(dims) - 1:
            raise DetectorError(
                f"{len(self.weights)} weights and {len(self.biases)} biases "
                f"for {len(dims) - 1} layers"
            )
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[l], dims[l + 1]):
                raise DetectorError(
                    f"layer {l} weight shape {w.shape} does not match dims"
                )
            if b.shape != (dims[l + 1],):
                raise DetectorError(
                    f"layer {l} bias shape {b.shape} does not match dims"
                )
        if self.input_stats.mean.shape != (dims[0],):
            raise DetectorError(
                f"input stats hold {self.input_stats.mean.shape} values for "
                f"{dims[0]} inputs"
            )
        # A NaN or infinite parameter scores every input as "normal".
        for name, values in (
            ("weights", self.weights),
            ("biases", self.biases),
            ("input stats", (self.input_stats.mean, self.input_stats.std)),
        ):
            if not all(np.isfinite(v).all() for v in values):
                raise DetectorError(f"{name} hold a non-finite value")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise DetectorError(f"threshold {self.threshold} is not finite")


def _init_params(dims: tuple[int, ...], rng: np.random.Generator):
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _flat(weights, biases) -> np.ndarray:
    """One vector of all parameters, ordered w0, b0, w1, b1, ..."""
    return np.concatenate([p.ravel() for pair in zip(weights, biases) for p in pair])


def _layer_views(theta: np.ndarray, dims: tuple[int, ...]):
    """Per-layer weight and bias views into a vector laid out as ``_flat``'s."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        stop = start + fan_in * fan_out
        weights.append(theta[start:stop].reshape(fan_in, fan_out))
        biases.append(theta[stop : stop + fan_out])
        start = stop + fan_out
    return weights, biases


def _forward(x: np.ndarray, weights, biases):
    """Returns activations per layer; tanh on hidden layers, identity output."""
    acts = [x]
    a = x
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w
        a += b
        if l != last:
            np.tanh(a, out=a)
        acts.append(a)
    return acts


def loss_and_gradients(x: np.ndarray, weights, biases, out=None):
    """Mean squared reconstruction loss over the batch, with gradients.

    Loss = mean over (batch, feature) of (x_hat - x)^2. The gradients are
    written into ``out``, a float64 vector laid out as ``_flat``'s (one is
    allocated when not given); the returned per-layer gradients are views
    into it.
    """
    dims = (weights[0].shape[0], *(w.shape[1] for w in weights))
    if out is None:
        out = np.empty(sum(w.size + b.size for w, b in zip(weights, biases)))
    grads_w, grads_b = _layer_views(out, dims)
    acts = _forward(x, weights, biases)
    # Every array in acts but x belongs to this call, so the backward pass
    # works in them in place; each step rounds as the expression beside it.
    delta = acts[-1]
    delta -= x  # x_hat - x
    loss = float((delta * delta).sum() / delta.size)  # np.mean(delta**2)
    delta *= 2.0
    delta /= delta.size  # d loss / d x_hat = 2.0 * (x_hat - x) / size
    last = len(weights) - 1
    for l in range(last, -1, -1):  # from the output layer back
        if l != last:
            tanh_grad = acts[l + 1]  # not read again
            np.multiply(tanh_grad, tanh_grad, out=tanh_grad)
            np.subtract(1.0, tanh_grad, out=tanh_grad)
            delta *= tanh_grad  # delta * (1.0 - a**2), tanh'
        np.matmul(acts[l].T, delta, out=grads_w[l])
        np.add.reduce(delta, axis=0, out=grads_b[l])
        if l:
            delta = delta @ weights[l].T
    return loss, grads_w, grads_b


def _mean_loss(x: np.ndarray, weights, biases) -> float:
    x_hat = _forward(x, weights, biases)[-1]
    return float(np.mean((x_hat - x) ** 2))


def train_autoencoder(
    normals: np.ndarray,
    hyper: Hyper = Hyper(),
    seed: int = 42,
    *,
    val_normals: np.ndarray,
    stats: FeatureStats,
    layer_dims: "tuple[int, ...] | None" = None,
) -> DetectorModel:
    """Fit the autoencoder on normal samples only, given as the (n, d)
    feature matrix ``normals``, one row per sample.

    Inputs are standardized by ``stats``, the train-split stats that prompts
    share as their z-score basis. Early stopping watches the mean loss on
    the held-out rows ``val_normals`` with the configured patience, keeping
    the best weights. The layers are (d, 32, 8, 32, d) for d features unless
    layer_dims is given. Deterministic in seed.
    """
    normals = np.asarray(normals, dtype=float)
    val_normals = np.asarray(val_normals, dtype=float)
    if len(normals) < 100:
        raise DetectorError(f"need at least 100 normal samples, got {len(normals)}")
    d = normals.shape[1]
    if layer_dims is None:
        layer_dims = (d, 32, 8, 32, d)
    if layer_dims[0] != layer_dims[-1]:
        raise DetectorError("autoencoder input and output dims must match")
    if d != layer_dims[0]:
        raise DetectorError(
            f"feature length {d} does not match layer_dims[0] = {layer_dims[0]}"
        )

    if not len(val_normals):
        raise DetectorError("val_normals is empty; early stopping needs held-out normals")
    x_train = zscores(normals, stats)
    x_val = zscores(val_normals, stats)

    rng = np.random.default_rng(np.random.SeedSequence([seed, 10]))
    theta = _flat(*_init_params(layer_dims, rng))
    weights, biases = _layer_views(theta, layer_dims)  # updated in place via theta

    # Gradient, Adam moments and two scratch vectors, all laid out as theta;
    # every step writes into these.
    g = np.empty_like(theta)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    t1, t2 = np.empty_like(theta), np.empty_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    best_val = np.inf
    best_theta = theta.copy()
    since_best = 0

    n = x_train.shape[0]
    shuffled = np.empty_like(x_train)  # this epoch's rows; batches are slices
    for epoch in range(hyper.epochs):
        # mode="clip" writes straight into out ("raise" buffers it first);
        # every index of a permutation is in range, so the rows are the same.
        np.take(x_train, rng.permutation(n), axis=0, out=shuffled, mode="clip")
        for start in range(0, n, hyper.batch):
            batch = shuffled[start : start + hyper.batch]
            loss, _, _ = loss_and_gradients(batch, weights, biases, out=g)
            if not math.isfinite(loss):
                raise DetectorError(f"training diverged (loss NaN) at epoch {epoch}")
            step += 1
            # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g**2
            m *= beta1
            np.multiply(g, 1 - beta1, out=t1)
            m += t1
            v *= beta2
            np.multiply(g, g, out=t1)
            t1 *= 1 - beta2
            v += t1
            # theta -= lr * m_hat / (sqrt(v_hat) + eps), with the bias-corrected
            # m_hat = m / (1 - beta1**step) and v_hat = v / (1 - beta2**step)
            np.divide(m, 1.0 - beta1**step, out=t1)
            t1 *= hyper.lr
            np.divide(v, 1.0 - beta2**step, out=t2)
            np.sqrt(t2, out=t2)
            t2 += eps
            t1 /= t2
            theta -= t1
        val_loss = _mean_loss(x_val, weights, biases)
        if val_loss < best_val:
            best_val = val_loss
            best_theta = theta.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= hyper.patience:
                break

    best_weights, best_biases = _layer_views(best_theta, layer_dims)
    return DetectorModel(
        layer_dims=tuple(layer_dims),
        weights=tuple(best_weights),
        biases=tuple(best_biases),
        input_stats=stats,
        threshold=None,
        train_seed=seed,
    )


def reconstruction_error(model: DetectorModel, features: np.ndarray) -> np.ndarray:
    """Squared residuals on the standardized input of an (n, d) feature
    matrix, one row per sample, from one forward pass.

    A NaN or infinite feature raises DetectorError: its residual would
    compare as "normal" (NaN) or always as "anomaly" (inf).
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != model.layer_dims[0]:
        raise DetectorError(
            f"features of shape {features.shape} are not rows of the model's "
            f"{model.layer_dims[0]} inputs"
        )
    if not np.isfinite(features).all():
        raise DetectorError("feature matrix holds a non-finite value")
    x = zscores(features, model.input_stats)
    residuals = _forward(x, model.weights, model.biases)[-1]
    residuals -= x
    residuals *= residuals
    return residuals


def _best_f1_threshold(scores: np.ndarray, truth: np.ndarray) -> float:
    """Smallest tau maximizing F1 of the inclusive rule (score >= tau).

    Candidates are the distinct scores, ascending; a NaN score is never
    flagged. Suffix sums over the candidates count, per tau, the scores and
    the anomalies at or above it.
    """
    truth = np.asarray(truth, dtype=bool)
    known = ~np.isnan(scores)
    taus, group = np.unique(scores[known], return_inverse=True)
    flagged = np.cumsum(np.bincount(group, minlength=len(taus))[::-1])[::-1]
    tp = np.cumsum(
        np.bincount(group[truth[known]], minlength=len(taus))[::-1]
    )[::-1]
    fp = flagged - tp
    fn = int(np.sum(truth)) - tp
    usable = tp > 0
    if not usable.any():
        raise DetectorError("no usable threshold on this validation split")
    tp, fp, fn, taus = tp[usable], fp[usable], fn[usable], taus[usable]
    recall = tp / (tp + fn)
    precision = tp / (tp + fp)
    f1 = 2 * recall * precision / (recall + precision)
    return float(taus[np.argmax(f1)])  # argmax keeps the first, smallest tau


def _check_both_labels(anomalous: np.ndarray) -> np.ndarray:
    anomalous = np.asarray(anomalous, dtype=bool)
    if anomalous.all() or not anomalous.any():
        raise DetectorError("validation split must contain both labels")
    return anomalous


def calibrate_threshold(model: DetectorModel, features: np.ndarray,
                        anomalous: np.ndarray) -> float:
    """Threshold maximizing F1 of (score >= tau) on the validation split:
    its (n, d) feature matrix and whether each row is an anomaly.

    Ties go to the smaller tau. Requires both labels present.
    """
    anomalous = _check_both_labels(anomalous)
    return _best_f1_threshold(reconstruction_error(model, features).mean(axis=1),
                              anomalous)


def calibrate(model: DetectorModel, features: np.ndarray,
              anomalous: np.ndarray) -> DetectorModel:
    return replace(model, threshold=calibrate_threshold(model, features, anomalous))


def detect(model: DetectorModel, features: np.ndarray) -> list[str]:
    """Per row of an (n, d) feature matrix: 'anomaly' iff its mean squared
    residual reaches the calibrated cutoff."""
    if model.threshold is None:
        raise DetectorError("model is not calibrated (threshold unset)")
    scores = reconstruction_error(model, features).mean(axis=1)
    return [ANOMALY if score >= model.threshold else NORMAL for score in scores]


# --------------------------------------------------------------------------
# Hybrid scoring


def hybrid_scores(model: DetectorModel, features: np.ndarray, selections) -> np.ndarray:
    """Per row of an (n, d) feature matrix, the mean squared residual over
    that row's selected sensors (a sequence of indices; empty selects all)."""
    residuals = reconstruction_error(model, features)
    if len(selections) != len(residuals):
        raise DetectorError(
            f"{len(selections)} selections for {len(residuals)} feature rows"
        )
    mask = np.zeros(residuals.shape, dtype=bool)
    for row, selected in zip(mask, selections):
        row[list(selected) or slice(None)] = True
    return np.where(mask, residuals, 0.0).sum(axis=1) / mask.sum(axis=1)


def calibrate_hybrid_threshold(
    model: DetectorModel,
    features: np.ndarray,
    anomalous: np.ndarray,
    stats: FeatureStats,
    m: int = 8,
) -> float:
    """Hybrid cutoff fitted on the validation split's scores (as for
    calibrate_threshold), each row scored over its m largest |z| (the
    reference selection)."""
    anomalous = _check_both_labels(anomalous)
    selections = top_abs_z(np.abs(zscores(features, stats)), m)
    return _best_f1_threshold(hybrid_scores(model, features, selections), anomalous)


# --------------------------------------------------------------------------
# Model persistence


def model_to_json(model: DetectorModel) -> str:
    doc = {
        "layer_dims": list(model.layer_dims),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "input_stats": stats_to_dict(model.input_stats),
        "threshold": model.threshold,
        "train_seed": model.train_seed,
    }
    return json.dumps(doc, indent=2) + "\n"


def model_from_json(text: str) -> DetectorModel:
    try:
        doc = json.loads(text)
        return DetectorModel(
            layer_dims=tuple(int(d) for d in doc["layer_dims"]),
            weights=tuple(np.asarray(w, dtype=float) for w in doc["weights"]),
            biases=tuple(np.asarray(b, dtype=float) for b in doc["biases"]),
            input_stats=stats_from_dict(doc["input_stats"]),
            threshold=None if doc["threshold"] is None else float(doc["threshold"]),
            train_seed=int(doc["train_seed"]),
        )
    except MALFORMED_DOCUMENT as exc:
        raise DetectorError(f"model.json: {type(exc).__name__}: {exc}") from None
