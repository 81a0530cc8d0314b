"""Reconstruction-error anomaly detector and the LLM-gated hybrid pipeline.

The detector is a tanh autoencoder trained with mean-squared reconstruction
loss and Adam-style moment updates, written directly in numpy so gradients
are analytic and checkable against finite differences. Inputs are
standardized with a fixed std floor; scoring only ever needs normal data.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import DetectorError
from . import agents, promptkit
from .grid import FeatureLayout
from .ruleoracle import top_abs_z
from .scenario import (
    ANOMALY,
    FeatureStats,
    Sample,
    compute_stats,
    stats_from_dict,
    stats_to_dict,
    zscores,
)

logger = logging.getLogger(__name__)

SOURCE_LLM = "llm"
SOURCE_REFERENCE = "reference_topz"
SOURCE_FULL = "full"

DEFAULT_DIMS = (68, 32, 8, 32, 68)


@dataclass(frozen=True)
class Hyper:
    lr: float = 1e-3
    batch: int = 32
    epochs: int = 200
    patience: int = 20


@dataclass(frozen=True)
class DetectorModel:
    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]  # weights[l]: (dims[l], dims[l+1])
    biases: tuple[np.ndarray, ...]
    input_stats: FeatureStats
    threshold: float | None  # anomaly cutoff on mean squared residual
    train_seed: int

    def __post_init__(self):
        for l, w in enumerate(self.weights):
            if w.shape != (self.layer_dims[l], self.layer_dims[l + 1]):
                raise DetectorError(
                    f"layer {l} weight shape {w.shape} does not match dims"
                )


@dataclass(frozen=True)
class FeatureSelection:
    sample_id: int
    ranked: tuple[int, ...]
    source: str  # llm | reference_topz | full


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
        z = a @ w + b
        a = z if l == last else np.tanh(z)
        acts.append(a)
    return acts


def loss_and_gradients(x: np.ndarray, weights, biases):
    """Mean squared reconstruction loss over the batch, with gradients.

    Loss = mean over (batch, feature) of (x_hat - x)^2.
    """
    acts = _forward(x, weights, biases)
    diff = acts[-1] - x  # x_hat - x
    loss = float(np.mean(diff**2))
    delta = 2.0 * diff / diff.size  # d loss / d x_hat
    grads_w, grads_b = [], []  # filled from the output layer back
    for l in range(len(weights) - 1, -1, -1):
        if l != len(weights) - 1:
            delta = delta * (1.0 - acts[l + 1] ** 2)  # tanh'
        grads_w.append(acts[l].T @ delta)
        grads_b.append(delta.sum(axis=0))
        delta = delta @ weights[l].T
    return loss, grads_w[::-1], grads_b[::-1]


def _mean_loss(x: np.ndarray, weights, biases) -> float:
    x_hat = _forward(x, weights, biases)[-1]
    return float(np.mean((x_hat - x) ** 2))


def train_autoencoder(
    normals: list[Sample],
    hyper: Hyper = Hyper(),
    seed: int = 42,
    val_normals: "list[Sample] | None" = None,
    layer_dims: tuple[int, ...] = DEFAULT_DIMS,
    stats: "FeatureStats | None" = None,
) -> DetectorModel:
    """Fit the autoencoder on normal samples only.

    Inputs are standardized by the train-split stats when given (the usual
    case, sharing the z-score basis with prompts), else by stats computed
    over the training normals. Early stopping watches the mean loss on
    held-out normals (val_normals, or a deterministic 10% tail of the input
    when not given) with the configured patience, keeping the best weights.
    Deterministic in seed.
    """
    if len(normals) < 100:
        raise DetectorError(f"need at least 100 normal samples, got {len(normals)}")
    if layer_dims[0] != layer_dims[-1]:
        raise DetectorError("autoencoder input and output dims must match")
    if len(normals[0].features) != layer_dims[0]:
        raise DetectorError(
            f"feature length {len(normals[0].features)} does not match "
            f"layer_dims[0] = {layer_dims[0]}"
        )

    if stats is None:
        stats = compute_stats(normals, split="train-normal")
    if val_normals is None:
        holdout = max(1, len(normals) // 10)
        val_normals = normals[-holdout:]
        normals = normals[:-holdout]
    x_train = np.stack([zscores(s.features, stats) for s in normals])
    x_val = np.stack([zscores(s.features, stats) for s in val_normals])

    rng = np.random.default_rng(np.random.SeedSequence([seed, 10]))
    theta = _flat(*_init_params(layer_dims, rng))
    weights, biases = _layer_views(theta, layer_dims)  # updated in place via theta

    m, v = np.zeros_like(theta), np.zeros_like(theta)  # Adam moments over theta
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    best_val = np.inf
    best_theta = theta.copy()
    since_best = 0

    n = x_train.shape[0]
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch):
            batch = x_train[order[start : start + hyper.batch]]
            loss, gw, gb = loss_and_gradients(batch, weights, biases)
            if not np.isfinite(loss):
                raise DetectorError(f"training diverged (loss NaN) at epoch {epoch}")
            step += 1
            g = _flat(gw, gb)
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g**2
            m_hat, v_hat = m / (1.0 - beta1**step), v / (1.0 - beta2**step)
            theta -= hyper.lr * m_hat / (np.sqrt(v_hat) + eps)
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


def reconstruction_error(model: DetectorModel, features: np.ndarray):
    """Per-feature squared residuals on the standardized input, plus the mean."""
    if len(features) != model.layer_dims[0]:
        raise DetectorError(
            f"feature length {len(features)} does not match model input "
            f"{model.layer_dims[0]}"
        )
    x = zscores(np.asarray(features, dtype=float), model.input_stats)
    x_hat = _forward(x[None, :], list(model.weights), list(model.biases))[-1][0]
    residuals = (x_hat - x) ** 2
    return residuals, float(residuals.mean())


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


def calibrate_threshold(model: DetectorModel, validation: list[Sample]) -> float:
    """Threshold maximizing F1 of (score >= tau) on the validation split.

    Ties go to the smaller tau. Requires both labels present.
    """
    labels = {s.label for s in validation}
    if len(labels) < 2:
        raise DetectorError("validation split must contain both labels")
    scores = np.array([reconstruction_error(model, s.features)[1] for s in validation])
    truth = np.array([s.label == ANOMALY for s in validation])
    return _best_f1_threshold(scores, truth)


def calibrate(model: DetectorModel, validation: list[Sample]) -> DetectorModel:
    return replace(model, threshold=calibrate_threshold(model, validation))


def detect(model: DetectorModel, features: np.ndarray) -> str:
    """'anomaly' iff the mean squared residual reaches the calibrated cutoff."""
    if model.threshold is None:
        raise DetectorError("model is not calibrated (threshold unset)")
    _, total = reconstruction_error(model, features)
    return ANOMALY if total >= model.threshold else "normal"


# --------------------------------------------------------------------------
# Feature selection and hybrid scoring


def reference_selector(z: np.ndarray, m: int, sample_id: int = -1) -> FeatureSelection:
    """Indices of the m largest |z|, descending; ties break toward lower index."""
    if m < 1:
        raise DetectorError("m must be >= 1")
    ranked = top_abs_z(np.abs(np.asarray(z, dtype=float)), m)
    return FeatureSelection(
        sample_id=sample_id, ranked=tuple(ranked), source=SOURCE_REFERENCE
    )


def llm_select_features(
    sample: Sample,
    stats: FeatureStats,
    layout: FeatureLayout,
    agent: agents.AgentKind,
    endpoint: "agents.EndpointConfig | None" = None,
    cache: "agents.ResponseCache | None" = None,
    m: int = 8,
    decimals: int = 6,
) -> FeatureSelection:
    """Ask an agent for up to m suspicious sensor names via a selection prompt.

    Unknown names are dropped; an empty or failed reply falls back to
    scoring all features (source='full'), flagged in the run log. Selection
    prompts render with 6 decimals so table rounding cannot reorder the
    |z| ranking.
    """
    config = promptkit.PromptConfig(
        paradigm=promptkit.HYBRID_SELECT,
        variant=promptkit.VARIANT_Z_ONLY,
        m_select=m,
        decimals=decimals,
    )
    bundle = promptkit.render_prompt(sample, stats, config, [], layout)
    try:
        raw = agents.complete(bundle, agent, endpoint, cache)
    except Exception as exc:  # transport and protocol failures alike
        logger.warning("selection for sample %d fell back to full: %s", sample.id, exc)
        return FeatureSelection(sample_id=sample.id, ranked=(), source=SOURCE_FULL)
    ranked: list[int] = []
    for line in raw.splitlines():
        name = line.strip()
        if not name:
            continue
        idx = layout.index_of(name)
        if idx is None or idx in ranked:
            continue
        ranked.append(idx)
        if len(ranked) == m:
            break
    if not ranked:
        logger.warning("selection for sample %d was empty; using full", sample.id)
        return FeatureSelection(sample_id=sample.id, ranked=(), source=SOURCE_FULL)
    return FeatureSelection(sample_id=sample.id, ranked=tuple(ranked), source=SOURCE_LLM)


def hybrid_score(model: DetectorModel, selection: FeatureSelection, features) -> float:
    """Mean squared residual over the selected sensors (all when source=full)."""
    residuals, total = reconstruction_error(model, features)
    if selection.source == SOURCE_FULL:
        return total
    if not selection.ranked:
        raise DetectorError("selection has no ranked sensors and is not 'full'")
    return float(residuals[list(selection.ranked)].mean())


def hybrid_detect(
    model: DetectorModel,
    selection: FeatureSelection,
    tau_h: float,
    features: np.ndarray,
) -> str:
    return ANOMALY if hybrid_score(model, selection, features) >= tau_h else "normal"


def calibrate_hybrid_threshold(
    model: DetectorModel,
    validation: list[Sample],
    stats: FeatureStats,
    m: int = 8,
) -> float:
    """Hybrid cutoff fitted on validation scores under the reference selector."""
    labels = {s.label for s in validation}
    if len(labels) < 2:
        raise DetectorError("validation split must contain both labels")
    scores = []
    truth = []
    for s in validation:
        sel = reference_selector(zscores(s.features, stats), m, sample_id=s.id)
        scores.append(hybrid_score(model, sel, s.features))
        truth.append(s.label == ANOMALY)
    return _best_f1_threshold(np.asarray(scores), np.asarray(truth))


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
    doc = json.loads(text)
    return DetectorModel(
        layer_dims=tuple(int(d) for d in doc["layer_dims"]),
        weights=tuple(np.asarray(w, dtype=float) for w in doc["weights"]),
        biases=tuple(np.asarray(b, dtype=float) for b in doc["biases"]),
        input_stats=stats_from_dict(doc["input_stats"]),
        threshold=None if doc["threshold"] is None else float(doc["threshold"]),
        train_seed=int(doc["train_seed"]),
    )
