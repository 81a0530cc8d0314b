"""Reference version of the detector's scoring: every sample is scored by its
own forward pass, and a selection is ranked by a sort over (-|z|, index).
The package scores a whole split in one forward pass, which may move a mean
residual in its last bits; tests compare its labels and thresholds to these."""

from __future__ import annotations

import numpy as np

from gridsigma import detectors
from gridsigma.scenario import ANOMALY, NORMAL, zscores


def top_abs_z(abs_z, m: int) -> list[int]:
    """Indices of the m largest |z|, descending; ties break toward lower index."""
    return sorted(range(len(abs_z)), key=lambda i: (-abs_z[i], i))[:m]


def reconstruction_error(model, features):
    """Per-feature squared residuals of one sample, plus their mean."""
    x = zscores(np.asarray(features, dtype=float), model.input_stats)
    x_hat = detectors._forward(x[None, :], list(model.weights), list(model.biases))[-1][0]
    residuals = (x_hat - x) ** 2
    return residuals, float(residuals.mean())


def detect(model, features) -> str:
    return ANOMALY if reconstruction_error(model, features)[1] >= model.threshold else NORMAL


def hybrid_score(model, ranked, features) -> float:
    """Mean squared residual over the ranked sensors; all when ranked is empty."""
    residuals, total = reconstruction_error(model, features)
    return float(residuals[list(ranked)].mean()) if ranked else total


def calibrate_threshold(model, validation) -> float:
    scores = np.array([reconstruction_error(model, s.features)[1] for s in validation])
    truth = np.array([s.label == ANOMALY for s in validation])
    return detectors._best_f1_threshold(scores, truth)


def calibrate_hybrid_threshold(model, validation, stats, m: int = 8) -> float:
    scores = [
        hybrid_score(model, top_abs_z(np.abs(zscores(s.features, stats)), m), s.features)
        for s in validation
    ]
    truth = [s.label == ANOMALY for s in validation]
    return detectors._best_f1_threshold(np.asarray(scores), np.asarray(truth))
