"""Reference version of the autoencoder's loss and gradients: each gradient
is a freshly allocated array, collected from the output layer back. The
package's version, which writes into one flat vector, must return the same
loss and the same gradient bits."""

from __future__ import annotations

import numpy as np


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
