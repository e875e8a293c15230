"""Fully connected reconstruction network: flattened window in, one row out."""
from __future__ import annotations

import numpy as np

from .ops import activation_grad, apply_activation
from .spec import NetworkSpec


def forward(spec: NetworkSpec, params: dict, X: np.ndarray,
            cache: dict | None = None) -> np.ndarray:
    """X: (batch, window, channels). Records the layer activations in
    `cache` for backprop unless it is None."""
    a = X.reshape(X.shape[0], -1)
    acts = [a]
    n_layers = len(spec.hidden) + 1
    for i in range(n_layers):
        z = a @ params[f"W{i}"] + params[f"b{i}"]
        name = spec.output_activation if i == n_layers - 1 else spec.hidden_activation
        a = apply_activation(name, z)
        if cache is not None:
            acts.append(a)
    if cache is not None:
        cache["acts"] = acts
    return a


def backward(spec: NetworkSpec, params: dict, cache: dict, dout: np.ndarray) -> dict:
    acts = cache["acts"]
    n_layers = len(spec.hidden) + 1
    grads: dict = {}
    d = dout
    for i in range(n_layers - 1, -1, -1):
        name = spec.output_activation if i == n_layers - 1 else spec.hidden_activation
        dz = activation_grad(name, acts[i + 1], d)
        grads[f"W{i}"] = acts[i].T @ dz
        grads[f"b{i}"] = dz.sum(axis=0)
        if i > 0:
            d = dz @ params[f"W{i}"].T
    return grads
