"""Fully connected reconstruction network: flattened window in, one row out."""
from __future__ import annotations

import numpy as np

from .ops import IN_PLACE, activation_grad
from .spec import NetworkSpec


def layers(spec: NetworkSpec, params: dict) -> tuple:
    """(W, b, activation) of each layer, input first (see ops.IN_PLACE)."""
    names = [spec.hidden_activation] * len(spec.hidden) + [spec.output_activation]
    return tuple((params[f"W{i}"], params[f"b{i}"], IN_PLACE[a]) for i, a in enumerate(names))


def run_layers(layers: tuple, a: np.ndarray, acts: list | None = None) -> np.ndarray:
    """The network on a (width,), (rows, width) or stacked (blocks, rows,
    width) input: the one layer loop, for training, prediction and the
    detector stream. Appends each layer's output to `acts` unless None."""
    for W, b, f in layers:
        z = a @ W
        z += b
        a = f(z)
        if acts is not None:
            acts.append(a)
    return a


def forward(spec: NetworkSpec, params: dict, X: np.ndarray,
            cache: dict | None = None) -> np.ndarray:
    """X: (batch, window, channels). Records the layer activations in
    `cache` for backprop unless it is None."""
    a = X.reshape(X.shape[0], -1)
    acts = None if cache is None else cache.setdefault("acts", [a])
    return run_layers(layers(spec, params), a, acts)


def predict_invariant(spec: NetworkSpec, params: dict, X: np.ndarray) -> np.ndarray:
    """Inference on X (rows, window * channels) whose per-row bits do not
    depend on the batch. BLAS picks its kernel by row count, so under a
    plain X @ W a row alone and the same row in a large batch can round
    differently. Here each layer is one np.matmul over a stack of 1-row
    blocks, which gives every row the bits of the plain one-row product.
    The stack is laid out in C order, whatever X's layout: how np.matmul
    runs a block depends on its strides, and a column slice of a series
    (X[:, read]) comes in Fortran order."""
    rows, width = X.shape
    blocks = np.ascontiguousarray(X, dtype=np.float64).reshape(rows, 1, width)
    return run_layers(layers(spec, params), blocks)[:, 0]


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
