"""Kind dispatch, shape checks, and loss plumbing for the three network types."""
from __future__ import annotations

import numpy as np

from ..errors import DimensionError, NumericError
from . import conv, dense, lstm
from .ops import mse, mse_grad
from .spec import NetworkSpec


def _coerce(spec: NetworkSpec, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 2:
        if spec.window != 1:
            raise DimensionError(f"2-D input but spec.window={spec.window}; pass windows")
        X = X[:, None, :]
    if X.ndim != 3 or X.shape[1] != spec.window or X.shape[2] != spec.channels:
        raise DimensionError(
            f"input shape {X.shape} does not match (batch, {spec.window}, {spec.channels})")
    return X


def run(spec: NetworkSpec, params: dict, X: np.ndarray,
        dropout_mask: np.ndarray | None = None, cache: dict | None = None) -> np.ndarray:
    """Output of the network on a float64 (batch, window, channels) array
    the caller has already shaped; fills `cache` for backprop unless it is
    None. `forward` and `predict` check and coerce their input first."""
    if spec.kind == "dense":
        return dense.forward(spec, params, X, cache)
    if spec.kind == "lstm":
        return lstm.forward(spec, params, X, cache)
    return conv.forward(spec, params, X, dropout_mask, cache)


def forward(spec: NetworkSpec, params: dict, X: np.ndarray,
            dropout_mask: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    cache: dict = {}
    return run(spec, params, _coerce(spec, X), dropout_mask, cache), cache


def backward(spec: NetworkSpec, params: dict, cache: dict, dout: np.ndarray) -> dict:
    if spec.kind == "dense":
        return dense.backward(spec, params, cache, dout)
    if spec.kind == "lstm":
        return lstm.backward(spec, params, cache, dout)
    return conv.backward(spec, params, cache, dout)


def predict(spec: NetworkSpec, params: dict, X: np.ndarray) -> np.ndarray:
    """Inference pass (dropout off); builds no backprop cache."""
    return run(spec, params, _coerce(spec, X))


def loss_and_grads(spec: NetworkSpec, params: dict, X: np.ndarray, Y: np.ndarray,
                   dropout_mask: np.ndarray | None = None) -> tuple[float, dict]:
    out, cache = forward(spec, params, X, dropout_mask)
    Y = np.asarray(Y, dtype=np.float64)
    if out.shape != Y.shape:
        raise DimensionError(f"target shape {Y.shape} does not match output {out.shape}")
    loss = mse(out, Y)
    if not np.isfinite(loss):
        raise NumericError("loss became non-finite")
    grads = backward(spec, params, cache, mse_grad(out, Y))
    return loss, grads
