"""Central finite-difference gradients, the reference the backprop code is
checked against (test_nn_gradients.py and acceptance test a01)."""
from __future__ import annotations

import numpy as np

from concealab.nn.network import _coerce, forward, run
from concealab.nn.ops import mse
from concealab.nn.params import pack, param_views
from concealab.nn.spec import NetworkSpec


def finite_difference_gradients(spec: NetworkSpec, params: dict, X: np.ndarray,
                                Y: np.ndarray, h: float = 1e-5,
                                dropout_mask: np.ndarray | None = None) -> dict:
    """d(mse)/d(theta) via central differences, one parameter at a time,
    probing a private flat copy of the parameters in place."""
    theta, probe = pack(params)
    grad = np.zeros_like(theta)
    X = _coerce(spec, X)
    Y = np.asarray(Y, dtype=np.float64)

    def loss() -> float:
        return mse(run(spec, probe, X, dropout_mask), Y)

    for j in range(theta.size):
        orig = theta[j]
        theta[j] = orig + h
        up = loss()
        theta[j] = orig - h
        down = loss()
        theta[j] = orig
        grad[j] = (up - down) / (2.0 * h)
    return param_views(grad, [(k, v.shape) for k, v in probe.items()])


def kink_margin(spec: NetworkSpec, params: dict, X: np.ndarray) -> float:
    """Smallest distance from the forward pass to a relu or max-pool
    switching point: min over |preactivation| and over top-two pool gaps
    (among groups whose winner is active). Central differences are only
    trustworthy when this comfortably exceeds the probe step h; smooth
    architectures return inf."""
    smooth = ("linear", "sigmoid", "tanh")
    if spec.kind != "conv":
        if spec.hidden_activation in smooth and spec.output_activation in smooth:
            return float("inf")
        return 0.0
    _, cache = forward(spec, params, np.asarray(X, dtype=np.float64))
    margin = np.inf
    for entry in cache["layers"]:
        margin = min(margin, float(np.abs(entry["z"]).min()))
        if "idx" not in entry:
            continue
        h = entry["h"]
        groups = entry["length"] // spec.pool
        hr = h[:, :groups * spec.pool, :].reshape(h.shape[0], groups, spec.pool, -1)
        top2 = np.sort(hr, axis=2)[:, :, -2:, :]
        live = top2[:, :, 1, :] > 0.0
        if live.any():
            gap = top2[:, :, 1, :] - top2[:, :, 0, :]
            margin = min(margin, float(gap[live].min()))
    return margin


def max_relative_error(analytic: dict, numeric: dict, min_mag: float = 1e-6) -> float:
    """Largest |a - n| / max(|a|, |n|) over elements where that denominator
    exceeds min_mag; 0.0 if no element does."""
    a = np.concatenate([analytic[k] for k in analytic], axis=None)
    n = np.concatenate([numeric[k] for k in analytic], axis=None)
    denom = np.maximum(np.abs(a), np.abs(n))
    keep = denom > min_mag
    if not keep.any():
        return 0.0
    return float((np.abs(a - n)[keep] / denom[keep]).max())
