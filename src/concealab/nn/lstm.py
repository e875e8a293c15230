"""Single-layer LSTM with a dense readout of the final hidden state.

Gate layout in the stacked weight matrices is [input, forget, cell, output]
along the last axis. State starts at zero; backpropagation runs through the
full window (no truncation).
"""
from __future__ import annotations

import numpy as np

from .ops import IN_PLACE, activation_grad
from .spec import NetworkSpec


def step(params: dict, x: np.ndarray, h: np.ndarray, c: np.ndarray,
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One cell update: inputs x (batch, channels) and the state (h, c) ->
    the new (h, c), the [i, f, g, o] activations side by side and tanh(c),
    the last two for backprop. Rows are independent, and a state of one row
    is broadcast against a batch of inputs, or one input row against a
    batch of states. The gates are worked out in the preactivation's array."""
    h_size = h.shape[1]
    z = x @ params["Wx"] + h @ params["Wh"]
    z += params["b"]
    g = np.tanh(z[:, 2 * h_size:3 * h_size])
    act = IN_PLACE["sigmoid"](z)
    act[:, 2 * h_size:3 * h_size] = g
    c = act[:, h_size:2 * h_size] * c       # f * c + i * g
    c += act[:, :h_size] * g
    tc = np.tanh(c)
    return act[:, 3 * h_size:] * tc, c, act, tc


def readout(spec: NetworkSpec, params: dict, h: np.ndarray) -> np.ndarray:
    """The network's output from a final hidden state."""
    return IN_PLACE[spec.output_activation](h @ params["Wd"] + params["bd"])


def forward(spec: NetworkSpec, params: dict, X: np.ndarray,
            cache: dict | None = None) -> np.ndarray:
    """Records the per-step gates and states in `cache` for backprop unless
    it is None."""
    batch, steps, _ = X.shape
    h = np.zeros((batch, spec.hidden[0]))
    c = np.zeros((batch, spec.hidden[0]))
    gates = []      # per step: ([i, f, g, o] side by side, c_prev, tanh_c)
    hs = [h]
    for t in range(steps):
        c_prev = c
        h, c, act, tc = step(params, X[:, t, :], h, c)
        if cache is not None:
            gates.append((act, c_prev, tc))
            hs.append(h)

    out = readout(spec, params, h)
    if cache is not None:
        cache.update(X=X, gates=gates, hs=hs, out=out)
    return out


def backward(spec: NetworkSpec, params: dict, cache: dict, dout: np.ndarray) -> dict:
    X, gates, hs = cache["X"], cache["gates"], cache["hs"]
    batch, steps, _ = X.shape
    h_size = spec.hidden[0]
    Wx, Wh = params["Wx"], params["Wh"]

    dz_out = activation_grad(spec.output_activation, cache["out"], dout)
    grads = {
        "Wd": hs[-1].T @ dz_out,
        "bd": dz_out.sum(axis=0),
        "Wx": np.zeros_like(Wx),
        "Wh": np.zeros_like(Wh),
        "b": np.zeros_like(params["b"]),
    }

    dh = dz_out @ params["Wd"].T
    dc = np.zeros((batch, h_size))
    for t in range(steps - 1, -1, -1):
        act, c_prev, tc = gates[t]
        i, f, g, o = (act[:, k * h_size:(k + 1) * h_size] for k in range(4))
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ], axis=1)
        grads["Wx"] += X[:, t, :].T @ dz
        grads["Wh"] += hs[t].T @ dz
        grads["b"] += dz.sum(axis=0)
        dh = dz @ Wh.T
        dc = dc * f
    return grads
