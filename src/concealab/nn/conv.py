"""1-D convolutional reconstruction network over the time axis.

Convolutions are same-padded (even kernels pad the right edge more, so
output length equals input length), each followed by a max-pool of width
`pool` while the sequence is at least that long. The stack ends in dropout
on the flattened features and a dense readout.

The padding is never materialized: each kernel tap multiplies the input by
its weights and adds the rows that land on real output rows. A tap that
would only read padding at a layer's input length is not stored at all: a
layer's weight bank holds, in order, the taps `_taps` yields for the length
`layer_lengths` gives it. The products keep the shapes a padded input would
give them (one (length, c_in) matrix per sample), so the outputs and input
gradients round as they do with explicit padding.
"""
from __future__ import annotations

import numpy as np

from .ops import IN_PLACE, activation_grad, apply_activation
from .spec import NetworkSpec


def _taps(kernel: int, length: int):
    """(tap, output rows, input rows) for every tap that reads real rows:
    output row t reads input row t + tap - pad_left."""
    pad_l = (kernel - 1) // 2
    for dt in range(kernel):
        shift = dt - pad_l
        lo, hi = max(0, -shift), min(length, length - shift)
        if lo < hi:
            yield dt, slice(lo, hi), slice(lo + shift, hi + shift)


def layer_lengths(spec: NetworkSpec) -> list[int]:
    """The input length of each conv layer, then the length after the stack:
    same padding keeps a length, each pool divides it while it is >= pool."""
    lengths = [spec.window]
    for _ in spec.hidden:
        n = lengths[-1]
        lengths.append(n // spec.pool if n >= spec.pool else n)
    return lengths


def live_taps(spec: NetworkSpec) -> list[list[int]]:
    """The kernel taps each conv layer stores, in order: those `_taps`
    yields for the layer's input length."""
    return [[dt for dt, _, _ in _taps(spec.kernel, n)] for n in layer_lengths(spec)[:-1]]


# samples per block of an inference pass: only memory and time depend on it
BLOCK_ROWS = 256


def _rows(x: np.ndarray, rows: slice) -> np.ndarray:
    """x[:, rows, :] as a (batch * len(rows), features) matrix."""
    return x[:, rows, :].reshape(-1, x.shape[2])


def forward(spec: NetworkSpec, params: dict, X: np.ndarray,
            dropout_mask: np.ndarray | None = None,
            cache: dict | None = None) -> np.ndarray:
    """dropout_mask: precomputed inverted-dropout mask for the flattened
    features, or None for inference. Records each layer's input and
    activations in `cache` for backprop unless it is None; without it the
    conv layers run over blocks of BLOCK_ROWS samples, which gives each
    sample the same bits, and only the flat features of all of them are
    kept for the one readout product."""
    batch = X.shape[0]
    block = BLOCK_ROWS if cache is None else max(batch, 1)
    layers = None if cache is None else []
    flat = np.empty((batch, layer_lengths(spec)[-1] * spec.hidden[-1]))
    for s in range(0, batch, block):
        a = X[s:s + block]
        for i in range(len(spec.hidden)):
            a = _layer(spec, params[f"cW{i}"], params[f"cb{i}"], a, layers)
        flat[s:s + block] = a.reshape(a.shape[0], -1)

    if dropout_mask is not None:
        flat = flat * dropout_mask
    out = IN_PLACE[spec.output_activation](flat @ params["W_out"] + params["b_out"])
    if cache is not None:
        cache.update(layers=layers, flat=flat, mask=dropout_mask, out=out)
    return out


def _layer(spec: NetworkSpec, W: np.ndarray, b: np.ndarray, a: np.ndarray,
           layers: list | None) -> np.ndarray:
    """One conv, activation and pool. Appends what backprop needs to `layers`
    unless it is None; then the activation overwrites the preactivation, and
    only the output outlives the call."""
    batch, length = a.shape[:2]
    taps = list(_taps(spec.kernel, length))
    # a first tap that covers every output row gives z its product: 0 + product,
    # up to the sign of a zero, which adding a bias other than -0.0 makes +0.0
    z = None if taps[0][1] == slice(0, length) else np.zeros((batch, length, W.shape[2]))
    for j, (_, out_rows, in_rows) in enumerate(taps):
        if z is None:
            z = a @ W[j]
        else:
            z[:, out_rows, :] += (a @ W[j])[:, in_rows, :]
    z += b
    if layers is None:
        h = IN_PLACE[spec.hidden_activation](z)
    else:  # z stays apart from h: the gradient check reads both
        h = apply_activation(spec.hidden_activation, z)
        layers.append({"a": a, "z": z, "h": h, "length": length})
    if length < spec.pool:
        return h
    groups = length // spec.pool
    hr = h[:, :groups * spec.pool, :].reshape(batch, groups, spec.pool, -1)
    idx = hr.argmax(axis=2)
    if layers is not None:
        layers[-1]["idx"] = idx
    return np.take_along_axis(hr, idx[:, :, None, :], axis=2)[:, :, 0, :]


def backward(spec: NetworkSpec, params: dict, cache: dict, dout: np.ndarray) -> dict:
    grads: dict = {}
    dz_out = activation_grad(spec.output_activation, cache["out"], dout)
    grads["W_out"] = cache["flat"].T @ dz_out
    grads["b_out"] = dz_out.sum(axis=0)
    dflat = dz_out @ params["W_out"].T
    if cache["mask"] is not None:
        dflat = dflat * cache["mask"]
    da = dflat.reshape(dflat.shape[0], layer_lengths(spec)[-1], -1)

    for i in range(len(spec.hidden) - 1, -1, -1):
        entry = cache["layers"][i]
        h, a = entry["h"], entry["a"]
        batch, length = h.shape[0], entry["length"]
        if "idx" in entry:
            groups = length // spec.pool
            dh = np.zeros_like(h)
            dhr = np.zeros((batch, groups, spec.pool, h.shape[2]))
            np.put_along_axis(dhr, entry["idx"][:, :, None, :], da[:, :, None, :], axis=2)
            dh[:, :groups * spec.pool, :] = dhr.reshape(batch, groups * spec.pool, -1)
        else:
            dh = da
        dz = activation_grad(spec.hidden_activation, h, dh)
        W = params[f"cW{i}"]
        grads[f"cb{i}"] = dz.sum(axis=(0, 1))
        dW = np.empty_like(W)  # every stored tap is live, so each gets its product
        da = np.zeros_like(a) if i > 0 else None
        for j, (_, out_rows, in_rows) in enumerate(_taps(spec.kernel, length)):
            dW[j] = _rows(a, in_rows).T @ _rows(dz, out_rows)
            if i > 0:  # the input gradient of the first layer is not needed
                da[:, in_rows, :] += (dz @ W[j].T)[:, out_rows, :]
        grads[f"cW{i}"] = dW
    return grads
