"""Parameter layout, initialization, and the ADAM optimizer.

Parameters are a dict of name -> float64 array. A network's arrays are named
views into one contiguous buffer, laid out by `param_layout`: initialization,
the optimizer, finite-difference checks and model loading all use that one
definition, so the optimizer and best-epoch snapshots work on the whole
buffer at once.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import DimensionError, NumericError
from .conv import layer_lengths, live_taps
from .spec import NetworkSpec

Params = dict
Layout = list  # of (name, shape), in buffer order


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform on [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def param_layout(spec: NetworkSpec) -> Layout:
    """Names and shapes of a network's parameters, in layer order."""
    n = spec.channels
    if spec.kind == "dense":
        widths = [spec.window * n, *spec.hidden, n]
        layout = []
        for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
            layout += [(f"W{i}", (a, b)), (f"b{i}", (b,))]
        return layout
    if spec.kind == "lstm":
        h = spec.hidden[0]
        return [("Wx", (n, 4 * h)), ("Wh", (h, 4 * h)), ("b", (4 * h,)),
                ("Wd", (h, n)), ("bd", (n,))]
    # a conv bank stores only its layer's live taps: (taps, c_in, c_out)
    layout = []
    c_in = n
    for i, (c_out, taps) in enumerate(zip(spec.hidden, live_taps(spec))):
        layout += [(f"cW{i}", (len(taps), c_in, c_out)), (f"cb{i}", (c_out,))]
        c_in = c_out
    flat = layer_lengths(spec)[-1] * spec.hidden[-1]
    return layout + [("W_out", (flat, n)), ("b_out", (n,))]


def param_views(buf: np.ndarray, layout: Layout) -> Params:
    """Named views into a flat float64 buffer that holds exactly `layout`."""
    params: Params = {}
    pos = 0
    for name, shape in layout:
        size = math.prod(shape)
        params[name] = buf[pos:pos + size].reshape(shape)
        pos += size
    if pos != buf.size:
        raise DimensionError(f"flat buffer has {buf.size} entries, layout needs {pos}")
    return params


def pack(params: Params) -> tuple[np.ndarray, Params]:
    """Copy a parameter dict into a new flat buffer, in key order; returns
    the buffer and named views into it."""
    arrays = [np.asarray(v, dtype=np.float64) for v in params.values()]
    layout = [(k, a.shape) for k, a in zip(params, arrays)]
    buf = np.concatenate(arrays, axis=None)
    return buf, param_views(buf, layout)


def init_params(spec: NetworkSpec, seed: int) -> Params:
    """Glorot-uniform weights, zero biases, from a dedicated seeded stream,
    as views into one fresh buffer. A conv bank is drawn whole, as a
    (kernel, c_in, c_out) tensor with fans kernel * c_in and kernel * c_out,
    and keeps its live taps."""
    rng = np.random.default_rng(seed)
    layout = param_layout(spec)
    params = param_views(np.zeros(sum(math.prod(s) for _, s in layout)), layout)
    taps = iter(live_taps(spec))  # read by conv banks, the only 3-D arrays
    for name, shape in layout:
        if len(shape) == 2:
            params[name][...] = glorot_uniform(rng, shape, *shape)
        elif len(shape) == 3:
            k, (_, c_in, c_out) = spec.kernel, shape
            full = glorot_uniform(rng, (k, c_in, c_out), k * c_in, k * c_out)
            params[name][...] = full[next(taps)]
    return params


class Adam:
    """Bias-corrected ADAM over the whole parameter buffer at once; the
    learning rate is supplied per step so a plateau schedule can decay it
    without touching optimizer state.

    The optimizer binds to the dict it is built on: the dict's arrays are
    copied into one new buffer, `theta`, and its entries are rebound to
    views into it. Each step updates `theta`.
    """

    def __init__(self, params: Params, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.theta, views = pack(params)
        params.update(views)
        self._params = params
        self._keys = list(params)
        self.m = np.zeros_like(self.theta)
        self.v = np.zeros_like(self.theta)
        self._g = np.empty_like(self.theta)
        self._tmp = np.empty_like(self.theta)
        self._den = np.empty_like(self.theta)

    def step(self, params: Params, grads: Params, lr: float) -> None:
        if params is not self._params:
            raise DimensionError("Adam.step got a parameter dict it was not built on")
        g, tmp, den = self._g, self._tmp, self._den
        np.concatenate([grads[k] for k in self._keys], axis=None, out=g)
        if not np.isfinite(g).all():
            bad = next(k for k in self._keys if not np.isfinite(grads[k]).all())
            raise NumericError(f"non-finite gradient for {bad}")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        # m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
        # theta -= (lr*(m/c1)) / (sqrt(v/c2) + eps), in that rounding order,
        # through preallocated scratch buffers
        self.m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        self.m += tmp
        self.v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=tmp)
        tmp *= g
        self.v += tmp
        np.divide(self.m, c1, out=tmp)
        tmp *= lr
        np.divide(self.v, c2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        tmp /= den
        self.theta -= tmp
