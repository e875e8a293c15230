"""Activations and the mean-squared-error loss with their derivatives."""
from __future__ import annotations

import numpy as np

from ..errors import SpecError


def _sigmoid_into(x: np.ndarray) -> np.ndarray:
    """1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, so exp never
    overflows, written over the float64 array x. Both branches share
    e = exp(-|x|), taken as exp(min(x, -x)) so that a nan keeps its sign,
    as exp(x) would. The numerator is max(e, x >= 0): 1 where x >= 0, since
    e <= 1, and e below, since e >= 0. That gives the same bits as
    evaluating each form on its half."""
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    np.maximum(e, x >= 0.0, out=x)
    e += 1.0
    x /= e
    return x


# each activation on a fresh pre-activation array, which it overwrites, same bits
IN_PLACE = {"linear": lambda z: z, "sigmoid": _sigmoid_into,
            "tanh": lambda z: np.tanh(z, out=z), "relu": lambda z: np.maximum(z, 0.0, out=z)}


def apply_activation(name: str, x: np.ndarray) -> np.ndarray:
    """IN_PLACE[name] with x left as it is: on a float64 copy, linear aside."""
    return x if name == "linear" else IN_PLACE[name](np.array(x, dtype=np.float64))


def activation_grad(name: str, y: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Chain dout through an activation given its output y."""
    if name == "linear":
        return dout
    if name == "sigmoid":
        return dout * y * (1.0 - y)
    if name == "tanh":
        return dout * (1.0 - y * y)
    if name == "relu":
        return dout * (y > 0.0)
    raise SpecError(f"unknown activation {name!r}")


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over every element of the squared residual: the sum over the
    count, which is what np.mean does for float64, bit for bit."""
    d = pred - target
    return float(np.add.reduce(d * d, axis=None) / d.size)


def mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    return 2.0 * (pred - target) / pred.size
