"""Arithmetic behind the benchmark's figures.

- which tail percentile a sample supports (at least ten samples beyond it);
- the FIFO replay of a fixed-rate arrival schedule behind the highest
  sustainable sampling rate;
- span self time (duration minus the part its child spans cover);
- the quartile spread used to judge steadiness.
"""
from __future__ import annotations

import statistics

import numpy as np

MIN_BEYOND = 10


def supports(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """True when n samples leave at least min_beyond of them above the q-th
    percentile, e.g. p99 needs n >= 1000."""
    return n * (100.0 - q) >= 100.0 * min_beyond - 1e-6


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile; refuses a tail the sample cannot
    support, so a reported p99 always rests on >= 10 samples beyond it."""
    arr = np.asarray(values, dtype=np.float64)
    if q > 50.0 and not supports(arr.size, q):
        raise ValueError(f"p{q:g} needs >= {MIN_BEYOND} samples beyond it; got n={arr.size}")
    return float(np.percentile(arr, q))


def fifo_response(service_s, interval_s: float) -> np.ndarray:
    """Response times, counted from each request's due time, when request i
    is due at i * interval_s and one server handles requests in order:
    start_i = max(due_i, finish_{i-1}), finish_i = start_i + service_i.

    Closed form: finish_i = S_i + max_{j<=i}(due_j - S_{j-1}) with S the
    running sum of service times.
    """
    s = np.asarray(service_s, dtype=np.float64)
    due = np.arange(s.size) * float(interval_s)
    total = np.cumsum(s)
    before = total - s
    finish = total + np.maximum.accumulate(due - before)
    return finish - due


def max_rate_hz(service_s, q: float = 99.0, lo: float = 1.0, hi: float = 1e9,
                iters: int = 80) -> float:
    """Highest fixed arrival rate whose q-th percentile response (from the
    due time) stays within one sampling interval. The response percentile
    only grows as the interval shrinks, so bisection in log space finds the
    boundary. Returns 0.0 when even `lo` Hz misses."""
    s = np.asarray(service_s, dtype=np.float64)
    if not supports(s.size, q):
        raise ValueError(f"p{q:g} needs >= {MIN_BEYOND} samples beyond it; got n={s.size}")

    def meets(rate: float) -> bool:
        interval = 1.0 / rate
        return float(np.percentile(fifo_response(s, interval), q)) <= interval

    if not meets(lo):
        return 0.0
    if meets(hi):
        return hi
    log_lo, log_hi = np.log(lo), np.log(hi)
    for _ in range(iters):
        mid = 0.5 * (log_lo + log_hi)
        if meets(float(np.exp(mid))):
            log_lo = mid
        else:
            log_hi = mid
    return float(np.exp(log_lo))


def self_times(spans) -> list[float]:
    """Self time of each span in a list of (start, end, parent_index) with
    parent -1 for roots: its duration minus the union of its direct
    children's intervals, clipped to the span itself."""
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        pieces = sorted((max(spans[c][0], start), min(spans[c][1], end)) for c in children[i])
        covered = 0.0
        cur_a = cur_b = None
        for a, b in pieces:
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((end - start) - covered)
    return out


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)
    gives them."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2
