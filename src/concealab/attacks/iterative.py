"""White-box iterative concealment: coordinate descent over writable
channels, guided by an oracle that exposes the detector's per-channel
residuals, score, and threshold. No gradients are estimated; candidate
values come from a grid over each channel's normal operating range.
"""
from __future__ import annotations

import functools
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..dataset import TimeSeries
from ..detector import Detector, DetectorOracle
from ..errors import DimensionError, SpecError
from ..schema import Channel, SensorSchema
from .constraints import AttackConstraint, ChangeLog, attack_rows


@dataclass(frozen=True)
class IterativeBudget:
    """Stopping rules: patience = max consecutive iterations without an
    improvement, budget = max iterations total, grid = candidate values per
    continuous channel."""

    patience: int = 15
    budget: int = 200
    grid: int = 50

    def __post_init__(self):
        if self.patience < 1:
            raise SpecError(f"patience must be >= 1, got {self.patience}")
        if self.budget < self.patience:
            raise SpecError(f"budget ({self.budget}) must be >= patience ({self.patience})")
        if self.grid < 2:
            raise SpecError(f"mutation grid needs >= 2 values, got {self.grid}")


MAX_QUERY_ROWS = 2048
"""Most candidate rows one oracle call scores: a lockstep round over many
rows is split into calls of at most this many, which bounds its memory."""


@functools.lru_cache
def _mutation_values(ch: Channel, grid: int) -> np.ndarray:
    """A channel's candidate values, worked out once per (channel, grid):
    every row of a series, a stream of rows, and each command that loads
    an equal schema share them. Read only, since every caller gets the same
    array."""
    if ch.kind != "continuous":
        values = np.array(ch.allowed_values, dtype=np.float64)
    elif ch.vmin is None or ch.vmax is None:
        raise SpecError(f"channel {ch.name!r} has no recorded normal range; "
                        "derive ranges from eavesdropped data first")
    elif ch.vmin == ch.vmax:
        values = np.array([ch.vmin])
    else:
        values = np.linspace(ch.vmin, ch.vmax, grid)
    values.flags.writeable = False
    return values


@dataclass
class IterativeResult:
    x_prime: np.ndarray
    solved: bool
    iterations: int
    eps_before: float
    eps_after: float
    max_nonimprove_streak: int = 0
    t: int = -1
    seconds: float = 0.0


def _descent(x: np.ndarray, theta: float, write: tuple[int, ...],
             budget: IterativeBudget, schema: SensorSchema):
    """One reading's descent, as a coroutine. It yields each candidate
    block it needs scored, the reading itself first, is sent the block's
    (residuals, scores), and returns its IterativeResult.

    Each iteration picks the writable channel with the largest squared
    residual (lowest index on ties), scores its whole mutation grid, and
    accepts the best candidate (lowest index on ties) only if it scores
    below the best seen and is not the best row itself: a batch may score
    an unchanged row a rounding step lower than a single query did. A
    channel that failed to improve is skipped until some other channel
    improves. Stops on score < theta (solved), patience consecutive
    non-improving iterations, the total budget, or all channels stale.
    The result never scores worse than the input.
    """
    if not write:
        raise SpecError("iterative concealment needs a non-empty write set")
    if x.shape != (len(schema),):
        raise DimensionError(f"sample has shape {x.shape}, schema has {len(schema)} channels")
    E, scores = yield x[None]
    eps = float(scores[0])
    if eps < theta:
        return IterativeResult(x.copy(), True, 0, eps, eps)

    best = x.copy()
    best_eps = eps
    best_e = E[0].copy()
    stale: set[int] = set()
    since_improve = 0
    worst_streak = 0
    iterations = 0

    while iterations < budget.budget:
        open_channels = [i for i in write if i not in stale]
        if not open_channels:
            break
        target = open_channels[int((best_e[open_channels] ** 2).argmax())]

        values = _mutation_values(schema.channels[target], budget.grid)
        candidates = np.empty((values.size, best.size))
        candidates[:] = best
        candidates[:, target] = values
        E, scores = yield candidates
        j = int(scores.argmin())
        iterations += 1

        if scores[j] < best_eps and candidates[j, target] != best[target]:
            best = candidates[j].copy()
            best_eps = float(scores[j])
            best_e = E[j].copy()
            stale.clear()
            since_improve = 0
            if best_eps < theta:
                break
        else:
            stale.add(target)
            since_improve += 1
            worst_streak = max(worst_streak, since_improve)
            if since_improve >= budget.patience:
                break

    return IterativeResult(best, best_eps < theta, iterations, eps, best_eps, worst_streak)


def _lockstep(oracle, descents: list, per_row: bool = False) -> list[IterativeResult]:
    """Run descents to the end together. Their pending candidate blocks
    wait in one queue; each oracle call scores the blocks at its head, up to
    MAX_QUERY_ROWS rows (a larger block goes alone), and sends each descent
    its own slice of the answer, after which its next block joins the back.
    So every unfinished descent has one block scored per round, and only
    one call's candidates and answers are alive at a time. per_row: descent
    i descends against the oracle's context i; otherwise the oracle's one
    context serves them all."""
    results: list = [None] * len(descents)
    queue = deque((i, next(d)) for i, d in enumerate(descents))
    while queue:
        batch = [queue.popleft()]
        rows = len(batch[0][1])
        while queue and rows + len(queue[0][1]) <= MAX_QUERY_ROWS:
            rows += len(queue[0][1])
            batch.append(queue.popleft())
        for (i, _), reply in zip(batch, _ask(oracle, batch, per_row)):
            try:
                queue.append((i, descents[i].send(reply)))
            except StopIteration as done:
                results[i] = done.value
    return results


def _ask(oracle, items: list, per_row: bool) -> list:
    """One oracle call for the blocks of items, split back per block."""
    sizes = [len(block) for _, block in items]
    X = items[0][1] if len(items) == 1 else np.concatenate([block for _, block in items])
    if per_row:
        E, eps = oracle.query_batch(X, np.repeat([i for i, _ in items], sizes))
    else:
        E, eps = oracle.query_batch(X)
    replies, lo = [], 0
    for size in sizes:
        replies.append((E[lo:lo + size], eps[lo:lo + size]))
        lo += size
    return replies


def iterative_conceal(oracle: DetectorOracle, x: np.ndarray,
                      constraint: AttackConstraint, budget: IterativeBudget,
                      schema: SensorSchema) -> IterativeResult:
    """Descend one reading below the detection threshold, under the rules
    of `_descent`, against the oracle's current context."""
    descent = _descent(np.asarray(x, dtype=np.float64), oracle.theta, constraint.write,
                       budget, schema)
    return _lockstep(oracle, [descent])[0]


def conceal_series_iterative(detector: Detector, series: TimeSeries,
                             constraint: AttackConstraint, budget: IterativeBudget,
                             schema: SensorSchema,
                             ) -> tuple[TimeSeries, ChangeLog, list[IterativeResult]]:
    """Run the iterative attack over every attack-labeled step of a series.

    The oracle's history context always holds the values as reported
    upstream (previously concealed rows feed later windows, exactly as the
    detector will see them). So rows are solved in waves: a row joins a
    wave once none of its m history rows is an attacked row still to be
    solved, and the rows of a wave descend in lockstep, each against its
    own context. With m = 0 every row is in the first wave. A row's
    `seconds` is its wave's time over the wave's rows.
    """
    rows = attack_rows(series, "iterative attack")
    if len(schema) != series.n_channels:
        raise DimensionError("schema does not match series width")

    oracle = DetectorOracle(detector)
    theta = oracle.theta
    m = detector.history
    reported = series.values.copy()
    results: dict[int, IterativeResult] = {}
    todo = rows.tolist()
    while todo:
        start = time.perf_counter()
        if m and todo[0] == 0:
            # the first row fills its own window, which no shared context gives
            wave, per_row = [0], False
            oracle.set_context(None)
        else:
            wave = [t for i, t in enumerate(todo) if i == 0 or todo[i - 1] < t - m]
            per_row = m > 0
            if per_row:
                # the m rows before each, row 0 repeated before the start
                oracle.set_contexts(reported[np.maximum(np.c_[wave] + np.arange(-m, 0), 0)])
        done = _lockstep(oracle, [_descent(reported[t], theta, constraint.write, budget,
                                           schema) for t in wave], per_row)
        seconds = (time.perf_counter() - start) / len(wave)
        for t, res in zip(wave, done):
            res.t, res.seconds = t, seconds
            reported[t] = res.x_prime
            results[t] = res
        solved = set(wave)
        todo = [t for t in todo if t not in solved]

    log = ChangeLog(series.n_channels)
    log.record_rows(rows, series.values[rows], reported[rows])
    return series.with_values(reported), log, [results[t] for t in rows.tolist()]
