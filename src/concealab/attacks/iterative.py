"""White-box iterative concealment: coordinate descent over writable
channels, guided by an oracle that exposes the detector's per-channel
residuals, score, and threshold. No gradients are estimated; candidate
values come from a grid over each channel's normal operating range.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..dataset import TimeSeries
from ..detector import Detector, padded_history, reconstruction_error, residual_scores
from ..errors import DataError, DimensionError, SpecError
from ..nn import lstm
from ..schema import SensorSchema
from .constraints import AttackConstraint, ChangeLog


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


class DetectorOracle:
    """Answers candidate queries with exactly the detector's values.

    Context rows are the m raw readings preceding the current step, as
    reported so far (concealed rows included). With no context set and
    m > 0 the candidate itself fills the history, matching how the detector
    pads the very first row of a series. The context is worked into the
    detector once per step: for the LSTM, its state after the context rows,
    so a query runs only the final cell step.
    """

    def __init__(self, detector: Detector):
        self.detector = detector
        self._scale = detector.normalizer.scaler()
        self._ctx = None    # normalized (m, n) rows; for the LSTM, its (h, c) after them
        self.queries = 0

    @property
    def theta(self) -> float:
        return float(self.detector.theta)

    def set_context(self, rows: np.ndarray | None) -> None:
        det = self.detector
        m = det.history
        if rows is None or m == 0:
            self._ctx = None
            return
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape != (m, det.n_channels):
            raise DimensionError(f"context must be {(m, det.n_channels)}, got {rows.shape}")
        ctx = self._scale(rows)
        if det.spec.kind == "lstm":
            h = c = np.zeros((1, det.spec.hidden[0]))
            for r in range(m):
                h, c, _, _ = lstm.step(det.params, ctx[r:r + 1], h, c)
            ctx = (h, c)
        self._ctx = ctx

    def query_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """X: (batch, n) raw candidate readings -> (residuals, scores)."""
        det = self.detector
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != det.n_channels:
            raise DimensionError(f"candidates must be (batch, {det.n_channels})")
        Xn = self._scale(X)
        m = det.history
        self.queries += X.shape[0]
        if self._ctx is not None and det.spec.kind == "lstm":
            h, _, _, _ = lstm.step(det.params, Xn, *self._ctx)
            return residual_scores(Xn, lstm.readout(det.spec, det.params, h))
        if m == 0:
            wins = Xn[:, None, :]
        elif self._ctx is None:
            wins = np.repeat(Xn[:, None, :], m + 1, axis=1)
        else:
            ctx = np.broadcast_to(self._ctx, (X.shape[0], m, X.shape[1]))
            wins = np.concatenate([ctx, Xn[:, None, :]], axis=1)
        return reconstruction_error(det, wins)

    def query(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        e, eps = self.query_batch(np.asarray(x)[None])
        return e[0], float(eps[0])


def compute_matrix_of_mutations(x: np.ndarray, channel: int, schema: SensorSchema,
                                grid: int) -> np.ndarray:
    """Candidate readings differing from x only at one coordinate.

    Discrete channels contribute every allowed value; continuous channels a
    grid of evenly spaced values across the recorded normal range (a single
    candidate if the range is degenerate).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (len(schema),):
        raise DimensionError(f"sample has shape {x.shape}, schema has {len(schema)} channels")
    ch = schema.channels[channel]
    if ch.kind != "continuous":
        values = np.asarray(ch.allowed_values, dtype=np.float64)
    else:
        if ch.vmin is None or ch.vmax is None:
            raise SpecError(f"channel {ch.name!r} has no recorded normal range; "
                            "derive ranges from eavesdropped data first")
        if ch.vmin == ch.vmax:
            values = np.array([ch.vmin])
        else:
            values = np.linspace(ch.vmin, ch.vmax, grid)
    out = np.repeat(x[None, :], values.size, axis=0)
    out[:, channel] = values
    return out


def find_best_mutation(oracle: DetectorOracle, candidates: np.ndarray,
                       ) -> tuple[int, float, np.ndarray]:
    """Index, score and residuals of the candidate with the lowest score;
    ties go to the lowest index."""
    E, eps = oracle.query_batch(candidates)
    j = int(np.argmin(eps))
    return j, float(eps[j]), E[j]


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


def iterative_conceal(oracle: DetectorOracle, x: np.ndarray,
                      constraint: AttackConstraint, budget: IterativeBudget,
                      schema: SensorSchema) -> IterativeResult:
    """Descend one reading below the detection threshold.

    Each iteration picks the writable channel with the largest squared
    residual (lowest index on ties), evaluates its whole mutation grid, and
    accepts the best candidate only if it improves the best score seen. A
    channel that failed to improve is skipped until some other channel
    improves. Stops on score < theta (solved), patience consecutive
    non-improving iterations, the total budget, or all channels stale.
    The result never scores worse than the input.
    """
    if not constraint.write:
        raise SpecError("iterative concealment needs a non-empty write set")
    x = np.asarray(x, dtype=np.float64)
    e, eps = oracle.query(x)
    theta = oracle.theta
    if eps < theta:
        return IterativeResult(x.copy(), True, 0, eps, eps)

    best = x.copy()
    best_eps = eps
    best_e = e
    stale: set[int] = set()
    since_improve = 0
    worst_streak = 0
    iterations = 0

    while iterations < budget.budget:
        open_channels = [i for i in constraint.write if i not in stale]
        if not open_channels:
            break
        sq = best_e[open_channels] ** 2
        target = open_channels[int(np.argmax(sq))]

        candidates = compute_matrix_of_mutations(best, target, schema, budget.grid)
        j, cand_eps, cand_e = find_best_mutation(oracle, candidates)
        iterations += 1

        if cand_eps < best_eps:
            best = candidates[j]
            best_eps = cand_eps
            best_e = cand_e
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


def conceal_series_iterative(detector: Detector, series: TimeSeries,
                             constraint: AttackConstraint, budget: IterativeBudget,
                             schema: SensorSchema, mask: np.ndarray | None = None,
                             ) -> tuple[TimeSeries, ChangeLog, list[IterativeResult]]:
    """Run the iterative attack over every attacked step of a series.

    Rows are processed in order; the oracle's history context always holds
    the values as already reported upstream (i.e. previously concealed rows
    feed later windows, exactly as the detector will see them).
    """
    if mask is None:
        if series.labels is None:
            raise DataError("iterative attack needs attack labels or an explicit mask")
        mask = series.labels == 1
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (len(series),):
        raise SpecError("mask must have one entry per row")
    if len(schema) != series.n_channels:
        raise DimensionError("schema does not match series width")

    oracle = DetectorOracle(detector)
    m = detector.history
    reported = series.values.copy()
    log = ChangeLog(series.n_channels)
    results: list[IterativeResult] = []

    for t in np.nonzero(mask)[0]:
        oracle.set_context(padded_history(reported, t, m))
        start = time.perf_counter()
        res = iterative_conceal(oracle, reported[t], constraint, budget, schema)
        res.seconds = time.perf_counter() - start
        res.t = int(t)
        log.record_row(int(t), reported[t], res.x_prime)
        reported[t] = res.x_prime
        results.append(res)

    return series.with_values(reported), log, results
