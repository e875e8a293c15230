"""Coordinate-descent concealment: grid semantics, stopping rules, the
no-regression guarantee, and the lockstep driver against per-row descent."""
import math

import numpy as np
import pytest

from concealab.attacks import iterative
from concealab.attacks import (DetectorOracle, IterativeBudget, full, iterative_conceal,
                               partial, unconstrained, conceal_series_iterative)
from concealab.dataset import TimeSeries
from concealab.detector import build_detector, detect_series
from concealab.errors import SpecError
from concealab.nn import TrainConfig
from concealab.schema import Channel, SensorSchema


class QuadraticOracle:
    """Stand-in detector: residual x - c, score mean((x - c)^2). Separable,
    so greedy per-coordinate descent must reach the grid-global minimum."""

    def __init__(self, center, theta):
        self.center = np.asarray(center, dtype=np.float64)
        self.theta = theta

    def query_batch(self, X):
        e = np.asarray(X, dtype=np.float64) - self.center
        return e, (e ** 2).mean(axis=1)

    def score(self, x):
        """The one-row score of x."""
        return float(self.query_batch(np.asarray(x)[None])[1][0])


class RecordingOracle(QuadraticOracle):
    """Keeps a copy of every candidate block it is asked to score."""

    def __init__(self, center, theta=0.0):
        super().__init__(center, theta)
        self.asked = []

    def query_batch(self, X):
        self.asked.append(np.array(X))
        return super().query_batch(X)


class BatchUlpOracle(QuadraticOracle):
    """Scores every row one ulp lower when it comes in a batch of several,
    as a BLAS matrix product can against the one-row query's."""

    def query_batch(self, X):
        e, eps = super().query_batch(X)
        return e, (np.nextafter(eps, -np.inf) if len(X) > 1 else eps)


class RowwiseOracle:
    """Batch-invariant stand-in: scores are worked out row by row from
    exact elementwise products and an exactly rounded sum, never BLAS, so a
    row gets the same bits in any batch. Neighbouring channels interact, so
    the descent is not separable. A context shifts the centre, one per row
    of a lockstep round."""

    def __init__(self, center, theta):
        self.center = np.asarray(center, dtype=np.float64)
        self.theta = theta
        self._shift = np.zeros((1, self.center.size))

    def set_context(self, shift):
        self._shift = np.asarray(shift, dtype=np.float64)[None]

    def set_contexts(self, shifts):
        self._shift = np.asarray(shifts, dtype=np.float64)

    def query_batch(self, X, owner=None):
        X = np.asarray(X, dtype=np.float64)
        shift = self._shift[owner] if owner is not None else self._shift[0]
        d = X - (self.center + shift)
        e = d + 0.25 * np.roll(d, 1, axis=1) ** 2
        return e, np.array([math.fsum(r * r) / r.size for r in e])


def _grid_schema(n, lo=0.0, hi=1.0):
    return SensorSchema(tuple(
        Channel(f"c{i}", "continuous", plc=1, vmin=lo, vmax=hi) for i in range(n)))


def _one_iteration(oracle, x, channel, schema, grid):
    """One iteration of the descent that may write only channel."""
    return iterative_conceal(oracle, np.asarray(x, dtype=np.float64),
                             partial(len(schema), [channel]),
                             IterativeBudget(patience=1, budget=1, grid=grid), schema)


def _mutations(x, channel, schema, grid):
    """The candidate block that iteration asks about. A score never falls
    below theta 0, so the iteration always runs; the reading itself is
    asked first."""
    oracle = RecordingOracle(np.zeros(len(schema)))
    res = _one_iteration(oracle, x, channel, schema, grid)
    assert res.iterations == 1 and len(oracle.asked) == 2
    np.testing.assert_array_equal(oracle.asked[0], np.asarray(x, dtype=np.float64)[None])
    return oracle.asked[1]


def test_mutation_grid_spans_normal_range(toy_schema):
    x = np.array([1.0, 10.0, 1.0, 5.0, 2.0])
    cands = _mutations(x, 0, toy_schema, grid=5)
    assert cands.shape == (5, 5)
    np.testing.assert_allclose(cands[:, 0], [0.0, 1.0, 2.0, 3.0, 4.0])
    # untouched coordinates carry over
    np.testing.assert_array_equal(cands[:, 1:], np.repeat(x[None, 1:], 5, axis=0))


def test_mutation_grid_for_discrete_channels(toy_schema):
    x = np.zeros(5)
    binary = _mutations(x, 2, toy_schema, grid=50)
    np.testing.assert_array_equal(binary[:, 2], [0.0, 1.0])
    cat = _mutations(x, 4, toy_schema, grid=50)
    np.testing.assert_array_equal(cat[:, 4], [0.0, 2.0, 5.0])


def test_mutation_grid_degenerate_range():
    schema = SensorSchema((Channel("a", "continuous", 1, vmin=2.0, vmax=2.0),))
    cands = _mutations(np.array([7.0]), 0, schema, grid=50)
    assert cands.shape == (1, 1)
    assert cands[0, 0] == 2.0


def test_mutation_grid_requires_ranges():
    schema = SensorSchema((Channel("a", "continuous", 1),))
    with pytest.raises(SpecError):
        _mutations(np.array([1.0]), 0, schema, grid=5)


def test_find_best_mutation_matches_exhaustive_scan():
    """One iteration lands on the grid value with the lowest one-row score,
    or leaves the reading as it is when no grid value scores lower."""
    schema = _grid_schema(2)
    rng = np.random.default_rng(0)
    outcomes = set()
    for _ in range(50):
        oracle = RecordingOracle(center=rng.uniform(size=2))
        x = rng.uniform(-1.0, 2.0, size=2)
        channel, grid = int(rng.integers(0, 2)), int(rng.integers(2, 9))
        res = _one_iteration(oracle, x, channel, schema, grid)
        cands = np.repeat(x[None], grid, axis=0)
        cands[:, channel] = np.linspace(0.0, 1.0, grid)
        np.testing.assert_array_equal(oracle.asked[1], cands)
        scores = [oracle.score(c) for c in cands]
        j = int(np.argmin(scores))
        improved = scores[j] < oracle.score(x)
        np.testing.assert_array_equal(res.x_prime, cands[j] if improved else x)
        assert res.eps_after == pytest.approx(scores[j] if improved else res.eps_before)
        outcomes.add(improved)
    assert outcomes == {True, False}


def test_find_best_mutation_tie_breaks_low_index():
    schema = SensorSchema((Channel("a", "continuous", 1, vmin=-2.0, vmax=2.0),))
    oracle = RecordingOracle(center=[0.0])
    res = _one_iteration(oracle, [5.0], 0, schema, grid=2)   # -2 and 2 score alike
    np.testing.assert_array_equal(oracle.asked[1], [[-2.0], [2.0]])
    np.testing.assert_array_equal(res.x_prime, [-2.0])


def test_descent_never_makes_things_worse():
    rng = np.random.default_rng(1)
    schema = _grid_schema(4)
    for trial in range(30):
        oracle = QuadraticOracle(center=rng.uniform(size=4), theta=1e-9)
        x = rng.uniform(-1, 2, size=4)
        res = iterative_conceal(oracle, x, partial(4, [0, 2]),
                                IterativeBudget(patience=3, budget=20, grid=9), schema)
        assert res.eps_after <= res.eps_before + 1e-15
        assert res.iterations <= 20
        assert res.max_nonimprove_streak <= 3


def test_solved_means_score_below_threshold():
    schema = _grid_schema(3)
    oracle = QuadraticOracle(center=[0.5, 0.5, 0.5], theta=0.02)
    x = np.array([0.9, 0.1, 0.52])
    res = iterative_conceal(oracle, x, unconstrained(3),
                            IterativeBudget(patience=5, budget=50, grid=21), schema)
    assert res.solved
    eps = oracle.score(res.x_prime)
    assert eps < oracle.theta
    assert eps == pytest.approx(res.eps_after)


def test_already_safe_input_returns_unchanged():
    schema = _grid_schema(2)
    oracle = QuadraticOracle(center=[0.5, 0.5], theta=1.0)
    x = np.array([0.6, 0.4])
    res = iterative_conceal(oracle, x, unconstrained(2),
                            IterativeBudget(), schema)
    assert res.solved and res.iterations == 0
    np.testing.assert_array_equal(res.x_prime, x)


def test_separable_descent_reaches_grid_global_minimum():
    """On a separable objective, greedy coordinate descent with per-channel
    exhaustive grids must match brute force over the full product grid."""
    rng = np.random.default_rng(2)
    G = 5
    for trial in range(20):
        n = int(rng.integers(2, 5))
        write = sorted(rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)),
                                  replace=False).tolist())
        schema = _grid_schema(n)
        center = rng.uniform(size=n)
        x = rng.uniform(-0.5, 1.5, size=n)
        oracle = QuadraticOracle(center, theta=1e-12)  # unreachable: descend to the end
        res = iterative_conceal(oracle, x, partial(n, write),
                                IterativeBudget(patience=n + 1, budget=500, grid=G),
                                schema)
        # brute force over every combination of grid values on write channels
        axes = [np.linspace(0.0, 1.0, G) for _ in write]
        best = np.inf
        for combo in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(write)):
            y = x.copy()
            y[write] = combo
            best = min(best, oracle.score(y))
        assert res.eps_after == pytest.approx(best, rel=1e-12)


def test_patience_stops_stalled_descent():
    schema = _grid_schema(2)
    # center far outside the grid: the first mutation helps, nothing after
    oracle = QuadraticOracle(center=[5.0, 5.0], theta=1e-9)
    x = np.array([-3.0, -3.0])
    res = iterative_conceal(oracle, x, unconstrained(2),
                            IterativeBudget(patience=2, budget=100, grid=3), schema)
    assert not res.solved
    # both channels go stale after their single improvement each
    assert res.iterations < 100


def test_budget_caps_iterations():
    schema = _grid_schema(3)
    oracle = QuadraticOracle(center=[0.5] * 3, theta=1e-12)
    x = np.array([2.0, 2.0, 2.0])
    res = iterative_conceal(oracle, x, unconstrained(3),
                            IterativeBudget(patience=4, budget=4, grid=3), schema)
    assert res.iterations <= 4


def test_empty_write_set_rejected():
    schema = _grid_schema(2)
    oracle = QuadraticOracle(center=[0.0, 0.0], theta=0.5)
    c = unconstrained(2)
    object.__setattr__(c, "write", ())
    with pytest.raises(SpecError):
        iterative_conceal(oracle, np.zeros(2), c, IterativeBudget(), schema)


def _plant(rows=500, seed=0):
    rng = np.random.default_rng(seed)
    base = 3.0 + np.sin(np.linspace(0, 25, rows))[:, None] * np.array([1.0, 0.7, 1.3])
    values = base + rng.normal(scale=0.05, size=(rows, 3))
    return TimeSeries(["c0", "c1", "c2"], values)


def test_oracle_scores_match_detector_trace():
    ts = _plant()
    det, _ = build_detector("dense", ts, TrainConfig(max_epochs=25, seed=0), W=3)
    trace = detect_series(det, ts)
    oracle = DetectorOracle(det)
    m = det.history
    for t in (0, 5, 100):
        if m == 0 or t == 0:
            oracle.set_context(None)
        else:
            oracle.set_context(ts.values[t - m:t])
        _, eps = oracle.query_batch(ts.values[t][None])
        assert eps[0] == pytest.approx(trace.epsilon[t], rel=1e-9)


def test_candidate_grids_are_worked_out_once_per_run(monkeypatch):
    """A series attack, or one oracle over a stream of rows, makes each
    channel's grid once, however many rows and iterations use it."""
    ts = _plant()
    schema = SensorSchema(tuple(
        Channel(n, "continuous", 1) for n in ts.names)).with_ranges_from(ts.values)
    det, _ = build_detector("dense", ts, TrainConfig(max_epochs=5, seed=0), W=3)
    labels = np.zeros(len(ts), dtype=int)
    labels[200:260] = 1
    attacked = TimeSeries(ts.names, ts.values + 2.0 * labels[:, None], labels=labels)
    calls = []
    linspace = np.linspace
    monkeypatch.setattr(np, "linspace", lambda *a, **k: calls.append(a) or linspace(*a, **k))
    budget = IterativeBudget(patience=5, budget=60, grid=20)
    iterative._mutation_values.cache_clear()
    _, _, results = conceal_series_iterative(det, attacked, unconstrained(3), budget, schema)
    assert sum(r.iterations for r in results) > 3 and 0 < len(calls) <= 3

    calls.clear()
    iterative._mutation_values.cache_clear()
    oracle = DetectorOracle(det)
    for t in range(200, 260):
        iterative_conceal(oracle, attacked.values[t], unconstrained(3), budget, schema)
    assert 0 < len(calls) <= 3


def test_series_concealment_feeds_reported_history_forward():
    ts = _plant()
    labels = np.zeros(len(ts), dtype=int)
    labels[200:220] = 1
    attacked = TimeSeries(ts.names, ts.values * 1.0, labels=labels)
    attacked.values[200:220, 0] += 2.5  # visible offset anomaly
    schema = SensorSchema(tuple(
        Channel(n, "continuous", 1) for n in ts.names)).with_ranges_from(ts.values)
    det, _ = build_detector("dense", ts, TrainConfig(max_epochs=25, seed=0), W=3)
    out, log, results = conceal_series_iterative(
        det, attacked, unconstrained(3), IterativeBudget(patience=5, budget=60), schema)
    assert len(results) == 20
    for r in results:
        assert r.eps_after <= r.eps_before + 1e-15
    # reported series is what the detector scores: solved rows stay quiet
    trace = detect_series(det, out)
    eps_by_t = {r.t: r for r in results}
    for t, r in eps_by_t.items():
        assert trace.epsilon[t] == pytest.approx(r.eps_after, rel=1e-9)
    np.testing.assert_array_equal(out.values[~(labels == 1)], attacked.values[~(labels == 1)])
    assert np.flatnonzero(log.counts).size > 0


def test_rescored_best_row_is_not_an_improvement():
    """A grid holds the current row itself; scored in a batch it can come
    out a rounding step lower. That is no improvement: the row keeps its
    score, its channel goes stale and it does not count as solved."""
    schema = _grid_schema(2)
    oracle = BatchUlpOracle(center=[0.5, 5.0], theta=0.0)
    x = np.array([0.5, 0.0])        # channel 0 already at the grid's best value
    oracle.theta = oracle.score(x)      # one ulp lower would be below it
    res = iterative_conceal(oracle, x, partial(2, [0]),
                            IterativeBudget(patience=5, budget=50, grid=5), schema)
    assert not res.solved
    assert res.iterations == 1
    assert res.eps_after == res.eps_before
    np.testing.assert_array_equal(res.x_prime, x)


MIXED = SensorSchema((
    Channel("level", "continuous", 1, vmin=0.0, vmax=1.0),
    Channel("pump", "binary", 1),
    Channel("fixed", "continuous", 1, vmin=2.0, vmax=2.0),
    Channel("flow", "continuous", 2, vmin=-1.0, vmax=1.0),
    Channel("mode", "categorical", 2, allowed_values=(0.0, 2.0, 5.0)),
))


@pytest.mark.parametrize("max_rows", [7, 120, iterative.MAX_QUERY_ROWS])
@pytest.mark.parametrize("write, budget", [
    ((0, 1, 2, 3, 4), IterativeBudget(patience=15, budget=200, grid=9)),
    ((0, 3), IterativeBudget(patience=2, budget=6, grid=5)),
    ((1, 2, 4), IterativeBudget(patience=1, budget=3, grid=2)),
    ((3,), IterativeBudget(patience=3, budget=3, grid=40)),
])
def test_lockstep_driver_equals_per_row_descent(monkeypatch, max_rows, write, budget):
    """Many rows in lockstep, each against its own context and with oracle
    calls split at max_rows candidates, end exactly as each row run alone."""
    monkeypatch.setattr(iterative, "MAX_QUERY_ROWS", max_rows)
    rng = np.random.default_rng(len(write) * 100 + budget.grid)
    center = np.array([0.4, 1.0, 2.0, -0.2, 2.0])
    oracle = RowwiseOracle(center, theta=0.02)
    X = rng.uniform(-1.0, 3.0, size=(40, 5))
    shifts = rng.normal(scale=0.2, size=(40, 5))
    X[:4] = center + shifts[:4] + rng.normal(scale=0.01, size=(4, 5))     # already safe
    oracle.set_contexts(shifts)
    got = iterative._lockstep(
        oracle, [iterative._descent(x, oracle.theta, write, budget, MIXED) for x in X],
        per_row=True)
    outcomes = set()
    for x, shift, g in zip(X, shifts, got):
        oracle.set_context(shift)
        want = iterative_conceal(oracle, x, partial(5, write), budget, MIXED)
        np.testing.assert_array_equal(g.x_prime, want.x_prime)
        assert (g.solved, g.iterations, g.eps_before, g.eps_after, g.max_nonimprove_streak) \
            == (want.solved, want.iterations, want.eps_before, want.eps_after,
                want.max_nonimprove_streak)
        outcomes.add((g.solved, g.iterations == 0, g.iterations == budget.budget))
    assert (True, True, False) in outcomes          # some rows were safe as given
    assert any(not solved for solved, _, _ in outcomes)   # and some stopped unsolved
