"""Per-row inference against the batch detector: the stream's scores,
trailing means and labels, the oracle's context-primed queries, and the
stream's bounded memory, for every detector kind."""
import tracemalloc
from collections.abc import Sized

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concealab.detector
from concealab.attacks import (DetectorOracle, IterativeBudget, conceal_series_iterative,
                               iterative_conceal, unconstrained)
from concealab.dataset import Normalizer, TimeSeries
from concealab.detector import (Detector, DetectorStream, build_detector, detect_series,
                                reconstruction_error)
from concealab.errors import DimensionError, SpecError
from concealab.nn import (NetworkSpec, TrainConfig, detector_conv_spec, detector_dense_spec,
                          detector_lstm_spec, init_params)
from concealab.schema import Channel, SensorSchema

NAMES = ["c0", "c1", "c2"]
SPECS = {
    "dense-1": detector_dense_spec(3, window=1),
    "dense-3": detector_dense_spec(3, window=3),
    "lstm-8": detector_lstm_spec(3, window=8),
    "conv-2": detector_conv_spec(3, window=2, filters=(8, 16, 32)),
}


def padded_history(rows, t: int, m: int) -> np.ndarray | None:
    """The m rows before row t, the first row repeated where fewer exist, as
    detect_series pads the head of a series. None when there is no history
    to give (m == 0 or t == 0): the row scored then fills its own window."""
    if m == 0 or t == 0:
        return None
    ctx = np.asarray(rows[max(0, t - m):t], dtype=np.float64)
    if ctx.shape[0] < m:
        ctx = np.vstack([np.repeat(ctx[:1], m - ctx.shape[0], axis=0), ctx])
    return ctx


def _series(rows=300, seed=5):
    rng = np.random.default_rng(seed)
    base = np.sin(np.linspace(0, 30, rows))[:, None] * np.array([1.0, 0.5, 2.0])
    normal = 3.0 + base + rng.normal(scale=0.05, size=(rows, 3))
    attacked = normal.copy()
    attacked[:3, 0] += 1.0          # the padded head rows are attacked too
    attacked[150:180, 1] += 1.5
    return TimeSeries(NAMES, normal), TimeSeries(NAMES, attacked)


@pytest.fixture(scope="module", params=list(SPECS), ids=list(SPECS))
def detector(request):
    normal, attacked = _series()
    spec = SPECS[request.param]
    with pytest.MonkeyPatch.context() as patch:
        # build_detector builds the network of a kind's spec: this small one
        patch.setattr(concealab.detector, "DETECTOR_SPECS", {spec.kind: lambda n: spec})
        det, _ = build_detector(spec.kind, normal, TrainConfig(max_epochs=5, seed=1), W=3)
    return det, attacked


def test_stream_matches_detect_series_on_every_row(detector):
    det, attacked = detector
    trace = detect_series(det, attacked)
    assert trace.labels.any() and not trace.labels.all()
    stream = DetectorStream(det)
    pushed = np.array([stream.push(row) for row in attacked.values])
    np.testing.assert_allclose(pushed[:, 0], trace.epsilon, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(pushed[:, 2], trace.labels)
    with pytest.raises(DimensionError):
        stream.push(attacked.values[0, :2])


@pytest.mark.parametrize("detector", ["dense-1", "dense-3", "conv-2"], indirect=True)
def test_stream_scores_each_row_as_its_one_row_window(detector):
    """Each pushed score equals, bit for bit, the batch detector's score of
    that row's window alone (at the head, the padded window), for every row
    form push accepts: 1-D, (1, n), (n, 1) and a list."""
    det, attacked = detector
    m = det.history
    N = det.normalizer.transform(attacked.values)
    N = np.vstack([np.repeat(N[:1], m, axis=0), N])
    stream = DetectorStream(det)
    forms = (lambda r: r, lambda r: r[None], lambda r: r[:, None], lambda r: r.tolist())
    for t, row in enumerate(attacked.values):
        eps = stream.push(forms[t % len(forms)](row.copy()))[0]
        assert eps == reconstruction_error(det, N[None, t:t + m + 1])[1][0], t


def test_oracle_matches_the_explicit_full_window(detector):
    det, attacked = detector
    m = det.history
    oracle = DetectorOracle(det)
    rng = np.random.default_rng(3)
    for t, ctx in ((0, None), (160, None), (1, padded_history(attacked.values, 1, m)),
                   (160, padded_history(attacked.values, 160, m))):
        oracle.set_context(ctx)
        cands = attacked.values[t] + rng.normal(scale=0.3, size=(7, 3))
        if ctx is None:         # the candidate fills its own history
            wins = np.repeat(cands[:, None, :], m + 1, axis=1)
        else:
            wins = np.concatenate([np.broadcast_to(ctx, (7, m, 3)), cands[:, None, :]], axis=1)
        want_e, want_eps = reconstruction_error(det, det.normalizer.transform(wins))
        e, eps = oracle.query_batch(cands)
        np.testing.assert_allclose(eps, want_eps, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(e, want_e, rtol=1e-12, atol=1e-12 * np.abs(want_e).max())

    # one context per row of a lockstep round; each candidate names its own
    if m:
        ts = np.array([1, 2, 160, 161])
        ctx = np.stack([padded_history(attacked.values, t, m) for t in ts])
        oracle.set_contexts(ctx)
        owner = rng.integers(0, len(ts), size=11)
        cands = attacked.values[ts[owner]] + rng.normal(scale=0.3, size=(11, 3))
        wins = np.concatenate([ctx[owner], cands[:, None, :]], axis=1)
        want_e, want_eps = reconstruction_error(det, det.normalizer.transform(wins))
        e, eps = oracle.query_batch(cands, owner)
        np.testing.assert_allclose(eps, want_eps, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(e, want_e, rtol=1e-12, atol=1e-12 * np.abs(want_e).max())
        with pytest.raises(SpecError):
            oracle.query_batch(cands)       # several contexts, no owners


def test_stream_oracle_scores_as_the_padded_context(detector):
    """The stream is its own oracle, against the history it holds:
    candidates score as with set_context on the padded rows before them,
    bit for bit on the
    dense and conv detectors; the LSTM's ring state, stepped in a batch of
    m + 1, agrees within rounding and gives the same labels."""
    det, attacked = detector
    m = det.history
    rows = attacked.values
    stream = DetectorStream(det)
    reference = DetectorOracle(det)
    rng = np.random.default_rng(7)
    pushed = 0
    for t in sorted({t for t in (0, 1, m - 1, m + 3, 160) if t >= 0}):
        for row in rows[pushed:t]:
            stream.push(row)
        pushed = t
        cands = rows[t] + rng.normal(scale=0.3, size=(9, 3))
        reference.set_context(padded_history(rows, t, m))
        want_e, want_eps = reference.query_batch(cands)
        e, eps = stream.query_batch(cands)
        if det.spec.kind == "lstm":
            np.testing.assert_allclose(eps, want_eps, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(e, want_e, rtol=1e-12,
                                       atol=1e-12 * np.abs(want_e).max())
            np.testing.assert_array_equal(eps > det.theta, want_eps > det.theta)
        else:
            np.testing.assert_array_equal(eps, want_eps)
            np.testing.assert_array_equal(e, want_e)
    with pytest.raises(SpecError):      # no other context can be set on it
        stream.set_contexts(rows[None, :m])


def test_series_attack_waves_see_the_concealed_history(detector, monkeypatch):
    """Rows solved in lockstep waves get, as their context, exactly the
    history as concealed so far, and end as a row-by-row run ends."""
    det, attacked = detector
    m = det.history
    labels = np.zeros(len(attacked), dtype=np.int64)
    labels[:3] = labels[150:162] = labels[170:173] = 1     # from row 0, and two more windows
    attacked = TimeSeries(attacked.names, attacked.values, labels=labels)
    schema = SensorSchema(tuple(Channel(n, "continuous", 1) for n in NAMES)
                          ).with_ranges_from(_series()[0].values)
    constraint, budget = unconstrained(3), IterativeBudget(patience=4, budget=30, grid=11)
    given = []
    real = DetectorOracle.set_contexts
    monkeypatch.setattr(DetectorOracle, "set_contexts",
                        lambda self, rows: (given.extend(np.array(rows)), real(self, rows))[1])
    out, log, results = conceal_series_iterative(det, attacked, constraint, budget, schema)
    monkeypatch.undo()
    ts = np.nonzero(labels)[0]
    assert [r.t for r in results] == list(ts)
    want = sorted(padded_history(out.values, t, m).tobytes() for t in ts if m and t)
    assert sorted(ctx.tobytes() for ctx in given) == want

    oracle = DetectorOracle(det)
    reported = attacked.values.copy()
    for t, got in zip(ts, results):
        oracle.set_context(padded_history(reported, t, m))
        ref = iterative_conceal(oracle, reported[t], constraint, budget, schema)
        reported[t] = ref.x_prime
        assert (got.solved, got.iterations, got.max_nonimprove_streak) == \
            (ref.solved, ref.iterations, ref.max_nonimprove_streak), t
        assert got.eps_after == pytest.approx(ref.eps_after, rel=1e-12)
    np.testing.assert_array_equal(out.values, reported)
    assert len(log.entries) == int((out.values != attacked.values).sum())


def test_stream_memory_stays_bounded(detector):
    det, attacked = detector
    m, W = det.history, det.window
    rows = np.random.default_rng(4).uniform(2.0, 4.0, size=(5000, 3))
    stream = DetectorStream(det)
    tracemalloc.start()
    try:
        for row in rows[:1000]:
            stream.push(row)
        before = tracemalloc.get_traced_memory()[0]
        for row in rows[1000:]:
            stream.push(row)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16_384
    held = list(vars(stream).values())
    held += [a for v in held if isinstance(v, tuple) for a in v]
    for v in held:
        if isinstance(v, np.ndarray):           # rows or LSTM states, one per window row
            assert v.ndim < 2 or v.shape[-2] <= m + 1
        elif isinstance(v, Sized) and not isinstance(v, (str, tuple)):
            assert len(v) <= W                  # trailing scores


def _zero_output_detector(W: int) -> Detector:
    """One channel, a network whose output is exactly 0 and an identity
    normalizer: a row x scores x*x on every path."""
    spec = NetworkSpec("dense", 1, 1, hidden=(1,), output_activation="relu")
    params = init_params(spec, 0)
    for v in params.values():
        v[...] = 0.0
    return Detector(spec, params, Normalizer(np.zeros(1), np.ones(1)),
                    theta=250.0, window=W, names=["x"])


@given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=80),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=200, deadline=None)
def test_stream_trailing_mean_equals_batch_bit_for_bit(xs, W):
    det = _zero_output_detector(W)
    rows = np.asarray(xs)[:, None]
    trace = detect_series(det, TimeSeries(["x"], rows))
    stream = DetectorStream(det)
    pushed = np.array([stream.push(row) for row in rows])
    np.testing.assert_array_equal(pushed[:, 0], trace.epsilon)
    np.testing.assert_array_equal(pushed[:, 1], trace.epsilon_smoothed)
    np.testing.assert_array_equal(pushed[:, 2], trace.labels)
