"""Threshold calibration, smoothing, classification, and the detection
pipeline, checked against brute-force oracles."""
import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concealab.dataset import TimeSeries
from concealab.detector import (DetectionTrace, Detector, DetectorStream, build_detector,
                                calibrate_threshold, detect_series,
                                reconstruction_error, smooth_errors)
from concealab.errors import DataError, DimensionError
from concealab.nn import TrainConfig
from test_incremental import _zero_output_detector


def brute_force_percentile(values, q):
    """Sort and linearly interpolate at rank q/100 * (N-1)."""
    s = sorted(values)
    rank = q / 100.0 * (len(s) - 1)
    lo = int(np.floor(rank))
    hi = int(np.ceil(rank))
    frac = rank - lo
    return s[lo] * (1 - frac) + s[hi] * frac


def brute_force_smooth(eps, W):
    out = []
    for t in range(len(eps)):
        lo = max(0, t - W + 1)
        out.append(float(np.mean(eps[lo:t + 1])))
    return np.asarray(out)


def test_threshold_on_consecutive_integers():
    vals = np.arange(1.0, 201.0)
    assert calibrate_threshold(vals) == pytest.approx(199.005)
    assert calibrate_threshold(vals) == pytest.approx(brute_force_percentile(vals, 99.5))


def test_threshold_matches_brute_force_on_random_lists():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 400))
        vals = rng.exponential(scale=rng.uniform(0.1, 5.0), size=n)
        got = calibrate_threshold(vals)
        want = brute_force_percentile(vals, 99.5)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_threshold_rejects_empty():
    with pytest.raises(DataError):
        calibrate_threshold(np.array([]))


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=200, deadline=None)
def test_smoothing_matches_brute_force(eps, W):
    got = smooth_errors(np.asarray(eps), W)
    np.testing.assert_allclose(got, brute_force_smooth(eps, W), rtol=1e-9, atol=1e-9)


def test_smoothing_prefix_uses_partial_means():
    eps = np.array([4.0, 2.0, 6.0, 0.0])
    got = smooth_errors(eps, 3)
    np.testing.assert_allclose(got, [4.0, 3.0, 4.0, 8.0 / 3.0])


def test_smoothing_window_one_is_identity():
    eps = np.random.default_rng(0).uniform(size=20)
    np.testing.assert_array_equal(smooth_errors(eps, 1), eps)


def test_classification_uses_strict_threshold():
    det = _zero_output_detector(W=3)        # a row x scores exactly x * x
    det.theta = 0.625
    trace = detect_series(det, TimeSeries(["x"], np.array([[0.5], [1.0], [1.5]])))
    np.testing.assert_array_equal(trace.epsilon, [0.25, 1.0, 2.25])
    # smoothed means are 0.25, 0.625, 7/6; only the strict exceedance flags
    np.testing.assert_array_equal(trace.labels, [0, 0, 1])
    # equality is safe
    det = _zero_output_detector(W=1)
    det.theta = 0.25
    assert detect_series(det, TimeSeries(["x"], np.array([[0.5]]))).labels.tolist() == [0]


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_smoothing_never_exceeds_running_peak(eps):
    sm = smooth_errors(np.asarray(eps), 5)
    peaks = np.maximum.accumulate(np.asarray(eps))
    assert np.all(sm <= peaks + 1e-9)


def _tiny_detector(channels=3, W=3, window=1, seed=0, rows=400):
    rng = np.random.default_rng(seed)
    base = np.sin(np.linspace(0, 20, rows))[:, None] * np.array([1.0, 0.5, 2.0])[:channels]
    values = base + rng.normal(scale=0.05, size=(rows, channels)) + 3.0
    ts = TimeSeries([f"c{i}" for i in range(channels)], values)
    det, hist = build_detector("dense", ts, TrainConfig(max_epochs=30, seed=seed), W=W)
    return det, ts, hist


def test_build_detector_threshold_covers_training_data():
    det, ts, _ = _tiny_detector()
    trace = detect_series(det, ts)
    # Q99.5 calibration leaves at most ~0.5% of single-step errors above theta
    assert (trace.epsilon > det.theta).mean() <= 0.01


def test_detect_series_output_alignment():
    det, ts, _ = _tiny_detector()
    trace = detect_series(det, ts)
    assert trace.epsilon.shape == (len(ts),)
    assert trace.epsilon_smoothed.shape == (len(ts),)
    assert trace.labels.shape == (len(ts),)
    assert trace.channel_errors.shape == (len(ts), 3)
    assert trace.timestamps == ts.timestamps
    np.testing.assert_allclose(trace.epsilon_smoothed,
                               brute_force_smooth(trace.epsilon, det.window))


def test_detect_series_checks_channel_names():
    det, ts, _ = _tiny_detector()
    bad = TimeSeries(["x0", "x1", "x2"], ts.values)
    with pytest.raises(DataError):
        detect_series(det, bad)
    with pytest.raises(DimensionError):
        detect_series(det, TimeSeries(["a", "b"], ts.values[:, :2]))


def test_epsilon_is_mean_squared_channel_error():
    det, ts, _ = _tiny_detector()
    trace = detect_series(det, ts)
    np.testing.assert_allclose(trace.epsilon,
                               (trace.channel_errors ** 2).mean(axis=1), rtol=1e-12)


def test_streaming_matches_offline_labels():
    det, ts, _ = _tiny_detector(W=4)
    trace = detect_series(det, ts)
    stream = DetectorStream(det)
    for t in range(len(ts)):
        eps, sm, label = stream.push(ts.values[t])
        assert label == trace.labels[t]
        assert eps == pytest.approx(trace.epsilon[t], rel=1e-9)
        assert sm == pytest.approx(trace.epsilon_smoothed[t], rel=1e-9)


def test_streaming_matches_offline_with_history():
    # a window over past rows exercises the padding at the stream head
    rng = np.random.default_rng(5)
    values = rng.uniform(2.0, 4.0, size=(300, 3))
    ts = TimeSeries(["c0", "c1", "c2"], values)
    det, _ = build_detector("lstm", ts, TrainConfig(max_epochs=5, seed=1), W=2)
    assert det.history > 0
    trace = detect_series(det, ts)
    stream = DetectorStream(det)
    got = np.array([stream.push(values[t])[0] for t in range(len(ts))])
    np.testing.assert_allclose(got, trace.epsilon, rtol=1e-9)


def test_trace_csv_round_trip(tmp_path):
    det, ts, _ = _tiny_detector()
    trace = detect_series(det, ts)
    path = tmp_path / "trace.csv"
    trace.to_csv(path, ts.names)
    import csv
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(ts)
    assert set(rows[0]) == {"timestamp", "epsilon", "epsilon_smoothed", "label",
                            "e_c0", "e_c1", "e_c2"}
    assert float(rows[5]["epsilon"]) == trace.epsilon[5]


def test_build_detector_rejects_attacked_training_data():
    ts = TimeSeries(["a"], np.zeros((50, 1)),
                    labels=np.r_[np.zeros(49, dtype=int), 1])
    with pytest.raises(DataError):
        build_detector("dense", ts, TrainConfig(max_epochs=1))


def test_reconstruction_error_sign_convention():
    det, ts, _ = _tiny_detector()
    Xn = det.normalizer.transform(ts.values[:5])
    e, eps = reconstruction_error(det, Xn[:, None, :])
    from concealab.nn import predict
    out = predict(det.spec, det.params, Xn[:, None, :])
    np.testing.assert_allclose(e, Xn - out, rtol=1e-12)
    np.testing.assert_allclose(eps, (e ** 2).mean(axis=1), rtol=1e-12)


@pytest.mark.parametrize("kind", ["dense", "lstm", "conv"])
def test_fortran_ordered_values_give_the_bits_of_c_ordered_ones(kind):
    """load_csv returns Fortran-ordered values; windows over a bare view of
    them would round the validation and threshold passes differently."""
    rng = np.random.default_rng(7)
    values = np.sin(np.linspace(0, 30, 400))[:, None] * rng.uniform(0.5, 2.0, size=17)
    values = values + rng.normal(scale=0.05, size=values.shape)
    series = [TimeSeries([f"c{i}" for i in range(17)], layout(values))
              for layout in (np.ascontiguousarray, np.asfortranarray)]
    assert series[1].values.flags.f_contiguous and not series[1].values.flags.c_contiguous
    cfg = TrainConfig(max_epochs=3, seed=1)
    (det_c, hist_c), (det_f, hist_f) = (build_detector(kind, ts, cfg, W=2) for ts in series)
    for name in det_c.params:
        np.testing.assert_array_equal(det_f.params[name].view(np.int64),
                                      det_c.params[name].view(np.int64), err_msg=name)
    assert (hist_f.train_loss, hist_f.val_loss) == (hist_c.train_loss, hist_c.val_loss)
    assert det_f.theta == det_c.theta
    for det in (det_c, det_f):
        np.testing.assert_array_equal(detect_series(det, series[1]).epsilon.view(np.int64),
                                      detect_series(det_c, series[0]).epsilon.view(np.int64))


@pytest.mark.parametrize("names", [["a", "b"], None])
def test_trace_csv_bytes_equal_csv_writer(tmp_path, names):
    rng = np.random.default_rng(1)
    trace = DetectionTrace(
        timestamps=["t0", "t,1", 't"2', "2026-01-01 00:45:00"], epsilon=rng.random(4),
        epsilon_smoothed=np.array([0.1, np.nan, -0.0, 1e-300]), labels=np.array([0, 1, 1, 0]),
        channel_errors=rng.normal(size=(4, 2)))
    trace.to_csv(tmp_path / "trace.csv", names)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["timestamp", "epsilon", "epsilon_smoothed", "label"]
                    + [f"e_{n}" for n in names or []])
    for i in range(4):
        writer.writerow([trace.timestamps[i], "%.17g" % trace.epsilon[i],
                         "%.17g" % trace.epsilon_smoothed[i], str(int(trace.labels[i]))]
                        + (["%.17g" % v for v in trace.channel_errors[i]] if names else []))
    assert (tmp_path / "trace.csv").read_bytes() == buf.getvalue().encode("utf-8")
