"""CSV I/O, normalization, windowing, and sampling."""
import csv
import io
import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest

from concealab import dataset
from concealab.dataset import (Normalizer, TimeSeries, load_csv, make_timestamps,
                               save_csv, subsample_fraction, window)
from concealab.errors import DataError, DimensionError


def _series(rows=10, names=("a", "b", "c"), labels=True, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-5, 5, size=(rows, len(names)))
    lab = rng.integers(0, 2, size=rows) if labels else None
    return TimeSeries(list(names), values, labels=lab)


def test_csv_round_trip_is_lossless(tmp_path):
    ts = _series(17)
    path = tmp_path / "x.csv"
    save_csv(ts, path)
    back = load_csv(path)
    assert back.names == ts.names
    np.testing.assert_array_equal(back.values, ts.values)
    np.testing.assert_array_equal(back.labels, ts.labels)
    assert back.timestamps == ts.timestamps


def test_csv_round_trip_without_labels(tmp_path):
    ts = _series(5, labels=False)
    path = tmp_path / "x.csv"
    save_csv(ts, path)
    back = load_csv(path)
    assert back.labels is None
    np.testing.assert_array_equal(back.values, ts.values)


def test_missing_label_sentinel_maps_to_normal(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(
        "DATETIME,a,b,ATT_FLAG\n"
        "2026-01-01 00:00:00,1.0,2.0,-999\n"
        "2026-01-01 00:15:00,3.0,4.0,1\n")
    with pytest.warns(UserWarning, match="-999"):
        ts = load_csv(path)
    np.testing.assert_array_equal(ts.labels, [0, 1])


def test_bad_label_value_rejected(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("DATETIME,a,ATT_FLAG\n2026-01-01 00:00:00,1.0,2\n")
    with pytest.raises(DataError):
        load_csv(path)


def test_header_whitespace_and_case_tolerated(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("DATETIME, A ,b\n2026-01-01 00:00:00,1.0,2.0\n")
    ts = load_csv(path, expected_names=["a", "B"])
    assert ts.names == ["a", "B"]
    np.testing.assert_array_equal(ts.values, [[1.0, 2.0]])


def test_columns_reordered_to_expected_schema(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("DATETIME,b,a\n2026-01-01 00:00:00,2.0,1.0\n")
    ts = load_csv(path, expected_names=["a", "b"])
    np.testing.assert_array_equal(ts.values, [[1.0, 2.0]])


def test_missing_expected_column_is_named_in_error(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("DATETIME,a\n2026-01-01 00:00:00,1.0\n")
    with pytest.raises(DataError, match="zeta"):
        load_csv(path, expected_names=["a", "zeta"])


def test_timestamps_follow_sampling_interval():
    ts = make_timestamps(3, 900)
    assert ts[0] == "2026-01-01 00:00:00"
    assert ts[1] == "2026-01-01 00:15:00"
    assert ts[2] == "2026-01-01 00:30:00"


def test_interval_read_from_either_timestamp_format(tmp_path):
    iso = tmp_path / "iso.csv"
    iso.write_text("DATETIME,a\n2026-01-01 00:00:00,1.0\n2026-01-01 00:01:00,2.0\n")
    assert load_csv(iso).interval_s == 60.0
    batadal = tmp_path / "batadal.csv"
    batadal.write_text("DATETIME,a\n06/01/14 00,1.0\n06/01/14 01,2.0\n")
    assert load_csv(batadal).interval_s == 3600.0
    other = tmp_path / "other.csv"
    other.write_text("DATETIME,a\nmonday,1.0\ntuesday,2.0\n")
    assert load_csv(other).interval_s == 900.0


def _copied(tmp_path):
    ts = _series(40)
    path = tmp_path / "x.csv"
    save_csv(ts, path)
    return ts, path, tmp_path / "x.csv.npz"


def test_binary_copy_is_served_while_its_hash_matches(tmp_path, monkeypatch):
    ts, path, copy = _copied(tmp_path)
    assert copy.is_file()
    monkeypatch.setattr(dataset, "_parse_csv", None)   # the copy alone must serve
    back = load_csv(path, expected_names=["c", "a", "b"])
    np.testing.assert_array_equal(back.values, ts.values[:, [2, 0, 1]])
    np.testing.assert_array_equal(back.labels, ts.labels)
    assert back.timestamps == ts.timestamps
    assert back.interval_s == ts.interval_s


def test_edited_csv_is_not_served_from_its_stale_copy(tmp_path):
    ts, path, copy = _copied(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[4].split(",")           # the row at index 3
    fields[1] = "123.5"
    lines[4] = ",".join(fields)
    path.write_text("".join(lines))        # the copy beside it is now stale
    assert copy.is_file()
    edited = ts.values.copy()
    edited[3, 0] = 123.5
    np.testing.assert_array_equal(load_csv(path).values, edited)


@pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "npy"])
def test_damaged_copy_falls_back_to_the_csv(tmp_path, damage):
    ts, path, copy = _copied(tmp_path)
    blob = copy.read_bytes()
    if damage == "truncated":
        copy.write_bytes(blob[:len(blob) // 2])
    elif damage == "garbage":
        copy.write_bytes(b"PK\x03\x04" + bytes(range(256)) * 4)
    elif damage == "empty":
        copy.write_bytes(b"")
    else:
        with copy.open("wb") as fh:
            np.save(fh, np.zeros(3))
    back = load_csv(path)
    np.testing.assert_array_equal(back.values, ts.values)
    np.testing.assert_array_equal(back.labels, ts.labels)


def test_normalizer_round_trip():
    rng = np.random.default_rng(2)
    data = rng.uniform(-3, 9, size=(50, 4))
    norm = Normalizer.fit(data)
    z = norm.transform(data)
    assert z.min() >= 0.0 and z.max() <= 1.0
    np.testing.assert_allclose(norm.inverse_transform(z), data, rtol=1e-12)


def test_normalizer_constant_column_maps_to_half():
    data = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
    norm = Normalizer.fit(data)
    z = norm.transform(data)
    np.testing.assert_array_equal(z[:, 0], 0.5)
    np.testing.assert_array_equal(norm.inverse_transform(z)[:, 0], 7.0)


def test_normalizer_does_not_clamp_out_of_range():
    norm = Normalizer.fit(np.array([[0.0], [10.0]]))
    z = norm.transform(np.array([[20.0]]))
    assert z[0, 0] == pytest.approx(2.0)
    assert norm.inverse_transform(z)[0, 0] == pytest.approx(20.0)


def test_window_shapes_and_alignment():
    data = np.arange(12.0).reshape(6, 2)
    X, Y = window(data, m=2)
    assert X.shape == (4, 3, 2)
    assert Y.shape == (4, 2)
    # first window holds rows 0..2 and targets row 2
    np.testing.assert_array_equal(X[0], data[0:3])
    np.testing.assert_array_equal(Y[0], data[2])
    np.testing.assert_array_equal(X[-1], data[3:6])
    np.testing.assert_array_equal(Y[-1], data[5])


def test_window_m_zero_is_pointwise():
    data = np.arange(8.0).reshape(4, 2)
    X, Y = window(data, m=0)
    assert X.shape == (4, 1, 2)
    np.testing.assert_array_equal(X[:, 0, :], data)
    np.testing.assert_array_equal(Y, data)


@pytest.mark.parametrize("m", [0, 1, 7])
def test_window_is_a_read_only_view_of_the_fancy_index_windows(m):
    data = np.random.default_rng(m).normal(size=(40, 5))
    X, Y = window(data, m)
    idx = np.arange(len(data) - m)[:, None] + np.arange(m + 1)[None, :]
    np.testing.assert_array_equal(X, data[idx])
    np.testing.assert_array_equal(Y, data[m:])
    for view in (X, Y):
        assert np.shares_memory(view, data) and not view.flags.writeable


def test_window_allocates_nothing_like_the_series():
    data = np.random.default_rng(0).normal(size=(4000, 17))
    window(data[:10], 7)
    tracemalloc.start()
    try:
        window(data, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * data.nbytes, f"peak {peak} B is {peak / data.nbytes:.3f}x the series"


def test_window_rejects_short_input():
    with pytest.raises(DimensionError):
        window(np.zeros((2, 3)), m=2)


def test_subsample_prefix_takes_leading_rows():
    data = np.arange(20.0).reshape(10, 2)
    out = subsample_fraction(data, 0.3, mode="prefix")
    np.testing.assert_array_equal(out, data[:3])


def test_subsample_rounds_up():
    data = np.zeros((10, 1))
    assert subsample_fraction(data, 0.05, mode="prefix").shape[0] == 1
    assert subsample_fraction(data, 0.21, mode="prefix").shape[0] == 3


def test_subsample_random_preserves_order_without_replacement():
    data = np.arange(100.0).reshape(100, 1)
    out = subsample_fraction(data, 0.5, mode="random",
                             rng=np.random.default_rng(0))
    assert out.shape[0] == 50
    flat = out[:, 0]
    assert np.all(np.diff(flat) > 0)  # sorted indices, no duplicates
    assert set(flat).issubset(set(data[:, 0]))


def test_subsample_fraction_bounds():
    data = np.zeros((4, 1))
    with pytest.raises(DataError):
        subsample_fraction(data, 0.0)
    with pytest.raises(DataError):
        subsample_fraction(data, 1.5)
    np.testing.assert_array_equal(subsample_fraction(data, 1.0), data)


def test_series_validation():
    with pytest.raises(DimensionError):
        TimeSeries(["a"], np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        TimeSeries(["a", "b"], np.zeros((3, 2)), labels=np.zeros(2, dtype=int))


def test_bad_label_text_names_the_line(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("DATETIME,a,ATT_FLAG\n2026-01-01 00:00:00,1.0,0\n2026-01-01 00:15:00,1.0,x\n")
    with pytest.raises(DataError, match=r"x\.csv:3: non-numeric"):
        load_csv(path)


@pytest.mark.parametrize("interval_s", [900, 60, 3600, 0.5, 1.25, 1 / 3, 319_680])
def test_timestamps_equal_datetime_arithmetic(interval_s):
    t0 = datetime(2026, 1, 1)
    step = timedelta(seconds=interval_s)
    want = [(t0 + i * step).strftime("%Y-%m-%d %H:%M:%S") for i in range(10_000)]
    assert make_timestamps(10_000, interval_s) == want


def _csv_writer_bytes(series):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["DATETIME", *series.names]
                    + (["ATT_FLAG"] if series.labels is not None else []))
    for i in range(len(series)):
        rec = [series.timestamps[i]] + ["%.17g" % v for v in series.values[i]]
        if series.labels is not None:
            rec.append(str(int(series.labels[i])))
        writer.writerow(rec)
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("labels", [True, False])
@pytest.mark.parametrize("stamps", ["plain", "quoted"])
def test_saved_bytes_equal_csv_writer(tmp_path, labels, stamps):
    ts = _series(6, names=("a", "b,c", 'd"e'), labels=labels)
    ts.values[1] = [np.nan, -0.0, np.inf]
    ts.values[2] = [1e-310, -1e300, 0.1]
    if stamps == "quoted":
        ts.timestamps = ["t,0", 't"1', "t\n2", "t\r3", "", "2026-01-01 01:15:00"]
    path = tmp_path / "x.csv"
    save_csv(ts, path)
    assert path.read_bytes() == _csv_writer_bytes(ts)
    back = load_csv(path)
    assert back.timestamps == ts.timestamps
    np.testing.assert_array_equal(back.values, ts.values)


def test_saved_bytes_equal_csv_writer_without_channels(tmp_path):
    # a row of one empty field is the one csv.writer quotes although empty
    ts = TimeSeries([], np.zeros((3, 0)), timestamps=["", "a", "b,c"])
    save_csv(ts, tmp_path / "x.csv")
    assert (tmp_path / "x.csv").read_bytes() == _csv_writer_bytes(ts)
