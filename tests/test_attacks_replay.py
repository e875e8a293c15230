"""Replay concealment: copying earlier readings over attack windows."""
import numpy as np
import pytest

from concealab.attacks import ChangeLog, full, partial, replay_attack, unconstrained
from concealab.dataset import TimeSeries
from concealab.errors import DataError, SpecError


def _series(rows=40, n=4):
    values = np.arange(rows * n, dtype=np.float64).reshape(rows, n)
    labels = np.zeros(rows, dtype=int)
    labels[20:30] = 1
    return TimeSeries([f"c{i}" for i in range(n)], values, labels=labels)


def test_replay_copies_offset_rows_on_write_channels():
    ts = _series()
    out, log = replay_attack(ts, offset=10, constraint=partial(4, [1, 3]))
    for t in range(20, 30):
        np.testing.assert_array_equal(out.values[t, [1, 3]], ts.values[t - 10, [1, 3]])
        np.testing.assert_array_equal(out.values[t, [0, 2]], ts.values[t, [0, 2]])
    # rows outside the attack window never move
    np.testing.assert_array_equal(out.values[:20], ts.values[:20])
    np.testing.assert_array_equal(out.values[30:], ts.values[30:])


def test_replay_unconstrained_replaces_whole_rows():
    ts = _series()
    out, log = replay_attack(ts, offset=20, constraint=unconstrained(4))
    np.testing.assert_array_equal(out.values[20:30], ts.values[0:10])
    assert len(log.entries) == 10 * 4


def test_replay_change_log_matches_edits():
    ts = _series()
    out, log = replay_attack(ts, offset=10, constraint=full(4, [2]))
    assert np.flatnonzero(log.counts).tolist() == [2]
    for (t, ch, old, new) in log.entries:
        assert ch == 2
        assert old == ts.values[t, 2]
        assert new == out.values[t, 2]


def test_replay_offset_must_reach_clean_history():
    ts = _series()
    with pytest.raises(SpecError):
        replay_attack(ts, offset=25, constraint=unconstrained(4))  # 20 - 25 < 0
    with pytest.raises(SpecError):
        replay_attack(ts, offset=0, constraint=unconstrained(4))


def test_replay_requires_labels():
    ts = TimeSeries(["a"], np.zeros((10, 1)))
    with pytest.raises(DataError):
        replay_attack(ts, offset=2, constraint=unconstrained(1))
    labels = np.zeros(10, dtype=np.int64)
    labels[5:7] = 1
    out, _ = replay_attack(TimeSeries(["a"], np.arange(10.0)[:, None], labels=labels),
                           offset=2, constraint=unconstrained(1))
    np.testing.assert_array_equal(out.values[:, 0], [0, 1, 2, 3, 4, 3, 4, 7, 8, 9])


def test_replay_warns_when_source_rows_are_attacked():
    ts = _series()
    # offset 5 pulls rows 15..25; rows 20..24 are themselves under attack
    with pytest.warns(UserWarning, match="attack"):
        replay_attack(ts, offset=5, constraint=unconstrained(4))


def test_replay_no_attack_steps_is_identity():
    values = np.random.default_rng(0).uniform(size=(10, 3))
    ts = TimeSeries(["a", "b", "c"], values, labels=np.zeros(10, dtype=int))
    out, log = replay_attack(ts, offset=3, constraint=unconstrained(3))
    np.testing.assert_array_equal(out.values, ts.values)
    assert log.entries == []


def test_replay_preserves_labels_and_timestamps():
    ts = _series()
    out, _ = replay_attack(ts, offset=10, constraint=unconstrained(4))
    np.testing.assert_array_equal(out.labels, ts.labels)
    assert out.timestamps == ts.timestamps


def test_replay_log_equals_per_cell_records(tmp_path):
    # overlapping source and attack rows, unchanged cells, NaN and -0.0
    rng = np.random.default_rng(5)
    values = rng.integers(0, 3, size=(60, 6)).astype(np.float64)
    values[::7, 4] = np.nan
    values[3::9, 1] = -0.0
    labels = np.zeros(60, dtype=int)
    labels[[12, 13, 14, 20, 21, 40, 47, 55]] = 1
    ts = TimeSeries([f"c{i}" for i in range(6)], values, labels=labels)
    with pytest.warns(UserWarning, match="overlaps"):
        out, log = replay_attack(ts, offset=7, constraint=partial(6, [5, 1, 4]))
    one = ChangeLog(6)
    for t in np.nonzero(labels)[0]:
        for ch in (1, 4, 5):
            one.record(int(t), ch, values[t, ch], values[t - 7, ch])
    assert [e[:2] for e in log.entries] == [e[:2] for e in one.entries]
    np.testing.assert_array_equal([e[2:] for e in log.entries], [e[2:] for e in one.entries])
    np.testing.assert_array_equal(log.counts, one.counts)
    log.to_csv(tmp_path / "a.csv")
    one.to_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
