"""Attacker capability models and the change log."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concealab.attacks import (AttackConstraint, ChangeLog, full, partial,
                               select_best_case_features, topology_constraint,
                               topology_features, unconstrained)
from concealab.errors import SpecError


def test_write_must_be_subset_of_read():
    with pytest.raises(SpecError):
        AttackConstraint("partial", read=(0, 1), write=(0, 2), fraction=1.0)
    c = AttackConstraint("partial", read=(0, 1, 2), write=(1,), fraction=1.0)
    assert c.k == 1


def test_unconstrained_covers_everything():
    c = unconstrained(5)
    assert c.read == (0, 1, 2, 3, 4)
    assert c.write == c.read
    assert c.mode == "unconstrained"


def test_partial_reads_all_writes_some():
    c = partial(5, [3, 1])
    assert c.read == (0, 1, 2, 3, 4)
    assert c.write == (1, 3)


def test_full_reads_only_what_it_writes():
    c = full(5, [3, 1])
    assert c.read == (1, 3)
    assert c.write == (1, 3)


def test_fraction_bounds():
    with pytest.raises(SpecError):
        unconstrained(3, fraction=0.0)
    with pytest.raises(SpecError):
        unconstrained(3, fraction=1.2)
    assert unconstrained(3, fraction=0.25).fraction == 0.25


def test_channel_index_bounds():
    with pytest.raises(SpecError):
        partial(3, [3])
    with pytest.raises(SpecError):
        partial(3, [-1])


def test_best_case_selection_orders_by_change_count():
    counts = np.array([5, 9, 9, 0, 2])
    assert select_best_case_features(counts, 1) == (1,)
    assert select_best_case_features(counts, 2) == (1, 2)  # tie -> lower index
    assert select_best_case_features(counts, 3) == (0, 1, 2)
    assert select_best_case_features(counts, 5) == (0, 1, 2, 3, 4)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_best_case_selection_is_nested(counts):
    counts = np.asarray(counts)
    prev: set = set()
    for k in range(1, len(counts) + 1):
        sel = set(select_best_case_features(counts, k))
        assert len(sel) == k
        assert prev <= sel  # growing k only adds channels
        prev = sel


def test_best_case_selection_bounds():
    with pytest.raises(SpecError):
        select_best_case_features(np.array([1, 2]), 0)
    with pytest.raises(SpecError):
        select_best_case_features(np.array([1, 2]), 3)


def test_topology_constraint_owns_one_substation(toy_schema):
    read, write = topology_features(toy_schema, 1)
    assert read == (0, 1, 2)
    assert write == (0, 1, 2)
    c = topology_constraint(toy_schema, 2)
    assert c.mode == "topology"
    assert c.write == (3, 4)
    assert c.read == (3, 4)
    with pytest.raises(SpecError):
        topology_constraint(toy_schema, 42)


def test_change_log_counts_and_round_trip(tmp_path):
    log = ChangeLog(5)
    log.record(0, 2, 1.0, 2.0)
    log.record(0, 2, 2.0, 2.0)   # no-op changes are not recorded
    log.record(1, 2, 0.0, 1.0)
    log.record(1, 4, 5.0, 6.0)
    np.testing.assert_array_equal(log.counts, [0, 0, 2, 0, 1])
    assert np.flatnonzero(log.counts).tolist() == [2, 4]

    path = tmp_path / "log.csv"
    log.to_csv(path)
    back = ChangeLog.from_csv(path, 5)
    np.testing.assert_array_equal(back.counts, log.counts)
    assert back.entries == log.entries


def test_change_log_record_row():
    log = ChangeLog(3)
    old = np.array([1.0, 2.0, 3.0])
    new = np.array([1.0, 9.0, 3.0])
    log.record_rows(np.array([7]), old[None, :], new[None, :])
    assert log.entries == [(7, 1, 2.0, 9.0)]
    # several rows: entries row by row, as one `record` per changed cell
    rows = np.array([[1.0, 2.0, 3.0], [np.nan, 5.0, 6.0], [0.0, 0.0, 0.0]])
    moved = np.array([[1.0, 2.5, 3.5], [np.nan, 5.0, 6.0], [-1.0, 0.0, 4.0]])
    log.record_rows(np.array([8, 9, 11]), rows, moved)
    one = ChangeLog(3)
    one.record(7, 1, 2.0, 9.0)
    for t, old_row, new_row in zip([8, 9, 11], rows, moved):
        for ch in range(3):
            one.record(t, ch, old_row[ch], new_row[ch])
    assert [e[:2] for e in log.entries] == [e[:2] for e in one.entries]
    np.testing.assert_array_equal([e[2:] for e in log.entries], [e[2:] for e in one.entries])
    np.testing.assert_array_equal(log.counts, one.counts)
