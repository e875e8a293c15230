"""Attacker capability models: which channels can be observed (read) and
overwritten (write), and how much eavesdropped data is available.

Modes mirror the threat taxonomy: unconstrained (read = write = all),
partial (read all, write k), full (read = write = k), topology (one PLC's
channels). The change log records every value an attack modified and is the
evidence base for best-case feature selection.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ..dataset import TimeSeries, csv_chunks
from ..errors import DataError, SpecError
from ..fileio import atomic_open
from ..schema import SensorSchema

MODES = ("unconstrained", "partial", "full", "topology")


@dataclass(frozen=True)
class AttackConstraint:
    mode: str
    read: tuple[int, ...]
    write: tuple[int, ...]
    fraction: float = 1.0     # share of eavesdropped normal data, p

    def __post_init__(self):
        if self.mode not in MODES:
            raise SpecError(f"unknown constraint mode {self.mode!r}")
        read = tuple(sorted(set(int(i) for i in self.read)))
        write = tuple(sorted(set(int(i) for i in self.write)))
        object.__setattr__(self, "read", read)
        object.__setattr__(self, "write", write)
        if not set(write) <= set(read):
            raise SpecError("write set must be a subset of the read set")
        if not 0.0 < self.fraction <= 1.0:
            raise SpecError(f"data fraction must be in (0, 1], got {self.fraction}")

    @property
    def k(self) -> int:
        return len(self.write)


def unconstrained(n: int, fraction: float = 1.0) -> AttackConstraint:
    all_ch = tuple(range(n))
    return AttackConstraint("unconstrained", all_ch, all_ch, fraction)


def partial(n: int, write: tuple[int, ...] | list[int], fraction: float = 1.0) -> AttackConstraint:
    _check_channels(n, write)
    return AttackConstraint("partial", tuple(range(n)), tuple(write), fraction)


def full(n: int, channels: tuple[int, ...] | list[int], fraction: float = 1.0) -> AttackConstraint:
    _check_channels(n, channels)
    return AttackConstraint("full", tuple(channels), tuple(channels), fraction)


def _check_channels(n: int, channels) -> None:
    if len(channels) == 0:
        raise SpecError("constraint needs at least one channel")
    if any(not 0 <= int(i) < n for i in channels):
        raise SpecError(f"channel index out of range for {n} channels")


def topology_features(schema: SensorSchema, plc: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Channels owned by one PLC. Returns (read, write) for the full mode;
    a partially constrained attacker widens read to all channels itself."""
    owned = tuple(schema.plc_indices(plc))
    if not owned:
        raise SpecError(f"no channels owned by PLC {plc}")
    return owned, owned


def topology_constraint(schema: SensorSchema, plc: int,
                        fraction: float = 1.0) -> AttackConstraint:
    owned, _ = topology_features(schema, plc)
    return AttackConstraint("topology", owned, owned, fraction)


def attack_rows(series: TimeSeries, name: str) -> np.ndarray:
    """The rows a series attack conceals, ascending: the attack-labeled
    ones, so the attack called name needs labels."""
    if series.labels is None:
        raise DataError(f"{name} needs attack labels")
    return np.flatnonzero(series.labels == 1)


def select_best_case_features(counts: np.ndarray, k: int) -> tuple[int, ...]:
    """The k most frequently modified channels from a change log's counts;
    ties go to the lower channel index. Top-k sets are nested in k."""
    counts = np.asarray(counts)
    n = counts.shape[0]
    if not 1 <= k <= n:
        raise SpecError(f"k must be in 1..{n}, got {k}")
    order = sorted(range(n), key=lambda i: (-counts[i], i))
    return tuple(sorted(order[:k]))


class ChangeLog:
    """Per-run audit trail: (timestep, channel, old value, new value)."""

    def __init__(self, n_channels: int):
        self.n_channels = n_channels
        self.entries: list[tuple[int, int, float, float]] = []
        self.counts = np.zeros(n_channels, dtype=np.int64)

    def record(self, t: int, channel: int, old: float, new: float) -> None:
        if old == new:
            return
        self.entries.append((int(t), int(channel), float(old), float(new)))
        self.counts[channel] += 1

    def record_rows(self, ts: np.ndarray, old: np.ndarray, new: np.ndarray,
                    channels=None) -> None:
        """Record every changed cell of rows ts (old and new: (rows,
        channels), or (rows, len(channels)) holding just the given channels
        in ascending order), row by row, as `record` would one at a time."""
        r, j = np.nonzero(old != new)
        ch = j if channels is None else np.asarray(channels, dtype=np.int64)[j]
        self.entries += zip(np.asarray(ts)[r].tolist(), ch.tolist(),
                            old[r, j].tolist(), new[r, j].tolist())
        self.counts += np.bincount(ch, minlength=self.n_channels)

    def to_csv(self, path) -> None:
        columns = list(zip(*self.entries)) or [()] * 4
        with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(csv_chunks(["timestep", "channel", "old", "new"], "ddgg", columns))

    @classmethod
    def from_csv(cls, path, n_channels: int) -> "ChangeLog":
        log = cls(n_channels)
        try:
            fh = open(path, newline="", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot open change log {path}: {exc}") from exc
        with fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["timestep", "channel", "old", "new"]:
                raise DataError(f"{path}: not a change log")
            for rec in reader:
                log.record(int(rec[0]), int(rec[1]), float(rec[2]), float(rec[3]))
        return log
