"""Channel metadata for multivariate ICS time series.

A SensorSchema names each channel, classifies it (continuous, binary,
categorical), and records the side information attacks and post-processing
need: allowed discrete values, normal-operation ranges, PLC assignment, and
"this flow is governed by that actuator status" dependency links.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .checks import check
from .errors import DataError, SpecError
from .fileio import atomic_open

KINDS = ("continuous", "binary", "categorical")


@dataclass(frozen=True)
class Channel:
    name: str
    kind: str = "continuous"
    plc: int | None = None
    depends_on: str | None = None  # governing status channel, value forced 0 when it is 0
    allowed_values: tuple[float, ...] | None = None
    vmin: float | None = None
    vmax: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"channel {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "binary" and self.allowed_values is None:
            object.__setattr__(self, "allowed_values", (0.0, 1.0))
        if self.kind == "categorical" and not self.allowed_values:
            raise SpecError(f"channel {self.name!r}: categorical needs allowed_values")


class SensorSchema:
    """Ordered collection of channels with name lookup."""

    def __init__(self, channels: list[Channel]):
        names = [c.name for c in channels]
        if len(set(names)) != len(names):
            raise SpecError("duplicate channel names in schema")
        by_name = {c.name: c for c in channels}
        for c in channels:
            if c.depends_on is None:
                continue
            gov = by_name.get(c.depends_on)
            if gov is None:
                raise SpecError(f"channel {c.name!r} depends on unknown channel {c.depends_on!r}")
            if gov.kind == "continuous":
                raise SpecError(
                    f"channel {c.name!r} depends on {gov.name!r}, which must be discrete")
        self.channels = list(channels)
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self) -> int:
        return len(self.channels)

    def __iter__(self):
        return iter(self.channels)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.channels]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SpecError(f"unknown channel {name!r}") from None

    def discrete_indices(self) -> tuple[int, ...]:
        """Channels whose values must stay on an allowed grid (binary + categorical)."""
        return tuple(i for i, c in enumerate(self.channels) if c.kind != "continuous")

    def dependent_pairs(self) -> tuple[tuple[int, int], ...]:
        """(dependent, governing) index pairs; dependent is forced to 0 when governor is 0."""
        return tuple((i, self.index(c.depends_on))
                     for i, c in enumerate(self.channels) if c.depends_on is not None)

    def plc_indices(self, plc: int) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.channels) if c.plc == plc)

    def with_ranges_from(self, matrix: np.ndarray) -> "SensorSchema":
        """Return a copy whose vmin/vmax come from observed per-channel extremes."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self):
            raise DataError(f"range matrix has shape {matrix.shape}, schema has {len(self)} channels")
        lo = matrix.min(axis=0)
        hi = matrix.max(axis=0)
        return SensorSchema([replace(c, vmin=float(lo[i]), vmax=float(hi[i]))
                             for i, c in enumerate(self.channels)])

    # -- JSON round trip ----------------------------------------------------

    def to_dict(self) -> dict:
        """Each channel's fields but the null ones and a binary channel's
        allowed values, which are its default."""
        return {"channels": [{k: v for k, v in asdict(c).items()
                              if v is not None and (k != "allowed_values" or c.kind != "binary")}
                             for c in self.channels]}

    @classmethod
    def from_dict(cls, d: dict) -> "SensorSchema":
        raw = d.get("channels") if isinstance(d, dict) else None
        check("channels", [Channel], raw, DataError)
        return cls([Channel(**{**c, "allowed_values": None if c.get("allowed_values") is None
                                else tuple(c["allowed_values"])}) for c in raw])

    def save(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SensorSchema":
        try:
            with open(path, encoding="utf-8") as fh:
                d = json.load(fh)
        except (OSError, ValueError) as exc:     # ValueError: not JSON, or not UTF-8
            raise DataError(f"cannot read schema {path}: {exc}") from exc
        try:
            return cls.from_dict(d)
        except (DataError, SpecError) as exc:
            raise type(exc)(f"schema {path}: {exc}") from None


def batadal_schema() -> SensorSchema:
    """The 43-channel C-Town layout used by the BATADAL competition data.

    PLC grouping is approximate (pressure-junction ownership is not published
    channel by channel) and only feeds topology-constrained feature selection.
    """
    chans: list[Channel] = []

    def tank(name, plc):
        chans.append(Channel(name, "continuous", plc=plc))

    def pump(i, plc):
        chans.append(Channel(f"F_PU{i}", "continuous", plc=plc, depends_on=f"S_PU{i}"))
        chans.append(Channel(f"S_PU{i}", "binary", plc=plc))

    def pressure(j, plc):
        chans.append(Channel(f"P_J{j}", "continuous", plc=plc))

    plc_of_pump = {1: 1, 2: 1, 3: 1, 4: 3, 5: 3, 6: 5, 7: 5, 8: 5, 9: 5, 10: 5, 11: 5}
    plc_of_pressure = {280: 1, 269: 1, 300: 3, 256: 3, 289: 3, 415: 3,
                       302: 5, 306: 5, 307: 5, 317: 5, 14: 8, 422: 8}

    for i, plc in enumerate((2, 4, 6, 7, 8, 9, 9), start=1):
        tank(f"L_T{i}", plc)
    for i in range(1, 12):
        pump(i, plc_of_pump[i])
    chans.append(Channel("F_V2", "continuous", plc=3, depends_on="S_V2"))
    chans.append(Channel("S_V2", "binary", plc=3))
    for j in (280, 269, 300, 256, 289, 415, 302, 306, 307, 317, 14, 422):
        pressure(j, plc_of_pressure[j])
    return SensorSchema(chans)
