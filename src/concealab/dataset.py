"""Time-series container, CSV round trip, normalization and windowing.

CSV layout: a timestamp column (default DATETIME), one column per channel,
and an optional trailing ATT_FLAG label column (1 under attack, 0 normal,
-999 unlabeled, mapped to 0 with a warning). Floats are written with %.17g
so a save/load round trip reproduces float64 values bit for bit. A CSV may
have a binary copy beside it, `<name>.csv.npz`, which is read instead of
parsing the text only while it holds the sha256 of the CSV's bytes.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import re
import warnings
import zipfile
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError
from .fileio import atomic_open

TIMESTAMP_COL = "DATETIME"
LABEL_COL = "ATT_FLAG"
CHUNK_ROWS = 256
"""Rows that `csv_chunks` and `make_timestamps` format at a time, which
bounds their transient memory."""


@dataclass
class TimeSeries:
    """A named multivariate series with optional attack labels."""

    names: list[str]
    values: np.ndarray                      # (rows, channels) float64
    timestamps: list[str] = field(default_factory=list)
    labels: np.ndarray | None = None        # (rows,) int, 0 normal / 1 attack
    interval_s: float = 900.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionError(f"values must be 2-D, got shape {self.values.shape}")
        if self.values.shape[1] != len(self.names):
            raise DimensionError(
                f"{len(self.names)} names but {self.values.shape[1]} value columns")
        if not self.timestamps:
            self.timestamps = make_timestamps(self.values.shape[0], self.interval_s)
        if len(self.timestamps) != self.values.shape[0]:
            raise DimensionError("timestamps and values disagree on row count")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.values.shape[0],):
                raise DimensionError("labels must be one int per row")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """Same metadata, new matrix (used by attacks to emit tampered copies)."""
        return TimeSeries(self.names, np.asarray(values, dtype=np.float64),
                          list(self.timestamps),
                          None if self.labels is None else self.labels.copy(),
                          self.interval_s)


def make_timestamps(n: int, interval_s: float, start: str = "2026-01-01 00:00:00") -> list[str]:
    """n timestamps interval_s apart from start, to the whole second, as
    `datetime` arithmetic gives them: the step is rounded to microseconds
    by `timedelta`, and the fraction of a second is cut off."""
    t0 = np.datetime64(datetime.fromisoformat(start), "us")
    step = np.timedelta64(timedelta(seconds=float(interval_s)) // timedelta(microseconds=1), "us")
    out = [""] * n
    for lo in range(0, n, CHUNK_ROWS):
        hi = min(n, lo + CHUNK_ROWS)
        text = np.datetime_as_string(t0 + np.arange(lo, hi) * step, unit="s")
        out[lo:hi] = [s.replace("T", " ") for s in text.tolist()]
    return out


# -- CSV --------------------------------------------------------------------

TIMESTAMP_FORMATS = ("%Y-%m-%d %H:%M:%S", "%d/%m/%y %H")
"""Timestamp formats `load_csv` reads the sampling interval from: the one
`save_csv` writes, and BATADAL's."""


def infer_interval(timestamps: list[str]) -> float:
    """Seconds between the first two timestamps, read in one of
    TIMESTAMP_FORMATS; 900 when there are fewer than two, they parse in
    neither format, or they do not increase."""
    if len(timestamps) < 2:
        return 900.0
    for fmt in TIMESTAMP_FORMATS:
        try:
            t0, t1 = (datetime.strptime(ts, fmt) for ts in timestamps[:2])
        except ValueError:
            continue
        step = (t1 - t0).total_seconds()
        return step if step > 0 else 900.0
    return 900.0


def _copy_path(path) -> Path:
    return Path(f"{path}.npz")


def _read_copy(path, data: bytes) -> TimeSeries | None:
    """The series in the binary copy beside path, if one was written from
    exactly these CSV bytes; None when there is none, its hash is of other
    bytes, or it cannot be read (truncated or foreign): the caller then
    parses the CSV."""
    copy = _copy_path(path)
    if not copy.is_file():
        return None
    try:
        with np.load(copy, allow_pickle=False) as z:
            if str(z["sha256"]) != hashlib.sha256(data).hexdigest():
                return None
            return TimeSeries(z["names"].tolist(), z["values"], z["timestamps"].tolist(),
                              z["labels"] if "labels" in z.files else None,
                              float(z["interval_s"]))
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile,
            DimensionError):
        return None


def _write_copy(series: TimeSeries, path, digest: str) -> None:
    """Write the binary copy of a series saved at path: an .npz of its
    arrays and the sha256 of the CSV bytes. Every member is stored with the
    zip format's fixed 1980 date, so the file's bytes depend only on the
    series."""
    arrays = {"sha256": np.array(digest), "names": np.array(series.names),
              "values": series.values, "timestamps": np.array(series.timestamps),
              "interval_s": np.array(series.interval_s, dtype=np.float64)}
    if series.labels is not None:
        arrays["labels"] = series.labels
    with atomic_open(_copy_path(path), "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
        for key, arr in arrays.items():
            with zf.open(zipfile.ZipInfo(f"{key}.npy"), "w") as member:
                np.lib.format.write_array(member, arr, allow_pickle=False)


def load_csv(path, expected_names: list[str] | None = None) -> TimeSeries:
    """Read a series CSV. Column names are whitespace-stripped; the label
    column is recognized by name and -999 entries are treated as unlabeled
    normal rows (a warning is emitted once per file). The sampling interval
    comes from the timestamps (see infer_interval). The binary copy that
    `save_csv` writes beside the CSV is served instead of parsing while it
    holds the sha256 of the CSV's current bytes."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    series = _read_copy(path, data) or _parse_csv(path, data)
    if expected_names is not None:
        # match case-insensitively, then reorder columns to the expected order
        lower = {n.lower(): i for i, n in enumerate(series.names)}
        missing = [n for n in expected_names if n.lower() not in lower]
        if missing:
            raise DataError(f"{path}: missing channel columns: {', '.join(missing)}")
        order = [lower[n.lower()] for n in expected_names]
        series = TimeSeries(list(expected_names), series.values[:, order],
                            series.timestamps, series.labels, series.interval_s)
    return series


def _parse_csv(path, data: bytes) -> TimeSeries:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    has_ts = bool(header) and header[0].upper() == TIMESTAMP_COL
    has_label = bool(header) and header[-1].upper() == LABEL_COL
    lo = 1 if has_ts else 0
    hi = len(header) - 1 if has_label else len(header)
    names = header[lo:hi]
    if not names:
        raise DataError(f"{path}: no channel columns")

    timestamps: list[str] = []
    rows: list[list[float]] = []
    labels: list[int] = []
    unlabeled = 0
    for lineno, rec in enumerate(reader, start=2):
        if not rec or all(not c.strip() for c in rec):
            continue
        if len(rec) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(rec)}")
        if has_ts:
            timestamps.append(rec[0].strip())
        try:
            rows.append([float(c) for c in rec[lo:hi]])
            raw = float(rec[-1]) if has_label else None
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric value ({exc})") from None
        if has_label:
            if raw == -999:
                unlabeled += 1
                labels.append(0)
            elif raw in (0.0, 1.0):
                labels.append(int(raw))
            else:
                raise DataError(f"{path}:{lineno}: label must be 0, 1 or -999, got {raw}")
    if unlabeled:
        warnings.warn(f"{path}: {unlabeled} rows labeled -999 treated as normal",
                      stacklevel=3)
    values = np.array(rows, dtype=np.float64)
    if values.size == 0:
        raise DataError(f"{path}: no data rows")
    return TimeSeries(names=names, values=values, timestamps=timestamps,
                      labels=np.array(labels, dtype=np.int64) if has_label else None,
                      interval_s=infer_interval(timestamps))


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_fields(texts: list[str]) -> list[str]:
    """Text fields as csv.writer writes them in a row of several: quoted
    when they hold a comma, a quote or a line break."""
    if not _NEEDS_QUOTES.search("".join(texts)):
        return texts
    out = []
    for text in texts:
        buf = io.StringIO(newline="")
        csv.writer(buf).writerow([text, ""])
        out.append(buf.getvalue()[:-3])
    return out


def csv_chunks(header: list[str] | None, kinds: str, columns: list):
    """The text of a CSV file, as csv.writer would write it, in pieces of
    at most CHUNK_ROWS rows: comma separated, \\r\\n line ends, text quoted
    only where needed. columns are equal-length lists or 1-D arrays, and
    kinds has one letter per column: "s" text, "d" an integer, "g" a float
    in %.17g, which reads back bit for bit. Each data row is one %-format.
    header None: the data rows alone."""
    if header is not None:
        buf = io.StringIO(newline="")
        csv.writer(buf).writerow(header)
        yield buf.getvalue()
    row = ",".join({"s": "%s", "d": "%d", "g": "%.17g"}[k] for k in kinds) + "\r\n"
    for lo in range(0, len(columns[0]), CHUNK_ROWS):
        part = [c[lo:lo + CHUNK_ROWS] for c in columns]
        part = [_csv_fields(p) if k == "s" else p.tolist() if isinstance(p, np.ndarray) else p
                for k, p in zip(kinds, part)]
        if kinds == "s":
            # csv.writer quotes a row that is one empty field
            part = [[f or '""' for f in part[0]]]
        yield "".join([row % r for r in zip(*part)])


def save_csv(series: TimeSeries, path) -> None:
    """Write a series CSV and its hash-checked binary copy `<path>.npz`,
    which `load_csv` then reads instead of parsing."""
    header = [TIMESTAMP_COL] + series.names
    kinds = "s" + "g" * series.n_channels
    columns = [series.timestamps, *series.values.T]
    if series.labels is not None:
        header.append(LABEL_COL)
        kinds += "d"
        columns.append(series.labels)
    digest = hashlib.sha256()
    with atomic_open(path, "wb") as fh:
        for text in csv_chunks(header, kinds, columns):
            data = text.encode("utf-8")
            fh.write(data)
            digest.update(data)
    _write_copy(series, path, digest.hexdigest())


# -- normalization ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Normalizer:
    """Per-channel min-max scaling to [0, 1] between vmin and vmax.

    Constant channels (max == min) map to 0.5 everywhere and are inverted
    back to their constant. Out-of-range inputs are scaled, not clamped, so
    anomalies keep their magnitude.
    """

    vmin: np.ndarray
    vmax: np.ndarray

    @classmethod
    def fit(cls, matrix: np.ndarray) -> "Normalizer":
        """The normalizer of matrix's per-channel range."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise DimensionError("normalizer needs a non-empty 2-D matrix")
        if not np.isfinite(matrix).all():
            raise DataError("normalizer input contains NaN or inf")
        return cls(matrix.min(axis=0), matrix.max(axis=0))

    def _check(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape[-1] != self.vmin.shape[0]:
            raise DimensionError(
                f"matrix has {matrix.shape[-1]} channels, normalizer has {self.vmin.shape[0]}")
        return matrix

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        return self.scaler()(matrix)

    def scaler(self):
        """`transform` as a function with the span worked out once, for
        callers that scale one row or one small batch at a time."""
        vmin = self.vmin
        span = self.vmax - vmin
        const = span == 0
        safe = np.where(const, 1.0, span)
        if not const.any():
            const = None

        def scale(matrix: np.ndarray) -> np.ndarray:
            out = (self._check(matrix) - vmin) / safe
            if const is not None:
                out[..., const] = 0.5
            return out

        return scale

    def inverse_transform(self, matrix: np.ndarray) -> np.ndarray:
        matrix = self._check(matrix)
        span = self.vmax - self.vmin
        out = matrix * span + self.vmin
        const = span == 0
        if const.any():
            out[..., const] = self.vmin[const]
        return out


# -- windowing and subsampling --------------------------------------------

def window(matrix: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding windows of m+1 consecutive rows.

    Returns (windows, targets): windows[i] = matrix[i : i+m+1] with shape
    (rows-m, m+1, channels); targets[i] is the final row of window i, the
    observation a reconstruction model must reproduce. Both are read-only
    views of one C-ordered float64 copy of matrix (matrix itself when it is
    one), so they take no memory of their own. The order matters: a product
    over a row slice of a Fortran-ordered view rounds differently.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DimensionError("window() needs a 2-D matrix")
    if m < 0:
        raise DimensionError(f"history length m must be >= 0, got {m}")
    rows = matrix.shape[0]
    if rows <= m:
        raise DimensionError(f"need more than m={m} rows, got {rows}")
    wins = np.lib.stride_tricks.sliding_window_view(matrix, m + 1, axis=0)
    return wins.transpose(0, 2, 1), wins[:, :, m]


def fraction_rows(rows: int, p: float) -> int:
    """How many of rows a data fraction p keeps: ceil(p * rows)."""
    return int(math.ceil(p * rows))


def subsample_fraction(matrix: np.ndarray, p: float, mode: str = "prefix",
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """Keep ceil(p * rows) rows: the leading block ("prefix") or a sorted
    random sample without replacement ("random")."""
    matrix = np.asarray(matrix)
    if not 0.0 < p <= 1.0:
        raise DataError(f"fraction must be in (0, 1], got {p}")
    rows = matrix.shape[0]
    keep = fraction_rows(rows, p)
    if mode == "prefix":
        return matrix[:keep]
    if mode == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        idx = np.sort(rng.choice(rows, size=keep, replace=False))
        return matrix[idx]
    raise DataError(f"unknown subsample mode {mode!r}")
