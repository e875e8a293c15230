"""Reconstruction-error anomaly detector.

A trained network reconstructs the current reading vector from its input
window; the per-step score is the mean squared residual in normalized units.
The threshold is the 99.5th percentile of those scores on the training
series, and classification applies a trailing mean of width W before the
strict comparison against the threshold.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .dataset import Normalizer, TimeSeries, csv_chunks, window
from .errors import DataError, DimensionError, SpecError
from .fileio import atomic_open
from .nn import (NetworkSpec, TrainConfig, TrainHistory, dense, detector_conv_spec,
                 detector_dense_spec, detector_lstm_spec, lstm, predict, train)
from .nn.network import run

DEFAULT_PERCENTILE = 99.5


@dataclass
class Detector:
    """Immutable after build; safe to share across attack runs."""

    spec: NetworkSpec
    params: dict
    normalizer: Normalizer
    theta: float
    window: int                      # trailing-mean width W
    names: list[str] = field(default_factory=list)

    @property
    def history(self) -> int:
        """Rows of context before the current one (m); input window is m+1."""
        return self.spec.window - 1

    @property
    def n_channels(self) -> int:
        return self.spec.channels


@dataclass
class DetectionTrace:
    timestamps: list[str]
    epsilon: np.ndarray            # raw per-step score
    epsilon_smoothed: np.ndarray   # trailing W-mean of epsilon
    labels: np.ndarray             # 1 under attack, 0 safe
    channel_errors: np.ndarray     # signed residuals target - output, (steps, channels)
    theta: float
    window: int

    def __len__(self) -> int:
        return len(self.epsilon)

    def to_csv(self, path, channel_names: list[str] | None = None) -> None:
        """timestamp, epsilon, epsilon_smoothed, label, then one residual
        column per channel when names are given."""
        head = ["timestamp", "epsilon", "epsilon_smoothed", "label"]
        kinds = "sggd"
        columns = [self.timestamps, self.epsilon, self.epsilon_smoothed, self.labels]
        if channel_names:
            head += [f"e_{n}" for n in channel_names]
            kinds += "g" * self.channel_errors.shape[1]
            columns += list(self.channel_errors.T)
        with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(csv_chunks(head, kinds, columns))


def residual_scores(target: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, eps) of a batch of reconstructions, or of one: e[i] = target[i] -
    out[i], eps[i] = mean(e[i]**2). The sum over the count is what np.mean
    does for float64, bit for bit, without its per-call overhead."""
    e = target - out
    return e, np.add.reduce(e * e, axis=-1) / e.shape[-1]


def reconstruction_error(detector: Detector, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and scores for a batch of normalized windows.

    Returns (e, eps): e[i] = target row - reconstruction, eps[i] = mean(e[i]**2).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 2:
        X = X[:, None, :]
    if X.shape[-1] != detector.n_channels:
        raise DimensionError(
            f"sample has {X.shape[-1]} channels, detector expects {detector.n_channels}")
    return residual_scores(X[:, -1, :], predict(detector.spec, detector.params, X))


def calibrate_threshold(errors, percentile: float = DEFAULT_PERCENTILE) -> float:
    """Linear-interpolation percentile (rank = q/100 * (N-1)) of the scores."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise DataError("cannot calibrate a threshold from zero scores")
    return float(np.percentile(errors, percentile))


def trailing_sum(columns):
    """Sum of the columns of a trailing-mean window, oldest first, starting
    from 0.0. The batch detector passes W shifted score arrays, the stream
    its last W scores as floats: the additions run in one order, so both get
    the same bits."""
    total = 0.0
    for col in columns:
        total = total + col
    return total


def smooth_errors(eps: np.ndarray, W: int) -> np.ndarray:
    """Trailing mean over the last W steps; early steps average what exists.

    The head is padded with W - 1 zeros, which leave the sums exact."""
    if W < 1:
        raise SpecError(f"window W must be >= 1, got {W}")
    eps = np.asarray(eps, dtype=np.float64)
    n = eps.size
    padded = np.concatenate([np.zeros(W - 1), eps])
    total = trailing_sum(padded[j:j + n] for j in range(W))
    return total / np.minimum(np.arange(1, n + 1), W)


def detect_series(detector: Detector, series: TimeSeries) -> DetectionTrace:
    """Score every row of a series.

    The first history rows have no complete window; their windows are filled
    by repeating the first reading, so the trace covers the whole series.
    """
    if series.n_channels != detector.n_channels:
        raise DimensionError(
            f"series has {series.n_channels} channels, detector expects {detector.n_channels}")
    if detector.names and series.names != detector.names:
        raise DataError("series channel names do not match the detector's")
    m = detector.history
    N = detector.normalizer.transform(series.values)
    if m > 0:
        N = np.vstack([np.repeat(N[:1], m, axis=0), N])
    X, _ = window(N, m)
    e, eps = reconstruction_error(detector, X)
    smoothed = smooth_errors(eps, detector.window)
    labels = (smoothed > detector.theta).astype(np.int64)
    return DetectionTrace(list(series.timestamps), eps, smoothed, labels, e,
                          detector.theta, detector.window)


class DetectorOracle:
    """Answers candidate queries with exactly the detector's values.

    Context rows are the m raw readings preceding the current step, as
    reported so far (concealed rows included). With no context set and
    m > 0 the candidate itself fills the history, matching how the detector
    pads the very first row of a series. The context is worked into the
    detector once per step: for the LSTM, its state after the context rows,
    so a query runs only the final cell step. Several contexts can be set
    at once, one per row of a lockstep round; each candidate then names
    its own. A DetectorStream is an oracle whose context is the history it
    holds; set_context is for callers that hold raw rows.
    """

    def __init__(self, detector: Detector):
        self.detector = detector
        self._scale = detector.normalizer.scaler()
        self._ctx = None    # per context: normalized (m, n) rows; for the LSTM, (h, c) after them
        self._n_ctx = 0
        self.queries = 0

    @property
    def theta(self) -> float:
        return float(self.detector.theta)

    def set_context(self, rows: np.ndarray | None) -> None:
        """One context, (m, n) raw rows, for every candidate; None: each
        candidate fills its own history."""
        if rows is None:
            self._ctx = None
        else:
            self.set_contexts(np.asarray(rows, dtype=np.float64)[None])

    def set_contexts(self, rows: np.ndarray) -> None:
        """R contexts, (R, m, n) raw rows, worked in together: the LSTM runs
        its m prefix steps once for all R. query_batch's owner then picks
        one per candidate."""
        det = self.detector
        m = det.history
        if m == 0:
            self._ctx = None
            return
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 3 or rows.shape[1:] != (m, det.n_channels):
            raise DimensionError(f"contexts must be (R, {m}, {det.n_channels}), got {rows.shape}")
        ctx = self._scale(rows)
        if det.spec.kind == "lstm":
            h = c = np.zeros((len(rows), det.spec.hidden[0]))
            for r in range(m):
                h, c, _, _ = lstm.step(det.params, ctx[:, r], h, c)
            ctx = (h, c)
        self._ctx = ctx
        self._n_ctx = len(rows)

    def _context(self):
        """None, normalized (R, m, n) context rows, or the LSTM's (h, c) after them."""
        return self._ctx

    def query_batch(self, X: np.ndarray, owner: np.ndarray | None = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """X: (batch, n) raw candidate readings -> (residuals, scores).
        owner: the context index of each candidate, needed when several
        contexts are set."""
        det = self.detector
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != det.n_channels:
            raise DimensionError(f"candidates must be (batch, {det.n_channels})")
        ctx = self._context()
        if owner is None and ctx is not None and self._n_ctx != 1:
            raise SpecError(f"{self._n_ctx} contexts are set; each candidate needs its owner")
        Xn = self._scale(X)
        m = det.history
        self.queries += X.shape[0]
        if ctx is not None and det.spec.kind == "lstm":
            h, c = ctx
            if owner is not None:
                h, c = h[owner], c[owner]
            h, _, _, _ = lstm.step(det.params, Xn, h, c)
            return residual_scores(Xn, lstm.readout(det.spec, det.params, h))
        if m == 0:
            wins = Xn[:, None, :]
        elif ctx is None:
            wins = np.repeat(Xn[:, None, :], m + 1, axis=1)
        else:
            ctx = (ctx[owner] if owner is not None
                   else np.broadcast_to(ctx, (X.shape[0], m, X.shape[1])))
            wins = np.concatenate([ctx, Xn[:, None, :]], axis=1)
        return reconstruction_error(det, wins)


class DetectorStream(DetectorOracle):
    """Online counterpart of detect_series, one row at a time in bounded
    memory. Before enough rows arrived, the first row fills the missing
    history, as detect_series pads.

    The LSTM keeps the states (h, c) of the m+1 windows the next row belongs
    to, one per row of a ring, and advances them all with one cell step per
    row; the window that ends at the row is read out and its ring row starts
    over from zero. The other kinds keep the last m+1 normalized rows as one
    flat vector (at m = 0, the row itself), which a dense detector runs its
    layer loop on. The trailing mean keeps the last W scores. As an oracle
    it scores candidates for the next row as push would, against that history.
    """

    def __init__(self, detector: Detector):
        super().__init__(detector)
        self._n_ctx = 1
        kind = detector.spec.kind
        self._layers = dense.layers(detector.spec, detector.params) if kind == "dense" else None
        self._eps: deque[float] = deque(maxlen=detector.window)
        self._ring: np.ndarray | None = None    # ((m+1) * n,) normalized, oldest first
        self._state: tuple[np.ndarray, np.ndarray] | None = None   # (m+1, hidden) each
        self._slot = 0                          # ring row of the window ending now

    def _context(self):
        """The next row's: the LSTM ring row whose window ends at it, or the
        last m normalized rows; None before the first row or with m = 0."""
        m = self.detector.history
        if not m:
            return None
        if self._state is not None:
            k = self._slot
            return self._state[0][k:k + 1], self._state[1][k:k + 1]
        return None if self._ring is None else self._ring.reshape(1, m + 1, -1)[:, 1:]

    def set_contexts(self, rows: np.ndarray) -> None:
        raise SpecError("a stream's context is the history it holds")

    def _open(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ring states before the first row x: the window that ends j rows
        later has already seen m - j padding copies of x."""
        det = self.detector
        m = det.history
        h_ring = np.zeros((m + 1, det.spec.hidden[0]))
        c_ring = np.zeros_like(h_ring)
        h, c = h_ring[m:], c_ring[m:]
        for j in range(m - 1, -1, -1):
            h, c, _, _ = lstm.step(det.params, x, h, c)
            h_ring[j], c_ring[j] = h[0], c[0]
        return h_ring, c_ring

    def push(self, row: np.ndarray) -> tuple[float, float, int]:
        """Feed one raw reading; returns (eps, eps_smoothed, label)."""
        det = self.detector
        m = det.history
        x = self._scale(np.asarray(row, dtype=np.float64).ravel())
        if det.spec.kind == "lstm":
            h, c = self._state or self._open(x[None])
            h, c, _, _ = lstm.step(det.params, x[None], h, c)
            k = self._slot
            out = lstm.readout(det.spec, det.params, h[k:k + 1])[0]
            h[k] = c[k] = 0.0
            self._state = (h, c)
            self._slot = (k + 1) % len(h)
        else:
            ring = self._ring
            if ring is None or not m:
                ring = self._ring = np.tile(x, m + 1) if m else x
            else:
                ring[:-len(x)] = ring[len(x):]
                ring[-len(x):] = x
            out = (dense.run_layers(self._layers, ring) if self._layers is not None
                   else run(det.spec, det.params, ring.reshape(1, m + 1, -1))[0])
        eps = float(residual_scores(x, out)[1])
        self._eps.append(eps)
        smoothed = trailing_sum(self._eps) / len(self._eps)
        return eps, smoothed, int(smoothed > det.theta)


def build_detector(kind: str, normal: TimeSeries, cfg: TrainConfig | None = None,
                   W: int = 1, spec: NetworkSpec | None = None,
                   ) -> tuple[Detector, TrainHistory]:
    """Train a detector on normal-operation data.

    Normalization stats come from the leading training split only; the
    threshold is calibrated on scores over the full normal series. Data
    carrying attack labels is rejected, the detector must never see attacks.
    """
    cfg = cfg or TrainConfig()
    if normal.labels is not None and (normal.labels != 0).any():
        raise DataError("detector training data contains attack-labeled rows")
    if W < 1:
        raise SpecError(f"window W must be >= 1, got {W}")
    n = normal.n_channels
    if spec is None:
        if kind == "dense":
            spec = detector_dense_spec(n)
        elif kind == "lstm":
            spec = detector_lstm_spec(n)
        elif kind == "conv":
            spec = detector_conv_spec(n)
        else:
            raise SpecError(f"unknown detector kind {kind!r}")
    elif spec.channels != n:
        raise DimensionError(f"spec expects {spec.channels} channels, data has {n}")

    normalizer = Normalizer().fit(normal.values[:cfg.n_train(len(normal))])
    N = normalizer.transform(normal.values)

    X, Y = window(N, spec.window - 1)
    params, hist = train(spec, X, Y, cfg)

    det = Detector(spec, params, normalizer, 0.0, W, list(normal.names))
    _, eps = reconstruction_error(det, X)
    det.theta = calibrate_threshold(eps)
    return det, hist
