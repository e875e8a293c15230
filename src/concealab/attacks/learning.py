"""Black-box learning-based concealment.

The attacker never queries the detector. It eavesdrops normal operation
(possibly only a fraction of it), trains an overcomplete autoencoder on the
readable channels, and at attack time morphs each anomalous reading by
passing it through that autoencoder. Post-processing keeps the forgery
physically plausible: discrete channels snap to allowed values and dependent
channels follow their governing actuator.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from ..dataset import Normalizer, TimeSeries, subsample_fraction
from ..errors import DataError, DimensionError, SpecError
from ..nn import TrainConfig, TrainHistory, generator_spec, predict_invariant, train
from ..schema import SensorSchema
from .constraints import AttackConstraint, ChangeLog, attack_rows


@dataclass
class Generator:
    """Trained concealment autoencoder over the attacker's read set."""

    spec: object                 # NetworkSpec over len(read) channels
    params: dict
    normalizer: Normalizer       # fitted on the eavesdropped slice
    read: tuple[int, ...]        # indices into the full channel list
    names: list[str]


def train_generator(normal: TimeSeries, constraint: AttackConstraint,
                    cfg: TrainConfig | None = None, sample_mode: str = "prefix",
                    ) -> tuple[Generator, TrainHistory]:
    """Fit the 2n'/4n'/2n' sigmoid autoencoder on the eavesdropped data.

    The eavesdropped set is fraction p of the normal series (contiguous
    prefix by default, seeded random rows with sample_mode="random"),
    restricted to the read channels.
    """
    cfg = cfg or TrainConfig()
    if normal.labels is not None and (normal.labels != 0).any():
        raise DataError("generator training data contains attack-labeled rows")
    read = list(constraint.read)
    if not read or max(read) >= normal.n_channels:
        raise SpecError("constraint read set does not fit the series")

    rng = np.random.default_rng(cfg.seed)
    sub = subsample_fraction(normal.values, constraint.fraction, sample_mode, rng)
    D = sub[:, read]
    n_read = len(read)
    if D.shape[0] < 10 * n_read:
        warnings.warn(f"only {D.shape[0]} eavesdropped rows for {n_read} channels; "
                      "the generator may underfit", stacklevel=2)

    normalizer = Normalizer().fit(D)
    Dn = normalizer.transform(D)
    spec = generator_spec(n_read)
    params, hist = train(spec, Dn[:, None, :], Dn, cfg)
    names = [normal.names[i] for i in read]
    return Generator(spec, params, normalizer, tuple(read), names), hist


def _post_process(X: np.ndarray, write: tuple[int, ...], schema: SensorSchema) -> np.ndarray:
    """Snap written discrete channels to their nearest allowed value (the
    lowest one on a tie), then, pair by pair, zero written dependent
    channels whose governing actuator reads 0. X: (rows, channels), changed
    in place."""
    wset = set(write)
    for i in schema.discrete_indices():
        if i in wset:
            allowed = np.asarray(schema.channels[i].allowed_values, dtype=np.float64)
            X[:, i] = allowed[np.abs(allowed - X[:, i, None]).argmin(axis=1)]
    for dep, gov in schema.dependent_pairs():
        if dep in wset:
            X[X[:, gov] == 0.0, dep] = 0.0
    return X


def _conceal_rows(gen: Generator, X: np.ndarray, constraint: AttackConstraint,
                  schema: SensorSchema) -> np.ndarray:
    """Morph the rows of X (rows, channels) in one generator pass: run their
    read slice through the generator, copy the outputs onto the write
    channels, then post-process. The pass is batch-invariant, so a row gets
    the same bits alone or with any others."""
    pos = {ch: idx for idx, ch in enumerate(gen.read)}
    missing = [i for i in constraint.write if i not in pos]
    if missing:
        raise SpecError(f"write channels {missing} were not in the generator's training slice")
    out = X.copy()
    if not constraint.write:
        return out
    z = gen.normalizer.transform(X[:, list(gen.read)])
    raw = gen.normalizer.inverse_transform(predict_invariant(gen.spec, gen.params, z))
    out[:, list(constraint.write)] = raw[:, [pos[ch] for ch in constraint.write]]
    return _post_process(out, constraint.write, schema)


def conceal_learning(gen: Generator, x: np.ndarray, constraint: AttackConstraint,
                     schema: SensorSchema) -> np.ndarray:
    """Morph one reading: the one-row case of the series attack, so a row
    concealed here equals that row concealed offline, bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (len(schema),):
        raise DimensionError(f"sample has shape {x.shape}, schema has {len(schema)} channels")
    return _conceal_rows(gen, x[None, :], constraint, schema)[0]


def conceal_series_learning(gen: Generator, series: TimeSeries,
                            constraint: AttackConstraint, schema: SensorSchema,
                            ) -> tuple[TimeSeries, ChangeLog, list[float]]:
    """Apply the generator to every attack-labeled step in one pass; returns the
    concealed series, the change log, and per-step seconds (the pass's time
    over its rows)."""
    rows = attack_rows(series, "learning attack")
    if len(schema) != series.n_channels:
        raise DimensionError("schema does not match series width")

    start = time.perf_counter()
    concealed = _conceal_rows(gen, series.values[rows], constraint, schema)
    seconds = (time.perf_counter() - start) / max(len(rows), 1)
    reported = series.values.copy()
    reported[rows] = concealed
    log = ChangeLog(series.n_channels)
    log.record_rows(rows, series.values[rows], concealed)
    return series.with_values(reported), log, [seconds] * len(rows)
