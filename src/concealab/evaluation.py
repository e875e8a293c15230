"""Metrics, attack-effectiveness evaluation, the attack table and the
realtime loop, sweep harness, latency timing.

Under-attack is the positive class everywhere. Attack effectiveness is
Recall restricted to ground-truth attack steps: the attacker wins by driving
it toward zero, and a constrained replay can push it above the baseline.
"""
from __future__ import annotations

import csv
import json
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .attacks import (AttackConstraint, ChangeLog, Generator, IterativeBudget,
                      conceal_learning, conceal_series_iterative, conceal_series_learning,
                      full, iterative_conceal, partial, replay_attack, select_best_case_features,
                      topology_features, train_generator, unconstrained)
from .dataset import TimeSeries
from .detector import Detector, DetectorStream, detect_series
from .errors import DataError, DimensionError, SpecError
from .fileio import atomic_open
from .nn import TrainConfig
from .schema import SensorSchema


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(predicted, truth) -> Confusion:
    predicted = np.asarray(predicted).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if predicted.shape != truth.shape:
        raise DimensionError(f"predicted {predicted.shape} vs truth {truth.shape}")
    return Confusion(
        tp=int(np.sum(predicted & truth)),
        fp=int(np.sum(predicted & ~truth)),
        tn=int(np.sum(~predicted & ~truth)),
        fn=int(np.sum(~predicted & truth)),
    )


def metrics(c: Confusion) -> dict:
    """Recall, Precision, Accuracy, FPR; None where the denominator is 0."""

    def ratio(num: int, den: int) -> float | None:
        return num / den if den else None

    return {
        "recall": ratio(c.tp, c.tp + c.fn),
        "precision": ratio(c.tp, c.tp + c.fp),
        "accuracy": ratio(c.tp + c.tn, c.total),
        "fpr": ratio(c.fp, c.fp + c.tn),
    }


def attack_windows(truth) -> list[tuple[int, int]]:
    """Contiguous [start, stop) runs of under-attack truth labels."""
    truth = np.asarray(truth).astype(bool)
    windows = []
    start = None
    for i, v in enumerate(truth):
        if v and start is None:
            start = i
        elif not v and start is not None:
            windows.append((start, i))
            start = None
    if start is not None:
        windows.append((start, len(truth)))
    return windows


def attack_recall(detector: Detector, series: TimeSeries,
                  truth=None) -> float | None:
    """Detector Recall over ground-truth attack steps only (normal steps are
    excluded; the attacker's goal is to push this to 0)."""
    if truth is None:
        truth = series.labels
    if truth is None:
        raise DataError("attack_recall needs ground-truth labels")
    truth = np.asarray(truth).astype(bool)
    if truth.shape != (len(series),):
        raise DimensionError("truth length does not match series")
    if not truth.any():
        return None
    trace = detect_series(detector, series)
    return float(np.mean(trace.labels[truth]))


def scenario_detection(predicted, truth) -> list[dict]:
    """Per contiguous attack window: detected iff >= 1 under-attack label
    falls inside it, plus the window's own recall."""
    predicted = np.asarray(predicted).astype(bool)
    out = []
    for start, stop in attack_windows(truth):
        hits = predicted[start:stop]
        out.append({"start": int(start), "stop": int(stop),
                    "detected": bool(hits.any()),
                    "recall": float(np.mean(hits))})
    return out


@dataclass
class EvalReport:
    counts: Confusion
    metric_values: dict
    attack_recall: float | None = None
    scenarios: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "counts": {"tp": self.counts.tp, "fp": self.counts.fp,
                       "tn": self.counts.tn, "fn": self.counts.fn},
            "metrics": self.metric_values,
            "attack_recall": self.attack_recall,
            "scenarios": self.scenarios,
            "meta": self.meta,
        }

    def save(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def evaluate(detector: Detector, series: TimeSeries, truth=None,
             meta: dict | None = None) -> EvalReport:
    """Full-series evaluation: confusion over every step, metrics, Recall on
    attack steps, per-scenario detection."""
    if truth is None:
        truth = series.labels
    if truth is None:
        raise DataError("evaluation needs ground-truth labels")
    truth = np.asarray(truth).astype(bool)
    trace = detect_series(detector, series)
    c = confusion(trace.labels, truth)
    rep = EvalReport(c, metrics(c), meta=dict(meta or {}))
    if truth.any():
        rep.attack_recall = float(np.mean(trace.labels[truth]))
        rep.scenarios = scenario_detection(trace.labels, truth)
    return rep


# -- the attack table and the realtime loop ------------------------------------

@dataclass
class SweepInputs:
    """Everything an attack needs to run end to end."""

    detector: Detector | None       # None while a stream attack is readied
    series: TimeSeries              # attacked series with ground-truth labels
    schema: SensorSchema            # carries normal ranges for the mutation grid
    normal: TimeSeries              # eavesdropped normal data (generator training)
    offset: int = 96                # replay offset in timesteps
    budget: IterativeBudget = field(default_factory=IterativeBudget)
    gen_cfg: TrainConfig = field(default_factory=TrainConfig)
    # (constraint, cfg, sample_mode) -> the generator trained with them;
    # None trains it here (the CLI passes one that keeps generators)
    generator: Callable[[AttackConstraint, TrainConfig, str], Generator] | None = None


@dataclass(frozen=True)
class Attack:
    """An attack kind; identity, which conceals nothing, has no hooks.
    series(inputs, constraint, gen) conceals inputs.series offline: (the
    concealed series, its change log, per-step seconds, a function that
    gives the records it adds to attack_meta.json, which a sweep cell never
    calls). rows(inputs, constraint), called before the detector exists,
    gives conceal(stream, gen, t, x), which conceals attacked row t, read
    as x, behind the rows the stream was given. Hooks call the attack
    functions by this module's names, so wrapping one here wraps it for
    every command."""

    generator: bool = False         # conceals with a generator of eavesdropped rows
    replays: bool = False           # copies the rows recorded attack.offset steps earlier
    series: Callable | None = None
    rows: Callable | None = None


def _replay_series(inputs: SweepInputs, constraint: AttackConstraint, gen):
    t0 = time.perf_counter()
    concealed, log = replay_attack(inputs.series, inputs.offset, constraint)
    steps = max(int(np.sum(inputs.series.labels == 1)), 1)
    return concealed, log, [(time.perf_counter() - t0) / steps], dict


def _replay_rows(inputs: SweepInputs, constraint: AttackConstraint):
    # the recorded rows are known before the stream starts
    replayed = replay_attack(inputs.series, inputs.offset, constraint)[0].values
    return lambda stream, gen, t, x: replayed[t]


def _iterative_series(inputs: SweepInputs, constraint: AttackConstraint, gen):
    concealed, log, results = conceal_series_iterative(
        inputs.detector, inputs.series, constraint, inputs.budget, inputs.schema)
    return concealed, log, [r.seconds for r in results], lambda: {
        "steps": [{"t": r.t, "solved": r.solved, "iterations": r.iterations,
                   "eps_before": r.eps_before, "eps_after": r.eps_after} for r in results],
        "solved_fraction": float(np.mean([r.solved for r in results])) if results else None}


def _iterative_rows(inputs: SweepInputs, constraint: AttackConstraint):
    # the stream is the oracle: it scores a candidate behind the rows it was given
    return lambda stream, gen, t, x: iterative_conceal(stream, x, constraint, inputs.budget,
                                                       inputs.schema).x_prime


def _learning_series(inputs: SweepInputs, constraint: AttackConstraint, gen: Generator):
    return (*conceal_series_learning(gen, inputs.series, constraint, inputs.schema), dict)


def _learning_rows(inputs: SweepInputs, constraint: AttackConstraint):
    return lambda stream, gen, t, x: conceal_learning(gen, x, constraint, inputs.schema)


ATTACKS = {
    "identity": Attack(),
    "replay": Attack(replays=True, series=_replay_series, rows=_replay_rows),
    "iterative": Attack(series=_iterative_series, rows=_iterative_rows),
    "learning": Attack(generator=True, series=_learning_series, rows=_learning_rows),
}
SERIES_ATTACKS = tuple(kind for kind, attack in ATTACKS.items() if attack.series)


def stream_attack(stream: DetectorStream, series: TimeSeries, conceal: Callable | None = None,
                  gen: Generator | None = None) -> Iterator[tuple]:
    """Push the rows of series through stream one at a time, each
    attack-labeled row first through conceal(stream, gen, t, x) (a rows
    hook's, which needs labels). Yields (reported row, eps, smoothed eps,
    label, seconds), seconds timing the concealment and the push; the row
    is not a copy, so a caller that keeps it copies it."""
    for t, x in enumerate(series.values):
        start = time.perf_counter()
        if conceal is not None and series.labels[t] == 1:
            x = conceal(stream, gen, t, x)
        eps, smoothed, label = stream.push(x)
        yield x, eps, smoothed, label, time.perf_counter() - start


# -- sweep harness ------------------------------------------------------------

SWEEP_COLUMNS = ["attack", "k", "repetition", "recall", "mean_time_s", "std_time_s"]
FRACTION_COLUMNS = ["fraction", "repetition", "recall", "mean_time_s", "std_time_s"]


@dataclass(frozen=True)
class Cell:
    """One row of a sweep: an attack kind run under a constraint, its
    generator trained with seed and sample_mode, and the columns that name
    its CSV row."""

    kind: str
    constraint: AttackConstraint | None
    seed: int
    sample_mode: str
    row: dict


def sweep_cells(schema: SensorSchema, k_values=(), change_log: ChangeLog | None = None,
                attacks=SERIES_ATTACKS, selection: str = "best-case", mode: str = "partial",
                repetitions: int = 1, base_seed: int = 0, fractions=(),
                fraction_repetitions: int = 10, sample_mode: str = "random") -> list[Cell]:
    """A sweep's cells in row order: for each attack, k value and
    repetition a sweep.csv cell, then for each fraction and repetition a
    fractions.csv cell of the learning attack, unconstrained.

    best-case selection writes the k channels that change_log changed most
    (k_values defaults to a grid from the channel count down); topology
    selection reads k_values as PLC ids (by default every PLC, ascending)
    and writes the channels each one owns. Repetition rep seeds its
    generator with base_seed + rep.

    Without change_log, as before the detector exists, a best-case cell's
    write set is not known yet. In partial mode it stands as every channel:
    the cell reads every channel whatever it writes, so its generator is
    the one the ranked cell asks for. In full mode the cell reads only what
    it writes, so its constraint is None. Every other cell is complete.
    """
    build = {"partial": partial, "full": full}.get(mode)
    if build is None:
        raise SpecError(f"unknown constraint mode {mode!r}")
    n = len(schema)
    by_k = []                       # (k column, constraint)
    if selection == "best-case":
        for k in k_values or range(n, 0, -max(1, n // 8)):
            if not 1 <= k <= n:
                raise SpecError(f"k={k} outside 1..{n}")
            if change_log is not None:
                by_k.append((k, build(n, select_best_case_features(change_log.counts, k))))
            else:
                by_k.append((k, partial(n, tuple(range(n))) if mode == "partial" else None))
    elif selection == "topology":
        for plc in k_values or sorted({c.plc for c in schema if c.plc is not None}):
            write = topology_features(schema, plc)[1]
            by_k.append((len(write), build(n, write)))
    else:
        raise SpecError(f"unknown selection {selection!r}")

    cells = [Cell(kind, constraint, base_seed + rep, "prefix",
                  {"attack": kind, "k": int(k), "repetition": rep})
             for kind in attacks for k, constraint in by_k for rep in range(repetitions)]
    return cells + [Cell("learning", unconstrained(n, p), base_seed + rep, sample_mode,
                         {"fraction": float(p), "repetition": rep})
                    for p in fractions for rep in range(fraction_repetitions)]


def run_attack(kind: str, inputs: SweepInputs, constraint: AttackConstraint,
               gen_cache: dict, seed: int, sample_mode: str = "prefix",
               ) -> tuple[TimeSeries, ChangeLog, list[float], Callable[[], dict]]:
    """Conceal inputs.series with the series hook of ATTACKS[kind] under the
    constraint. A generator, trained with inputs.gen_cfg reseeded to seed
    and sample_mode, is kept in gen_cache."""
    attack, gen = ATTACKS.get(kind, Attack()), None
    if attack.series is None:
        raise SpecError(f"attack kind {kind!r} conceals no series")
    if attack.generator:
        key = (constraint.read, constraint.fraction, seed, sample_mode)
        if key not in gen_cache:
            cfg = replace(inputs.gen_cfg, seed=seed)
            if inputs.generator is not None:
                gen_cache[key] = inputs.generator(constraint, cfg, sample_mode)
            else:
                gen_cache[key] = train_generator(inputs.normal, constraint, cfg,
                                                 sample_mode=sample_mode)[0]
        gen = gen_cache[key]
    return attack.series(inputs, constraint, gen)


def sweep_constraints(inputs: SweepInputs, k_values, change_log: ChangeLog | None = None,
                      attacks=SERIES_ATTACKS,
                      selection: str = "best-case", mode: str = "partial",
                      repetitions: int = 1, base_seed: int = 0,
                      measure_time: bool = False, fractions=(),
                      fraction_repetitions: int = 10, sample_mode: str = "random",
                      ) -> list[dict]:
    """Recall of each of sweep_cells' cells, in long format: the cell's
    columns, then recall and the timing columns. Best-case selection needs
    the change log of a prior unconstrained run. Timing columns are filled
    only when measure_time is set (wall-clock numbers break bit-exact
    reproducibility)."""
    if selection == "best-case" and change_log is None:
        raise SpecError("best-case selection needs an unconstrained change log")
    rows: list[dict] = []
    gen_cache: dict = {}
    for cell in sweep_cells(inputs.schema, k_values, change_log, attacks, selection, mode,
                            repetitions, base_seed, fractions, fraction_repetitions,
                            sample_mode):
        concealed, _, times, _ = run_attack(cell.kind, inputs, cell.constraint, gen_cache,
                                            cell.seed, cell.sample_mode)
        row = {**cell.row, "recall": attack_recall(inputs.detector, concealed,
                                                   inputs.series.labels),
               "mean_time_s": None, "std_time_s": None}
        if measure_time and times:
            arr = np.asarray(times)
            row["mean_time_s"] = float(arr.mean())
            row["std_time_s"] = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        rows.append(row)
    return rows


def sweep_to_csv(rows: list[dict], path, columns=None) -> None:
    columns = columns or SWEEP_COLUMNS
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else row.get(c) for c in columns])
