"""Command-line experiment runner.

Commands: simulate, train-detector, attack, evaluate, sweep, realtime. Each
takes --config (JSON), with --seed and --out overrides. A run directory is
named by a content hash of the resolved config. Its artifacts, the outputs
of sweep and evaluate too, are stages (concealab.stages: one row each of what
it reads and leaves, and stage_key and ensure): kept when it holds them under
their key, else copied from another run directory under the same --out that
does, else built, so any command works standalone.

Exit code 0 on success; on failure a single line "error: <Kind>: <message>"
goes to stderr and the exit code is nonzero.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import itertools
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import model_io
from .attacks import (AttackConstraint, ChangeLog, Generator, IterativeBudget, full,
                      conceal_series_iterative, partial, topology_constraint, train_generator,
                      unconstrained)
from .attacks.constraints import MODES
from .checks import Range, check, check_rules
from .dataset import TimeSeries, csv_chunks, load_csv, save_csv
from .detector import TRACE_COLUMNS, TRACE_KINDS, DetectorStream, build_detector, detect_series
from .errors import ConcealabError, DataError, SpecError
from .evaluation import (ATTACKS, FRACTION_COLUMNS, SERIES_ATTACKS, SweepInputs, _truth,
                         evaluate, run_attack, stream_attack, sweep_cells, sweep_constraints,
                         sweep_to_csv)
from .fileio import atomic_open, atomic_write_text
from .nn import TrainConfig
from .nn.spec import KINDS
from .schema import SensorSchema
from .simulator import (AnomalyScenario, PlantConfig, TankSpec, _check_scenarios,
                        inject_anomaly, sim_schema, simulate_normal)
from .stages import RunDir, _generator_key, ensure, missing
from .workers import WorkerPool


def _nested(paths: dict) -> dict:
    """The tree of JSON objects whose dotted paths hold the values of paths."""
    tree: dict = {}
    for path, value in paths.items():
        *tables, key = path.split(".")
        functools.reduce(lambda table, name: table.setdefault(name, {}), tables, tree)[key] = value
    return tree


# Every config path, its kind (see concealab.checks) and its default, read
# through the views SCHEMA and DEFAULTS; the cross-field rules of a
# "simulator" config are checks.RULES.
POSITIVE, FRACTION = Range(int, 1), Range(float, 0, 1, above=True)
CONFIG = {
    "seed": (Range(int, 0), 0),
    "output_dir": (str, "runs"),
    "dataset.source": (("simulator", "csv"), "simulator"),
    "dataset.steps": (POSITIVE, 6000),              # training-series length (simulator)
    "dataset.attack_steps": (POSITIVE, 3000),       # attacked-series length (simulator)
    "dataset.plant": (PlantConfig, {}),  # PlantConfig overrides; "tanks" is a list of dicts
    "dataset.scenarios": (("auto", [AnomalyScenario]), "auto"),  # "auto": a benchmark set
    **{f"dataset.{key}": ((str, None), None) for key in ("train_csv", "test_csv", "schema")},
    "detector.kind": (KINDS, "dense"),
    "detector.window_w": (POSITIVE, 3),
    "detector.train": (TrainConfig, {}),            # TrainConfig overrides
    "attack.kind": (tuple(ATTACKS), "identity"),
    "attack.mode": (MODES, "unconstrained"),
    "attack.write": ([(int, str)], []),             # channel names or indices for partial/full
    "attack.plc": ((int, None), None),              # for topology mode
    "attack.offset": (POSITIVE, 96),                # replay offset, timesteps
    "attack.fraction": (FRACTION, 1.0),             # eavesdropped data fraction p
    "attack.sample_mode": (("prefix", "random"), "prefix"),
    "attack.budget": (IterativeBudget, {"patience": 15, "budget": 200, "grid": 50}),
    "attack.generator_train": (TrainConfig, {}),    # TrainConfig overrides for the generator
    "evaluation.selection": (("best-case", "topology"), "best-case"),
    "evaluation.mode": (("partial", "full"), "partial"),
    "evaluation.k_values": ([int], []),  # default: a k grid (best-case), every PLC (topology)
    "evaluation.attacks": ([SERIES_ATTACKS], ["replay", "iterative", "learning"]),
    "evaluation.repetitions": (POSITIVE, 1),
    "evaluation.fractions": ([FRACTION], []),       # non-empty runs the data-fraction sweep too
    "evaluation.fraction_repetitions": (POSITIVE, 10),
    "evaluation.measure_time": (bool, False),
    "realtime.pace": (("max", "real"), "max"),      # "max" (simulated clock) or "real" (sleep)
    "realtime.interval_s": ((Range(float, 0, above=True), None), None),  # null: sampling interval
    "realtime.steps": ((POSITIVE, None), None),     # null: the whole attacked series
}
SCHEMA = {path: kind for path, (kind, _) in CONFIG.items()}
DEFAULTS: dict = _nested({path: default for path, (_, default) in CONFIG.items()})

# -- config handling ----------------------------------------------------------

def _merge(defaults: dict, given: dict, path: str = "") -> dict:
    """given over defaults: a CONFIG path taken whole, a table above one key by key."""
    out = copy.deepcopy(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise SpecError(f"config {path}{key} is an unknown key")
        if path + key in CONFIG:
            out[key] = copy.deepcopy(value)
        elif not isinstance(value, dict):
            raise SpecError(f"config {path}{key} must be a JSON object, got {value!r}")
        else:
            out[key] = _merge(defaults[key], value, f"{path}{key}.")
    return out


def _built(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), naming config path in a SpecError it raises."""
    try:
        return build(*args, **kwargs)
    except SpecError as exc:
        raise SpecError(f"config {path}: {exc}") from None


def load_config(path: str | None, seed: int | None = None, out: str | None = None,
                command: str | None = None) -> dict:
    """The config at path (None: DEFAULTS) with the overrides, checked for
    command: every rule and range that can fail before a run directory exists."""
    cfg = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:       # a JSONDecodeError, or an integer of too many digits
            raise DataError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise DataError(f"config {path} must hold a JSON object")
    cfg = _merge(DEFAULTS, cfg)
    if seed is not None:
        cfg["seed"] = seed
    if out is not None:
        cfg["output_dir"] = out
    check("config ", SCHEMA, cfg)
    # the ranges the dataclasses check, before any run directory exists
    scenarios = _built("dataset.scenarios", _scenarios, cfg, int(cfg["dataset"]["attack_steps"]))
    _built("detector.train", _train_cfg, cfg["detector"]["train"], cfg["seed"])
    _built("attack.generator_train", _gen_settings, cfg)
    _built("attack.budget", _budget, cfg)
    ds = cfg["dataset"]
    if ds["source"] == "csv":
        for key in ("train_csv", "test_csv", "schema"):
            if not ds[key]:
                raise SpecError(f"dataset.source 'csv' requires dataset.{key}")
            if not Path(ds[key]).exists():
                raise DataError(f"dataset.{key} file not found: {ds[key]}")
        schema = SensorSchema.load(ds["schema"])
    else:
        plant = _built("dataset.plant", _plant_config, cfg)
        # targets and windows are checked here, before any run directory exists
        _check_scenarios(plant, scenarios, int(ds["attack_steps"]))
        schema = sim_schema(plant)
    attack = ATTACKS[cfg["attack"]["kind"]]
    if attack.series:
        _built("attack.plc" if cfg["attack"]["mode"] == "topology" else "attack.write",
               _constraint, cfg, schema)
    # each k value, PLC id and fraction once: one attack, one repetition, so
    # no attacks x k x repetitions product is built however large the counts
    _built("evaluation.k_values", sweep_cells, schema, **{
        **_sweep_args(cfg), "attacks": SERIES_ATTACKS[:1], "repetitions": 1,
        "fraction_repetitions": 1})
    if ds["source"] == "simulator":
        # the attacks the command runs: a sweep's cells, and attack.kind's,
        # which every command is held to
        kinds = {cfg["attack"]["kind"], *(cfg["evaluation"]["attacks"] if command == "sweep"
                                          else ())}
        check_rules(cfg, {"dataset.scenarios": scenarios, "attack.kind": attack,
                          "attacks": [ATTACKS[k] for k in kinds]})
    return cfg


# -- artifact builders ---------------------------------------------------------

def _plant_config(cfg: dict) -> PlantConfig:
    overrides = {"seed": cfg["seed"], **cfg["dataset"]["plant"]}
    if "tanks" in overrides:
        overrides["tanks"] = tuple(TankSpec(**t) for t in overrides["tanks"])
    return PlantConfig(**overrides)


def default_scenarios(steps: int) -> list[AnomalyScenario]:
    """Benchmark anomaly set: actuator forcing on every pump plus a sensor
    tamper, spread out with day-scale gaps so replay sources stay clean."""
    protos = [("force-actuator-on", "PU1", 0.0), ("force-actuator-off", "PU2", 0.0),
              ("force-actuator-on", "PU3", 0.0), ("force-actuator-off", "PU1", 0.0),
              ("sensor-offset", "L_T2", 1.2), ("force-actuator-on", "PU2", 0.0)]
    duration = 48                   # each starts 260 steps after the last one ends
    starts = range(200, steps - duration + 1, duration + 260)
    return [AnomalyScenario(kind, target, start, duration, mag)
            for (kind, target, mag), start in zip(protos, starts)]


def _scenarios(cfg: dict, steps: int) -> list[AnomalyScenario]:
    """The config's anomaly scenarios for a series of the given length."""
    raw = cfg["dataset"]["scenarios"]
    return default_scenarios(steps) if raw == "auto" else [AnomalyScenario(**x) for x in raw]


def _train_cfg(overrides: dict, seed: int) -> TrainConfig:
    return TrainConfig(**{"seed": seed, **overrides})


def _constraint(cfg: dict, schema: SensorSchema) -> AttackConstraint:
    a, n = cfg["attack"], len(schema)
    p = float(a["fraction"])
    if a["mode"] == "unconstrained":
        return unconstrained(n, p)
    if a["mode"] != "topology":
        write = [schema.index(ch) if isinstance(ch, str) else ch for ch in a["write"]]
        return {"partial": partial, "full": full}[a["mode"]](n, write, p)
    if a["plc"] is None:
        raise SpecError("attack.mode 'topology' requires attack.plc")
    return topology_constraint(schema, int(a["plc"]), fraction=p)


def _budget(cfg: dict) -> IterativeBudget:
    return IterativeBudget(**cfg["attack"]["budget"])


def _sweep_args(cfg: dict) -> dict:
    """The config's sweep_cells arguments, the change log aside."""
    ev = cfg["evaluation"]
    return {"k_values": ev["k_values"], "attacks": tuple(ev["attacks"]),
            "selection": ev["selection"], "mode": ev["mode"],
            "repetitions": int(ev["repetitions"]), "base_seed": cfg["seed"],
            "fractions": ev["fractions"], "fraction_repetitions": int(ev["fraction_repetitions"]),
            "sample_mode": cfg["attack"]["sample_mode"]}


def _gen_settings(cfg: dict) -> tuple[TrainConfig, str]:
    """The training config and sample mode of the attack's generator."""
    a = cfg["attack"]
    return _train_cfg(a["generator_train"], cfg["seed"] + 1), a["sample_mode"]


class Run(RunDir):
    """A config's run directory, stage keys and lazily read data. Stages go
    through ensure: given load=False, a stage method loads nothing it serves."""

    normal = property(lambda self: self.data[0])
    attacked = property(lambda self: self.data[1])
    schema = property(lambda self: self.data[2])
    data = functools.cached_property(lambda self: self.dataset())
    generators = functools.cached_property(lambda self: {})     # key -> generator

    def dataset(self, load: bool = True):
        """(normal training series, attacked series with labels, schema)."""
        cfg, ds = self.cfg, self.cfg["dataset"]
        csv_src = ds["source"] == "csv"
        src = [Path(ds[k]) if csv_src else self.d / f for k, f in
               (("train_csv", "normal.csv"), ("test_csv", "attacked.csv"), ("schema", "schema.json"))]

        def read():
            schema = SensorSchema.load(src[2])
            return load_csv(src[0], schema.names), load_csv(src[1], schema.names), schema

        def build():
            plant = _plant_config(cfg)
            normal = simulate_normal(plant, int(ds["steps"]))
            attack_plant = PlantConfig(**{**plant.__dict__, "seed": plant.seed + 1})
            scenarios = _scenarios(cfg, int(ds["attack_steps"]))
            attacked = inject_anomaly(attack_plant, scenarios, int(ds["attack_steps"]))
            schema = sim_schema(plant).with_ranges_from(normal.values)
            save_csv(normal, src[0])
            save_csv(attacked, src[1])
            schema.save(src[2])
            return normal, attacked, schema

        return read() if csv_src else ensure(self, "dataset", build, read if load else None)

    def detector(self, load: bool = True):
        cfg, model_p = self.cfg, self.d / "detector.model"

        def build():
            tc = _train_cfg(cfg["detector"]["train"], cfg["seed"])
            det, hist = build_detector(cfg["detector"]["kind"], self.normal, tc,
                                       int(cfg["detector"]["window_w"]))
            model_io.save_detector(det, model_p)
            log = {"train_loss": hist.train_loss, "val_loss": hist.val_loss,
                   "best_epoch": hist.best_epoch, "best_val": hist.best_val,
                   "epochs_run": hist.epochs_run, "final_lr": hist.final_lr}
            atomic_write_text(self.d / "train_log.json", json.dumps(log, indent=2) + "\n")
            return det

        return ensure(self, "detector", build,
                      (lambda: model_io.load_detector(model_p)) if load else None)

    def generator(self, constraint: AttackConstraint, tc: TrainConfig,
                  sample_mode: str) -> Generator:
        """The generator of the constraint's read set and fraction, tc and
        sample_mode, kept for the rest of the command once served."""
        key = _generator_key(self.cfg, self.keys, constraint, tc, sample_mode)
        path = self.d / f"generator-{key}.model"

        def build():
            gen, _ = train_generator(self.normal, constraint, tc, sample_mode=sample_mode)
            model_io.save_generator(gen, path)
            return gen

        if key not in self.generators:
            self.generators[key] = ensure(self, "generator", build,
                                          lambda: model_io.load_generator(path), key)
        return self.generators[key]

    def pool(self, specs) -> WorkerPool:
        """A pool that trains, in forked children, the generators that specs
        lists as (constraint, cfg, sample_mode) and no run directory holds,
        while the parent trains the detector and goes on with its own work.
        Nothing forks unless two or more models are missing."""
        jobs = {}
        for spec in specs:
            key = _generator_key(self.cfg, self.keys, *spec)
            if key not in jobs and missing(self, "generator", key):
                jobs[key] = functools.partial(self.generator, *spec)
        models = len(jobs) + missing(self, "detector")
        return WorkerPool(jobs.values() if models > 1 else ())

    @functools.cached_property
    def constraint(self) -> AttackConstraint | None:
        """The attack's constraint; None for an attack that conceals nothing."""
        attack = ATTACKS[self.cfg["attack"]["kind"]]
        return _constraint(self.cfg, self.schema) if attack.series else None

    @functools.cached_property
    def attack_detector(self):
        """The detector, with the learning attack's generator trained beside it."""
        attack = ATTACKS[self.cfg["attack"]["kind"]]
        with self.pool([(self.constraint, *_gen_settings(self.cfg))] if attack.generator else []):
            return self.detector()

    def inputs(self, det, pool: WorkerPool | None = None) -> SweepInputs:
        """The attack's inputs; det is None while a stream attack is readied."""
        def generator(constraint, tc, sample_mode):
            if pool is not None:
                pool.join()
            return self.generator(constraint, tc, sample_mode)

        return SweepInputs(det, self.attacked, self.schema, self.normal,
                           offset=int(self.cfg["attack"]["offset"]), budget=_budget(self.cfg),
                           gen_cfg=_gen_settings(self.cfg)[0], generator=generator)

    def refuse_unlabeled(self, kind: str, constraint: AttackConstraint | None = None) -> None:
        """Refuse an attacked series without labels before any model is trained,
        as attack kind's row hook does under constraint, or identity's report does."""
        if self.attacked.labels is None:
            if ATTACKS[kind].rows is None:
                _truth(None, len(self.attacked))
            ATTACKS[kind].rows(self.inputs(None), constraint)

    def unconstrained_log(self, det) -> ChangeLog:
        """The change log of an unconstrained iterative attack, by which
        best-case selection ranks the channels."""
        path, n = self.d / "unconstrained_log.csv", len(self.schema)

        def build():
            _, log, _ = conceal_series_iterative(det, self.attacked, unconstrained(n),
                                                 _budget(self.cfg), self.schema)
            log.to_csv(path)
            return log

        return ensure(self, "unconstrained_log", build, lambda: ChangeLog.from_csv(path, n))

    def concealed(self, load: bool = True) -> TimeSeries:
        """The attacked series concealed by the config's attack."""
        kind, path = self.cfg["attack"]["kind"], self.d / "concealed.csv"

        def build():
            self.refuse_unlabeled(kind, self.constraint)
            inputs, constraint = self.inputs(self.attack_detector), self.constraint
            concealed, log, _, records = run_attack(kind, inputs, constraint,
                                                    inputs.gen_cfg.seed,
                                                    self.cfg["attack"]["sample_mode"])
            meta = {"kind": kind, "mode": constraint.mode, "k": constraint.k, **records()}
            save_csv(concealed, path)
            log.to_csv(self.d / "change_log.csv")
            atomic_write_text(self.d / "attack_meta.json",
                              json.dumps(meta, indent=2, sort_keys=True) + "\n")
            return concealed

        return ensure(self, "concealed", build,
                      (lambda: load_csv(path, self.schema.names)) if load else None)


# -- commands -------------------------------------------------------------------

def cmd_simulate(cfg: dict) -> int:
    if cfg["dataset"]["source"] != "simulator":
        raise SpecError("simulate requires dataset.source 'simulator'")
    for path in Run(cfg).dataset(load=False):   # the dataset stage is simulate's output
        if path.suffix != ".npz":
            print(path)
    return 0


def cmd_train_detector(cfg: dict) -> int:
    print(Run(cfg).detector(load=False)[0])     # detector.model
    return 0


def cmd_attack(cfg: dict) -> int:
    run, ds = Run(cfg), cfg["dataset"]
    if not ATTACKS[cfg["attack"]["kind"]].series:
        # the attacked series is served as it is: a "csv" dataset's own file
        run.dataset(load=False)
        print(ds["test_csv"] if ds["source"] == "csv" else run.d / "attacked.csv")
        return 0
    print(run.concealed(load=False)[0])         # concealed.csv
    return 0


def cmd_evaluate(cfg: dict) -> int:
    run = Run(cfg)

    def build():
        run.refuse_unlabeled(cfg["attack"]["kind"], run.constraint)
        det = run.detector() if run.constraint is None else run.attack_detector
        truth, attacked = run.attacked.labels, detect_series(det, run.attacked)
        # each series scored once: under identity the concealed one is the attacked one
        concealed = attacked if run.constraint is None else detect_series(det, run.concealed())
        meta = {"seed": cfg["seed"], "detector": cfg["detector"]["kind"]}
        baseline = evaluate(attacked, truth, {**meta, "series": "attacked", "attack": "identity"})
        report = evaluate(concealed, truth, {**meta, "series": "concealed",
                                             "attack": cfg["attack"]["kind"],
                                             "original_attack_recall": baseline.attack_recall})
        report.save(run.d / "report.json")
        baseline.save(run.d / "baseline.json")
        concealed.to_csv(run.d / "trace.csv", run.attacked.names)

    print(ensure(run, "evaluate", build)[0])    # report.json
    return 0


def cmd_sweep(cfg: dict) -> int:
    run = Run(cfg)
    d, ev, args = run.d, cfg["evaluation"], _sweep_args(cfg)

    def build():
        cells = sweep_cells(run.schema, **args)
        # best-case selection reads the labels first, by an unconstrained iterative attack
        if ev["selection"] == "best-case":
            run.refuse_unlabeled("iterative", unconstrained(len(run.schema)))
        elif cells:
            run.refuse_unlabeled(cells[0].kind, cells[0].constraint)
        # the generators of the learning cells known before the detector exists
        gen_cfg = _gen_settings(cfg)[0]
        plan = [(c.constraint, dataclasses.replace(gen_cfg, seed=c.seed), c.sample_mode)
                for c in cells if ATTACKS[c.kind].generator and c.constraint is not None]
        with run.pool(plan) as pool:
            det = run.detector()
            change_log = run.unconstrained_log(det) if ev["selection"] == "best-case" else None
            rows = sweep_constraints(run.inputs(det, pool), change_log=change_log,
                                     measure_time=ev["measure_time"], **args)
            sweep_to_csv([r for r in rows if "k" in r], d / "sweep.csv")
            if ev["fractions"]:
                sweep_to_csv([r for r in rows if "fraction" in r], d / "fractions.csv",
                             FRACTION_COLUMNS)

    for path in ensure(run, "sweep", build):
        print(path)
    return 0


def cmd_realtime(cfg: dict) -> int:
    kind, rt = cfg["attack"]["kind"], cfg["realtime"]
    attack, run = ATTACKS[kind], Run(cfg)
    d, attacked = run.d, run.attacked
    interval = float(rt["interval_s"] or attacked.interval_s)
    steps = min(int(rt["steps"] or len(attacked)), len(attacked))
    # readied before the detector is trained: a replay works its rows out here,
    # and a hook refuses a series without labels
    conceal = attack.rows(run.inputs(None), run.constraint) if attack.rows else None
    det = run.attack_detector
    gen = run.generator(run.constraint, *_gen_settings(cfg)) if attack.generator else None

    lats = np.empty(steps)
    t_wall = time.perf_counter()
    with atomic_open(d / "realtime_trace.csv", "w", newline="", encoding="utf-8") as trace, \
            atomic_open(d / "realtime_latency.csv", "w", newline="", encoding="utf-8") as lat:
        trace.writelines(csv_chunks(TRACE_COLUMNS, TRACE_KINDS, [()] * len(TRACE_COLUMNS)))
        lat.write("t,seconds,deadline_miss\r\n")
        rows = stream_attack(DetectorStream(det), attacked, conceal, gen)
        for t, (_, eps, smoothed, label, latency) in enumerate(itertools.islice(rows, steps)):
            lats[t] = latency
            trace.writelines(csv_chunks(None, TRACE_KINDS, [[attacked.timestamps[t]], [eps],
                                                            [smoothed], [label]]))
            lat.write("%d,%.9f,%d\r\n" % (t, latency, latency > interval))
            if rt["pace"] == "real":
                sleep_for = interval - (time.perf_counter() - t_wall)
                if sleep_for > 0:
                    time.sleep(sleep_for)
                t_wall = time.perf_counter()
    misses = int(np.count_nonzero(lats > interval))
    report = {"steps": steps, "interval_s": interval,
              "latency_mean_s": float(lats.mean()), "latency_max_s": float(lats.max()),
              "latency_std_s": float(lats.std(ddof=1)) if lats.size > 1 else 0.0,
              **{f"latency_p{q}_s": float(np.percentile(lats, q)) for q in (50, 95, 99)},
              "deadline_misses": misses, "deadline_miss_rate": misses / steps,
              "attack": kind, "pace": rt["pace"]}
    atomic_write_text(d / "realtime_report.json",
                      json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(d / "realtime_report.json")
    return 0


COMMANDS = {"simulate": cmd_simulate, "train-detector": cmd_train_detector, "attack": cmd_attack,
            "evaluate": cmd_evaluate, "sweep": cmd_sweep, "realtime": cmd_realtime}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="concealab",
        description="Concealment attacks against reconstruction-based ICS anomaly detectors.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, category, *_: print(
            f"warning: {category.__name__}: {message}", file=sys.stderr)
        try:
            cfg = load_config(args.config, args.seed, args.out, args.command)
            return COMMANDS[args.command](cfg)
        except ConcealabError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: OSError: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
