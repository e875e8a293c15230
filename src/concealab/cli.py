"""Command-line experiment runner.

Commands: simulate, train-detector, attack, evaluate, sweep, realtime. Each
takes --config (JSON), with --seed and --out overrides. A run directory is
named by a content hash of the resolved config. Its artifacts, the outputs
of sweep and evaluate too, are stages keyed on what they read (READS): kept
when it holds them under that key, else copied from another run directory
under the same --out that does, else built, so any command works standalone.

Exit code 0 on success; on failure a single line "error: <Kind>: <message>"
goes to stderr and the exit code is nonzero.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import hashlib
import itertools
import json
import shutil
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, evaluation, model_io
from .attacks import (AttackConstraint, ChangeLog, Generator, IterativeBudget, full,
                      conceal_learning, conceal_series_iterative, iterative_conceal,
                      partial, replay_attack, topology_constraint, unconstrained)
from .attacks.constraints import MODES
from .checks import Range, check, check_rules, leaf
from .dataset import TimeSeries, csv_chunks, load_csv, save_csv
from .detector import DetectorStream, build_detector, detect_series
from .errors import ConcealabError, DataError, SpecError
from .evaluation import (ATTACKS, FRACTION_COLUMNS, SERIES_ATTACKS, SweepInputs, evaluate,
                         run_attack, stream_attack, sweep_cells, sweep_constraints,
                         sweep_to_csv)
from .fileio import atomic_open, atomic_write_text
from .nn import TrainConfig
from .nn.spec import KINDS
from .schema import SensorSchema
from .simulator import (AnomalyScenario, PlantConfig, TankSpec, _check_scenarios,
                        inject_anomaly, sim_schema, simulate_normal)
from .workers import WorkerPool

# The attacks run through the table in evaluation; perfbench/layers.py also
# wraps these attack functions at their names here, so they stay exported.
__all__ = ["main", "conceal_learning", "iterative_conceal", "replay_attack"]

# Every checked config path and its kind (see concealab.checks); the
# cross-field rules of a "simulator" config are checks.RULES.
POSITIVE, FRACTION = Range(int, 1), Range(float, 0, 1, above=True)
SCHEMA = {
    "seed": Range(int, 0), "output_dir": str,
    "dataset.source": ("simulator", "csv"),
    "dataset.steps": POSITIVE, "dataset.attack_steps": POSITIVE,
    "dataset.plant": PlantConfig, "dataset.plant.tanks": ([TankSpec], None),
    "dataset.scenarios": ("auto", [AnomalyScenario]),
    **{f"dataset.{key}": (str, None) for key in ("train_csv", "test_csv", "schema")},
    "detector.kind": KINDS, "detector.window_w": POSITIVE, "detector.train": TrainConfig,
    "attack.kind": tuple(ATTACKS), "attack.mode": MODES,
    "attack.write": [(int, str)], "attack.plc": (int, None), "attack.offset": POSITIVE,
    "attack.fraction": FRACTION, "attack.sample_mode": ("prefix", "random"),
    "attack.budget": IterativeBudget, "attack.generator_train": TrainConfig,
    "evaluation.selection": ("best-case", "topology"), "evaluation.mode": ("partial", "full"),
    "evaluation.k_values": [int], "evaluation.attacks": [SERIES_ATTACKS],
    "evaluation.repetitions": POSITIVE, "evaluation.fractions": [FRACTION],
    "evaluation.fraction_repetitions": POSITIVE, "evaluation.measure_time": bool,
    "realtime.pace": ("max", "real"), "realtime.interval_s": (Range(float, 0, above=True), None),
    "realtime.steps": (POSITIVE, None),
}

# What each stage reads, hashed into its key: config paths (with all under
# them) and upstream stages; a generator also its read set, fraction, seed and
# sample mode, a "csv" dataset its files' bytes. The concealed series reads
# all that the attack's generator does; the outputs of sweep and evaluate
# read the whole config but output_dir.
WHOLE_CONFIG = ("seed", "dataset", "detector", "attack", "evaluation", "realtime")
READS = {
    "dataset": (("seed", "dataset"), ()),
    "detector": (("seed", "detector"), ("dataset",)),
    "generator": (("attack.generator_train",), ("dataset",)),
    "unconstrained_log": (("attack.budget",), ("dataset", "detector")),
    "concealed": (("attack",), ("dataset", "detector")),
    "sweep": (WHOLE_CONFIG, ("dataset", "detector")),
    "evaluate": (WHOLE_CONFIG, ("dataset", "detector", "concealed")),
}
# The files each stage leaves in a run directory; {key} is the stage's key.
FILES = {
    "dataset": ("normal.csv", "normal.csv.npz", "attacked.csv", "attacked.csv.npz",
                "schema.json"),
    "detector": ("detector.model", "train_log.json"),
    "generator": ("generator-{key}.model",),
    "unconstrained_log": ("unconstrained_log.csv",),
    "concealed": ("concealed.csv", "concealed.csv.npz", "change_log.csv", "attack_meta.json"),
    "sweep": ("sweep.csv", "fractions.csv"),       # fractions.csv with evaluation.fractions
    "evaluate": ("report.json", "baseline.json", "trace.csv"),
}

DEFAULTS: dict = {
    "seed": 0,
    "output_dir": "runs",
    "dataset": {
        "source": "simulator",
        "steps": 6000,                # training-series length (simulator)
        "attack_steps": 3000,         # attacked-series length (simulator)
        "plant": {},                  # PlantConfig overrides; "tanks" is a list of dicts
        "scenarios": "auto",          # list of scenario dicts, or "auto" for a benchmark set
        "train_csv": None,
        "test_csv": None,
        "schema": None,
    },
    "detector": {
        "kind": "dense",
        "window_w": 3,
        "train": {},                  # TrainConfig overrides
    },
    "attack": {
        "kind": "identity",
        "mode": "unconstrained",
        "write": [],                  # channel names or indices for partial/full
        "plc": None,                  # for topology mode
        "offset": 96,                 # replay offset, timesteps
        "fraction": 1.0,              # eavesdropped data fraction p
        "sample_mode": "prefix",
        "budget": {"patience": 15, "budget": 200, "grid": 50},
        "generator_train": {},        # TrainConfig overrides for the generator
    },
    "evaluation": {
        "selection": "best-case",
        "mode": "partial",
        "k_values": [],               # default: a k grid (best-case), every PLC (topology)
        "attacks": ["replay", "iterative", "learning"],
        "repetitions": 1,
        "fractions": [],              # non-empty runs the data-fraction sweep too
        "fraction_repetitions": 10,
        "measure_time": False,
    },
    "realtime": {
        "pace": "max",                # "max" (simulated clock) or "real" (sleep)
        "interval_s": None,           # defaults to the dataset sampling interval
        "steps": None,                # defaults to the whole attacked series
    },
}


# -- config handling ----------------------------------------------------------

def _merge(defaults: dict, given: dict, path: str = "") -> dict:
    """given over defaults, table by table; a SCHEMA table is taken whole."""
    out = copy.deepcopy(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise SpecError(f"config {path}{key} is an unknown key")
        if isinstance(defaults[key], dict) and path + key not in SCHEMA:
            if not isinstance(value, dict):
                raise SpecError(f"config {path}{key} must be a JSON object, got {value!r}")
            out[key] = _merge(defaults[key], value, f"{path}{key}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _built(path: str, build, *args):
    """build(*args), naming config path in a SpecError it raises."""
    try:
        return build(*args)
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
        _constraint(cfg, schema)
    # each k value, PLC id and fraction once: one attack, one repetition, so
    # no attacks x k x repetitions product is built however large the counts
    sweep_cells(schema, **{**_sweep_args(cfg), "attacks": SERIES_ATTACKS[:1],
                           "repetitions": 1, "fraction_repetitions": 1})
    if ds["source"] == "simulator":
        # the attacks the command runs: a sweep's cells, and attack.kind's,
        # which every command is held to
        kinds = {cfg["attack"]["kind"], *(cfg["evaluation"]["attacks"] if command == "sweep"
                                          else ())}
        check_rules(cfg, {"dataset.scenarios": scenarios, "attack.kind": attack,
                          "attacks": [ATTACKS[k] for k in kinds]})
    return cfg


def _digest(*parts) -> str:
    """A hash of parts, the package version and the model file format."""
    blob = json.dumps([*parts, __version__, model_io.VERSION], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def run_id(cfg: dict) -> str:
    return _digest(cfg)


def run_dir(cfg: dict) -> Path:
    d = Path(cfg["output_dir"]) / run_id(cfg)
    (d / "stages").mkdir(parents=True, exist_ok=True)
    resolved = d / "config.json"
    if not resolved.exists():
        atomic_write_text(resolved, json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return d


def stage_key(cfg: dict, stage: str, keys: dict, *inputs) -> str:
    """A hash of what READS names for stage (keys holds upstream keys) and inputs."""
    paths, upstream = READS[stage]
    leaves = [leaf(cfg, p) for p in paths]
    return _digest(leaves, [keys[u] for u in upstream], inputs)


def _keys(cfg: dict) -> dict:
    """The keys of the stages that the config alone fixes."""
    ds = cfg["dataset"]
    files = [ds[f] for f in ("train_csv", "test_csv", "schema")] if ds["source"] == "csv" else []
    keys = {"dataset": stage_key(cfg, "dataset", {}, *[
        hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in files])}
    for stage in ("detector", "unconstrained_log", "concealed", "sweep", "evaluate"):
        keys[stage] = stage_key(cfg, stage, keys)
    return keys


def _generator_key(cfg: dict, keys: dict, constraint: AttackConstraint, tc: TrainConfig,
                   sample_mode: str) -> str:
    return stage_key(cfg, "generator", keys, constraint.read, constraint.fraction, tc.seed,
                     sample_mode)


def _record(d: Path, stage: str, key: str) -> Path:
    """d's record of stage: one per key where the stage's file names hold it."""
    return d / "stages" / (f"{stage}.{key}" if "{key}" in FILES[stage][0] else stage)


def _held(d: Path, stage: str, key: str) -> bool:
    """Whether d's record of stage holds key."""
    try:
        return _record(d, stage, key).read_text(encoding="utf-8") == key
    except OSError:
        return False


def _holder(d: Path, stage: str, key: str) -> Path | None:
    """d, or else another run directory under d's --out, whose record of
    stage holds key; None when the stage must be built. The other run
    directories are listed only when d's own record misses."""
    if _held(d, stage, key):
        return d
    return next((p for p in sorted(d.parent.iterdir()) if p != d and _held(p, stage, key)), None)


def ensure(d: Path, stage: str, key: str, build, load, files=None):
    """Run directory d's stage, made under key: loaded, or its files (by default
    FILES[stage]) copied from its _holder and loaded, or built (build() writes
    them and returns what load() would). The record goes before any file is
    replaced and comes back after the last, so it never vouches for a
    half-made stage or another key."""
    src = _holder(d, stage, key)
    if src == d:
        return load()
    record = _record(d, stage, key)
    record.unlink(missing_ok=True)
    if src is not None:
        try:
            for name in FILES[stage] if files is None else files:
                name = name.format(key=key)
                with open(src / name, "rb") as fh, atomic_open(d / name, "wb") as out:
                    shutil.copyfileobj(fh, out)
        except OSError:
            src = None      # a holder whose files went missing is passed over
    value = build() if src is None else None
    atomic_write_text(record, key)
    return value if src is None else load()


# -- artifact builders ---------------------------------------------------------

def _plant_config(cfg: dict) -> PlantConfig:
    overrides = dict(cfg["dataset"]["plant"])
    tanks = overrides.pop("tanks", None)
    if tanks is not None:
        overrides["tanks"] = tuple(TankSpec(**t) for t in tanks)
    overrides.setdefault("seed", cfg["seed"])
    return PlantConfig(**overrides)


def default_scenarios(steps: int) -> list[AnomalyScenario]:
    """Benchmark anomaly set: actuator forcing on every pump plus a sensor
    tamper, spread out with day-scale gaps so replay sources stay clean."""
    protos = [
        ("force-actuator-on", "PU1", 0.0),
        ("force-actuator-off", "PU2", 0.0),
        ("force-actuator-on", "PU3", 0.0),
        ("force-actuator-off", "PU1", 0.0),
        ("sensor-offset", "L_T2", 1.2),
        ("force-actuator-on", "PU2", 0.0),
    ]
    scenarios = []
    start = 200
    duration = 48
    for kind, target, mag in protos:
        if start + duration > steps:
            break
        scenarios.append(AnomalyScenario(kind, target, start, duration, mag))
        start += duration + 260
    return scenarios


def _scenarios(cfg: dict, steps: int) -> list[AnomalyScenario]:
    """The config's anomaly scenarios for a series of the given length."""
    raw = cfg["dataset"]["scenarios"]
    return default_scenarios(steps) if raw == "auto" else [AnomalyScenario(**x) for x in raw]


def _train_cfg(overrides: dict, seed: int) -> TrainConfig:
    return TrainConfig(**{"seed": seed, **overrides})


def _resolve_write(cfg: dict, schema: SensorSchema) -> list[int]:
    return [schema.index(ch) if isinstance(ch, str) else ch for ch in cfg["attack"]["write"]]


def _constraint(cfg: dict, schema: SensorSchema) -> AttackConstraint:
    a = cfg["attack"]
    n = len(schema)
    p = float(a["fraction"])
    if a["mode"] == "unconstrained":
        return unconstrained(n, p)
    if a["mode"] == "partial":
        return partial(n, _resolve_write(cfg, schema), p)
    if a["mode"] == "full":
        return full(n, _resolve_write(cfg, schema), p)
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
            "fractions": ev["fractions"],
            "fraction_repetitions": int(ev["fraction_repetitions"]),
            "sample_mode": cfg["attack"]["sample_mode"]}


def _gen_settings(cfg: dict) -> tuple[TrainConfig, str]:
    """The training config and sample mode of the attack's generator."""
    a = cfg["attack"]
    return _train_cfg(a["generator_train"], cfg["seed"] + 1), a["sample_mode"]


class Run:
    """A config's run directory, stage keys and lazily read data; stages go through ensure."""

    def __init__(self, cfg: dict):
        self.cfg, self.d, self.keys = cfg, run_dir(cfg), _keys(cfg)

    def holds(self, stage: str) -> bool:
        """Whether the run directory holds stage under its key, its files
        there (OSError if one is gone), so a command need load nothing."""
        if not _held(self.d, stage, self.keys[stage]):
            return False
        for name in FILES[stage]:
            (self.d / name).stat()
        return True

    normal = property(lambda self: self.dataset[0])
    attacked = property(lambda self: self.dataset[1])
    schema = property(lambda self: self.dataset[2])

    @functools.cached_property
    def dataset(self) -> tuple[TimeSeries, TimeSeries, SensorSchema]:
        """(normal training series, attacked series with labels, schema)."""
        cfg, ds = self.cfg, self.cfg["dataset"]
        csv_src = ds["source"] == "csv"
        src = [Path(ds[k]) if csv_src else self.d / f for k, f in
               (("train_csv", "normal.csv"), ("test_csv", "attacked.csv"), ("schema", "schema.json"))]

        def load():
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

        return load() if csv_src else ensure(self.d, "dataset", self.keys["dataset"], build, load)

    def detector(self):
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

        return ensure(self.d, "detector", self.keys["detector"], build,
                      lambda: model_io.load_detector(model_p))

    def generator(self, constraint: AttackConstraint, tc: TrainConfig,
                  sample_mode: str) -> Generator:
        """The generator of the constraint's read set and fraction, tc and sample_mode."""
        key = _generator_key(self.cfg, self.keys, constraint, tc, sample_mode)
        path = self.d / FILES["generator"][0].format(key=key)

        def build():
            gen, _ = evaluation.train_generator(self.normal, constraint, tc,
                                                sample_mode=sample_mode)
            model_io.save_generator(gen, path)
            return gen

        return ensure(self.d, "generator", key, build, lambda: model_io.load_generator(path))

    def pool(self, specs) -> WorkerPool:
        """A pool that trains, in forked children, the generators that specs
        lists as (constraint, cfg, sample_mode) and no run directory holds,
        while the parent trains the detector and goes on with its own work.
        Nothing forks unless two or more models are missing."""
        jobs = {}
        for spec in specs:
            key = _generator_key(self.cfg, self.keys, *spec)
            if key not in jobs and _holder(self.d, "generator", key) is None:
                jobs[key] = functools.partial(self.generator, *spec)
        missing = len(jobs) + (_holder(self.d, "detector", self.keys["detector"]) is None)
        return WorkerPool(jobs.values() if missing > 1 else ())

    def attack_detector(self, constraint: AttackConstraint | None):
        """The detector, with the learning attack's generator trained beside it."""
        attack = ATTACKS[self.cfg["attack"]["kind"]]
        with self.pool([(constraint, *_gen_settings(self.cfg))] if attack.generator else []):
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

    def unconstrained_log(self, det) -> ChangeLog:
        """The change log of an unconstrained iterative attack, by which
        best-case selection ranks the channels."""
        path, n = self.d / "unconstrained_log.csv", len(self.schema)

        def build():
            _, log, _ = conceal_series_iterative(det, self.attacked, unconstrained(n),
                                                 _budget(self.cfg), self.schema)
            log.to_csv(path)
            return log

        return ensure(self.d, "unconstrained_log", self.keys["unconstrained_log"], build,
                      lambda: ChangeLog.from_csv(path, n))

    def concealed(self, det, constraint: AttackConstraint) -> TimeSeries:
        """The attacked series concealed by the config's attack."""
        kind, path = self.cfg["attack"]["kind"], self.d / "concealed.csv"

        def build():
            inputs = self.inputs(det)
            concealed, log, _, records = run_attack(kind, inputs, constraint, {},
                                                    inputs.gen_cfg.seed,
                                                    self.cfg["attack"]["sample_mode"])
            meta = {"kind": kind, "mode": constraint.mode, "k": constraint.k, **records()}
            save_csv(concealed, path)
            log.to_csv(self.d / "change_log.csv")
            atomic_write_text(self.d / "attack_meta.json",
                              json.dumps(meta, indent=2, sort_keys=True) + "\n")
            return concealed

        return ensure(self.d, "concealed", self.keys["concealed"], build,
                      lambda: load_csv(path, self.schema.names))


# -- commands -------------------------------------------------------------------

def cmd_simulate(cfg: dict) -> int:
    if cfg["dataset"]["source"] != "simulator":
        raise SpecError("simulate requires dataset.source 'simulator'")
    run = Run(cfg)
    run.dataset                 # the dataset stage is simulate's output
    for name in ("normal.csv", "attacked.csv", "schema.json"):
        print(run.d / name)
    return 0


def cmd_train_detector(cfg: dict) -> int:
    run = Run(cfg)
    if not run.holds("detector"):
        run.detector()
    print(run.d / "detector.model")
    return 0


def _attack(run: Run) -> tuple[object, TimeSeries]:
    """The detector and concealed series of the run's attack."""
    cfg = run.cfg
    if not ATTACKS[cfg["attack"]["kind"]].series:
        return run.detector(), run.attacked
    constraint = _constraint(cfg, run.schema)
    det = run.attack_detector(constraint)
    return det, run.concealed(det, constraint)


def cmd_attack(cfg: dict) -> int:
    run, ds = Run(cfg), cfg["dataset"]
    if not ATTACKS[cfg["attack"]["kind"]].series:
        # the attacked series is served as it is: a "csv" dataset's own file
        if not run.holds("dataset"):
            run.dataset
        print(ds["test_csv"] if ds["source"] == "csv" else run.d / "attacked.csv")
        return 0
    if not run.holds("concealed"):
        _attack(run)
    print(run.d / "concealed.csv")
    return 0


def cmd_evaluate(cfg: dict) -> int:
    run = Run(cfg)

    def build():
        det, concealed = _attack(run)
        meta = {"seed": cfg["seed"], "detector": cfg["detector"]["kind"]}
        baseline = evaluate(det, run.attacked,
                            meta={**meta, "series": "attacked", "attack": "identity"})
        report = evaluate(det, concealed, truth=run.attacked.labels,
                          meta={**meta, "series": "concealed", "attack": cfg["attack"]["kind"],
                                "original_attack_recall": baseline.attack_recall})
        report.save(run.d / "report.json")
        baseline.save(run.d / "baseline.json")
        detect_series(det, concealed).to_csv(run.d / "trace.csv", concealed.names)

    # an output stage loads nothing but checks that its files are there
    ensure(run.d, "evaluate", run.keys["evaluate"], build,
           lambda: [(run.d / f).stat() for f in FILES["evaluate"]])
    print(run.d / "report.json")
    return 0


def cmd_sweep(cfg: dict) -> int:
    run = Run(cfg)
    d, ev, args = run.d, cfg["evaluation"], _sweep_args(cfg)
    files = FILES["sweep"][:2 if ev["fractions"] else 1]

    def build():
        # the generators of the learning cells known before the detector exists
        gen_cfg = _gen_settings(cfg)[0]
        plan = [(c.constraint, dataclasses.replace(gen_cfg, seed=c.seed), c.sample_mode)
                for c in sweep_cells(run.schema, **args)
                if ATTACKS[c.kind].generator and c.constraint is not None]
        with run.pool(plan) as pool:
            det = run.detector()
            change_log = run.unconstrained_log(det) if ev["selection"] == "best-case" else None
            rows = sweep_constraints(run.inputs(det, pool), change_log=change_log,
                                     measure_time=ev["measure_time"], **args)
            sweep_to_csv([r for r in rows if "k" in r], d / "sweep.csv")
            if ev["fractions"]:
                sweep_to_csv([r for r in rows if "fraction" in r], d / "fractions.csv",
                             FRACTION_COLUMNS)

    ensure(d, "sweep", run.keys["sweep"], build, lambda: [(d / f).stat() for f in files], files)
    for name in files:
        print(d / name)
    return 0


def cmd_realtime(cfg: dict) -> int:
    kind, rt = cfg["attack"]["kind"], cfg["realtime"]
    attack, run = ATTACKS[kind], Run(cfg)
    d, attacked = run.d, run.attacked
    interval = float(rt["interval_s"] or attacked.interval_s)
    steps = min(int(rt["steps"] or len(attacked)), len(attacked))
    constraint = _constraint(cfg, run.schema) if attack.rows else None
    # readied before the detector is trained: a replay works its rows out here
    conceal = (attack.rows(run.inputs(None), constraint)
               if attack.rows and attacked.labels is not None else None)
    det = run.attack_detector(constraint)
    gen = run.generator(constraint, *_gen_settings(cfg)) if attack.generator else None

    lats = np.empty(steps)
    t_wall = time.perf_counter()
    with atomic_open(d / "realtime_trace.csv", "w", newline="", encoding="utf-8") as trace, \
            atomic_open(d / "realtime_latency.csv", "w", newline="", encoding="utf-8") as lat:
        trace.write("timestamp,epsilon,epsilon_smoothed,label\r\n")
        lat.write("t,seconds,deadline_miss\r\n")
        rows = stream_attack(DetectorStream(det), attacked, conceal, gen)
        for t, (_, eps, smoothed, label, latency) in enumerate(itertools.islice(rows, steps)):
            lats[t] = latency
            trace.writelines(csv_chunks(None, "sggd", [[attacked.timestamps[t]], [eps],
                                                       [smoothed], [label]]))
            lat.write("%d,%.9f,%d\r\n" % (t, latency, latency > interval))
            if rt["pace"] == "real":
                sleep_for = interval - (time.perf_counter() - t_wall)
                if sleep_for > 0:
                    time.sleep(sleep_for)
                t_wall = time.perf_counter()
    misses = int(np.count_nonzero(lats > interval))
    p50, p95, p99 = np.percentile(lats, [50.0, 95.0, 99.0])
    report = {"steps": steps, "interval_s": interval,
              "latency_mean_s": float(lats.mean()),
              "latency_std_s": float(lats.std(ddof=1)) if lats.size > 1 else 0.0,
              "latency_p50_s": float(p50), "latency_p95_s": float(p95),
              "latency_p99_s": float(p99), "latency_max_s": float(lats.max()),
              "deadline_misses": misses, "deadline_miss_rate": misses / steps,
              "attack": kind, "pace": rt["pace"]}
    atomic_write_text(d / "realtime_report.json",
                      json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(d / "realtime_report.json")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "train-detector": cmd_train_detector,
    "attack": cmd_attack,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "realtime": cmd_realtime,
}


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
