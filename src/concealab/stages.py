"""Run-directory stages, one row each in STAGES, and the store that serves them.

A run directory is named by a content hash of the resolved config; each
artifact in it belongs to a stage keyed on what the stage reads. `ensure`
keeps a stage its run directory holds under its key, else copies it from a
run directory under the same --out that does, else builds it: a
constructive-trace store (Mokhov et al., "Build Systems a la Carte", ICFP 2018).
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

from . import __version__, model_io
from .checks import leaf
from .fileio import atomic_open, atomic_write_text


@dataclasses.dataclass(frozen=True)
class Stage:
    """What a stage reads, hashed into its key: config paths (with all under
    them) and upstream stages; and the files it leaves, {key} standing for
    its key. A stage whose files name its key has a record per key, and its
    caller gives the key. optional maps a file to the config path whose
    non-empty value makes the stage leave it."""
    reads: tuple[str, ...]
    upstream: tuple[str, ...]
    files: tuple[str, ...]
    optional: dict = dataclasses.field(default_factory=dict)

    @property
    def keyed(self) -> bool:
        return any("{key}" in name for name in self.files)


# Upstream stages first. A key also hashes what its caller adds: a "csv" dataset
# its files' bytes, a generator its read set, fraction, seed and sample mode. The
# concealed series reads all that the attack's generator does; the outputs of
# sweep and evaluate read the whole config but output_dir.
WHOLE_CONFIG = ("seed", "dataset", "detector", "attack", "evaluation", "realtime")
STAGES = {
    "dataset": Stage(("seed", "dataset"), (), (
        "normal.csv", "normal.csv.npz", "attacked.csv", "attacked.csv.npz", "schema.json")),
    "detector": Stage(("seed", "detector"), ("dataset",), ("detector.model", "train_log.json")),
    "generator": Stage(("attack.generator_train",), ("dataset",), ("generator-{key}.model",)),
    "unconstrained_log": Stage(("attack.budget",), ("dataset", "detector"),
                               ("unconstrained_log.csv",)),
    "concealed": Stage(("attack",), ("dataset", "detector"), (
        "concealed.csv", "concealed.csv.npz", "change_log.csv", "attack_meta.json")),
    "sweep": Stage(WHOLE_CONFIG, ("dataset", "detector"), ("sweep.csv", "fractions.csv"),
                   {"fractions.csv": "evaluation.fractions"}),
    "evaluate": Stage(WHOLE_CONFIG, ("dataset", "detector", "concealed"),
                      ("report.json", "baseline.json", "trace.csv")),
}


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
    if not (d / "config.json").exists():
        atomic_write_text(d / "config.json", json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return d


def stage_key(cfg: dict, stage: str, keys: dict, *inputs) -> str:
    """A hash of what STAGES[stage] reads (keys holds upstream keys) and inputs."""
    row = STAGES[stage]
    return _digest([leaf(cfg, p) for p in row.reads], [keys[u] for u in row.upstream], inputs)


def _keys(cfg: dict) -> dict:
    """The keys of the stages that the config alone fixes: all whose files do not name it."""
    ds = cfg["dataset"]
    files = [ds[f] for f in ("train_csv", "test_csv", "schema")] if ds["source"] == "csv" else []
    inputs = {"dataset": [hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in files]}
    keys: dict = {}
    for stage, row in STAGES.items():
        if not row.keyed:
            keys[stage] = stage_key(cfg, stage, keys, *inputs.get(stage, ()))
    return keys


def _generator_key(cfg: dict, keys: dict, constraint, tc, sample_mode: str) -> str:
    """The key of the generator of constraint's read set and fraction, tc and sample_mode."""
    return stage_key(cfg, "generator", keys, constraint.read, constraint.fraction, tc.seed,
                     sample_mode)


class RunDir:
    """A config, its run directory d (made if missing) and its _keys."""

    def __init__(self, cfg: dict):
        self.cfg, self.d, self.keys = cfg, run_dir(cfg), _keys(cfg)


def _record(d: Path, stage: str, key: str) -> Path:
    """d's record of stage: one per key where the stage's files name it."""
    return d / "stages" / (f"{stage}.{key}" if STAGES[stage].keyed else stage)


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


def missing(run: RunDir, stage: str, key: str | None = None) -> bool:
    """Whether ensure would build run's stage: no run directory under its
    --out holds it under key (by default run.keys[stage])."""
    return _holder(run.d, stage, run.keys[stage] if key is None else key) is None


def ensure(run: RunDir, stage: str, build, load=None, key: str | None = None):
    """run's stage, made under key (by default run.keys[stage]): served from
    its run directory, or its files copied there from a holder, or built
    (build() writes them). Returns what load() reads, or build()'s value when
    built; without load, the paths of the stage's files, checked to exist
    when served (OSError if one is gone). The record goes before any file is
    replaced and comes back after the last, so it never vouches for a
    half-made stage or another key."""
    key = run.keys[stage] if key is None else key
    row, d = STAGES[stage], run.d
    paths = [d / name.format(key=key) for name in row.files
             if name not in row.optional or leaf(run.cfg, row.optional[name])]
    src = _holder(d, stage, key)
    if src == d and load is None:
        for path in paths:
            path.stat()
    if src == d:
        return paths if load is None else load()
    record = _record(d, stage, key)
    record.unlink(missing_ok=True)
    if src is not None:
        try:
            for path in paths:
                with open(src / path.name, "rb") as fh, atomic_open(path, "wb") as out:
                    shutil.copyfileobj(fh, out)
        except OSError:
            src = None      # a holder whose files went missing is passed over
    value = build() if src is None else None
    atomic_write_text(record, key)
    return paths if load is None else value if src is None else load()
