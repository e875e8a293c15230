"""Run-directory stages: each keyed on what it reads (cli.READS), reused
across the configs of one --out, rebuilt when what it reads changes, and
never served half made."""
import json
import os
import shutil
from pathlib import Path

import pytest

from concealab import cli, dataset, detector, evaluation, fileio, model_io, schema, workers
from concealab.attacks import constraints

BASE = {
    "seed": 3,
    "dataset": {"steps": 400, "attack_steps": 300},
    "detector": {"kind": "dense", "window_w": 3, "train": {"max_epochs": 5}},
    "attack": {"kind": "learning", "offset": 60, "generator_train": {"max_epochs": 2},
               "budget": {"patience": 3, "budget": 12, "grid": 6}},
    "evaluation": {"k_values": [14, 4], "attacks": ["replay", "learning"],
                   "fractions": [0.5], "fraction_repetitions": 1},
}


def _main(tmp_path: Path, cfg: dict, command: str, out: Path) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cli.main([command, "--config", str(path), "--out", str(out)])


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class Interrupted(Exception):
    pass


def _interrupt(*args, **kwargs):
    raise Interrupted


def _no_training(*args, **kwargs):
    raise AssertionError("a stage was built that another run directory holds")


def test_sweep_that_changes_only_k_values_trains_nothing(tmp_path, monkeypatch):
    """The DEFAULTS-shaped sweep (replay, iterative and learning, best-case,
    partial mode) run again with other k_values in the same --out: its
    dataset, detector, unconstrained log and generator are copied from the
    first run directory, and it equals a cold run of its config."""
    first = {**BASE, "attack": {**BASE["attack"], "kind": "identity"},
             "evaluation": {"k_values": [14, 4]}}
    second = {**first, "evaluation": {"k_values": [8]}}
    out = tmp_path / "runs"
    assert _main(tmp_path, first, "sweep", out) == 0

    for owner, name in ((cli, "simulate_normal"), (cli, "build_detector"),
                        (cli, "conceal_series_iterative"), (evaluation, "train_generator")):
        monkeypatch.setattr(owner, name, _no_training)
    assert _main(tmp_path, second, "sweep", out) == 0
    monkeypatch.undo()
    assert len([p for p in out.iterdir() if p.is_dir()]) == 2
    (tmp_path / "cfg.json").write_text(json.dumps(second))
    d = out / cli.run_id(cli.load_config(str(tmp_path / "cfg.json"), out=str(out)))
    warm = _files(d)
    assert "unconstrained_log.csv" in warm
    assert len([name for name in warm if name.endswith(".model")]) == 2

    shutil.rmtree(out)
    assert _main(tmp_path, second, "sweep", out) == 0
    assert _files(d) == warm


def _csv_source(tmp_path: Path) -> tuple[dict, Path, Path, Path]:
    """BASE on a "csv" dataset copied into a directory of its own, that
    directory, and the datasets of seeds 3 and 99 to copy its files from."""
    sim, other = tmp_path / "sim", tmp_path / "other"
    assert _main(tmp_path, BASE, "simulate", sim) == 0
    assert _main(tmp_path, {**BASE, "seed": 99}, "simulate", other) == 0
    (src,), (alt,) = list(sim.iterdir()), list(other.iterdir())
    data = tmp_path / "data"
    data.mkdir()
    for name in ("normal.csv", "attacked.csv", "schema.json"):
        shutil.copyfile(src / name, data / name)
    cfg = {**BASE, "dataset": {"source": "csv", "train_csv": str(data / "normal.csv"),
                               "test_csv": str(data / "attacked.csv"),
                               "schema": str(data / "schema.json")}}
    return cfg, data, src, alt


def test_csv_source_edited_in_place_retrains_the_detector(tmp_path, monkeypatch):
    cfg, data, src, alt = _csv_source(tmp_path)

    out = tmp_path / "runs"
    assert _main(tmp_path, cfg, "train-detector", out) == 0
    (d,) = list(out.iterdir())
    stale = (d / "detector.model").read_bytes()
    shutil.copyfile(alt / "normal.csv", data / "normal.csv")
    assert _main(tmp_path, cfg, "train-detector", out) == 0
    assert list(out.iterdir()) == [d]
    fresh = _files(d)
    assert fresh["detector.model"] != stale

    cold = tmp_path / "cold"
    assert _main(tmp_path, cfg, "train-detector", cold) == 0
    (c,) = list(cold.iterdir())
    for name in ("detector.model", "train_log.json"):
        assert (c / name).read_bytes() == fresh[name], name

    # back to the first bytes, with a rebuild stopped after the model write:
    # the first key's record must not vouch for the half-made stage
    shutil.copyfile(src / "normal.csv", data / "normal.csv")
    with monkeypatch.context() as m:
        m.setattr(cli, "atomic_write_text", _interrupt)
        with pytest.raises(Interrupted):
            _main(tmp_path, cfg, "train-detector", out)
    assert (d / "detector.model").read_bytes() == stale
    shutil.copyfile(alt / "normal.csv", data / "normal.csv")
    assert _main(tmp_path, cfg, "train-detector", out) == 0
    assert _files(d) == fresh


WRITERS = (cli, dataset, detector, evaluation, fileio, model_io, schema, constraints)


def _commands(tmp_path: Path, out: Path) -> None:
    for command in ("attack", "evaluate", "sweep"):
        assert _main(tmp_path, BASE, command, out) == 0


def test_interrupt_at_any_write_then_rerun_equals_an_uninterrupted_run(tmp_path, monkeypatch):
    """`attack` (learning), `evaluate` then `sweep` (best-case log, two
    generators) stopped at each atomic write in turn, run to the end again,
    leave the files of a run that was never stopped."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    real = fileio.atomic_open
    writes: list[str] = []
    fail_at = [0]

    def atomic_open(path, *args, **kwargs):
        writes.append(Path(path).name)
        if len(writes) == fail_at[0]:
            raise Interrupted(path)
        return real(path, *args, **kwargs)

    def patched(run):
        with monkeypatch.context() as m:
            for module in WRITERS:
                m.setattr(module, "atomic_open", atomic_open)
            run()

    out = tmp_path / "runs"
    patched(lambda: _commands(tmp_path, out))
    reference = _files(out)
    names = list(writes)
    assert {f for files in cli.FILES.values() for f in files if "{key}" not in f} <= set(names)
    assert len([n for n in names if n.startswith("generator-")]) == 3
    assert len([n for n in reference if "/stages/" in n]) == 9   # 3 of them generators'

    for i in range(1, len(names) + 1):
        shutil.rmtree(out)
        writes.clear()
        fail_at[0] = i
        with pytest.raises(Interrupted):
            patched(lambda: _commands(tmp_path, out))
        _commands(tmp_path, out)
        assert _files(out) == reference, f"stopped at write {i}, {names[i - 1]}"


def _set(cfg: dict, path: str, value) -> None:
    *tables, key = path.split(".")
    node = cfg
    for name in tables:
        node = node[name]
    node[key] = value


@pytest.fixture
def csv_files(tmp_path):
    files = {}
    for name in ("train", "test", "schema", "edited"):
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text(name)
    return files


def _perturbations(files) -> dict:
    return {
        "seed": 1, "output_dir": "elsewhere",
        "dataset.source": "csv", "dataset.steps": 500, "dataset.attack_steps": 301,
        "dataset.plant": {"interval_s": 60.0}, "dataset.plant.tanks": [{}],
        "dataset.scenarios": [{"kind": "sensor-offset", "target": "L_T1", "start": 10,
                               "duration": 5}],
        "dataset.train_csv": str(files["edited"]), "dataset.test_csv": str(files["edited"]),
        "dataset.schema": str(files["edited"]),
        "detector.kind": "lstm", "detector.window_w": 4, "detector.train": {"max_epochs": 7},
        "attack.kind": "replay", "attack.mode": "full", "attack.write": [1], "attack.plc": 1,
        "attack.offset": 97, "attack.fraction": 0.5, "attack.sample_mode": "random",
        "attack.budget": {"grid": 7}, "attack.generator_train": {"max_epochs": 7},
        "evaluation.selection": "topology", "evaluation.mode": "full",
        "evaluation.k_values": [3], "evaluation.attacks": ["replay"],
        "evaluation.repetitions": 2, "evaluation.fractions": [0.5],
        "evaluation.fraction_repetitions": 3, "evaluation.measure_time": True,
        "realtime.pace": "real", "realtime.interval_s": 1.0, "realtime.steps": 5,
    }


def _stage_keys(cfg: dict) -> dict:
    """The keys of every stage of cfg, the attack's generator included."""
    keys = cli._keys(cfg)
    sch = cli.sim_schema(cli._plant_config(cfg))
    keys["generator"] = cli._generator_key(cfg, keys, cli._constraint(cfg, sch),
                                           *cli._gen_settings(cfg))
    return keys


def _generator_inputs(cfg: dict) -> tuple:
    constraint = cli._constraint(cfg, cli.sim_schema(cli._plant_config(cfg)))
    tc, sample_mode = cli._gen_settings(cfg)
    return constraint.read, constraint.fraction, tc.seed, sample_mode


def test_each_config_leaf_rekeys_exactly_the_stages_that_read_it(csv_files):
    base = json.loads(json.dumps(cli.DEFAULTS))
    base["attack"]["write"] = [0]
    for key, name in (("train_csv", "train"), ("test_csv", "test"), ("schema", "schema")):
        base["dataset"][key] = str(csv_files[name])
    perturbations = _perturbations(csv_files)
    assert perturbations.keys() == cli.SCHEMA.keys()
    before = _stage_keys(base)
    assert before.keys() == cli.READS.keys()

    for path, value in perturbations.items():
        cli._check(path, cli.SCHEMA[path], value)
        cfg = json.loads(json.dumps(base))
        _set(cfg, path, value)
        after = _stage_keys(cfg)
        expected = set()
        for stage, (paths, upstream) in cli.READS.items():
            if (any(path == p or path.startswith(p + ".") for p in paths)
                    or expected.intersection(upstream)
                    or stage == "generator" and _generator_inputs(cfg) != _generator_inputs(base)):
                expected.add(stage)
        changed = {stage for stage in before if before[stage] != after[stage]}
        assert changed == expected, path


def test_csv_bytes_rekey_the_dataset(csv_files):
    cfg = json.loads(json.dumps(cli.DEFAULTS))
    cfg["dataset"].update(source="csv", train_csv=str(csv_files["train"]),
                          test_csv=str(csv_files["test"]), schema=str(csv_files["schema"]))
    before = cli._keys(cfg)
    csv_files["test"].write_text("test, edited")
    assert all(before[stage] != key for stage, key in cli._keys(cfg).items())


def _stat(root: Path) -> dict:
    return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("command", ["sweep", "evaluate", "train-detector", "attack"])
def test_unchanged_output_is_served_from_its_record(tmp_path, monkeypatch, capsys, command):
    """A second run of a config whose output record holds its key prints what
    the first printed and reads no series or model, forks nothing, runs no
    cell and writes no file; it fails if an output has gone missing."""
    stage = {"train-detector": "detector", "attack": "concealed"}.get(command, command)
    out = tmp_path / "runs"
    assert _main(tmp_path, BASE, command, out) == 0
    cold = capsys.readouterr().out
    files = _stat(out)
    for owner, name in ((cli, "load_csv"), (model_io, "load_detector"),
                        (model_io, "load_generator"), (cli, "sweep_constraints"),
                        (cli, "evaluate"), (os, "fork")):
        monkeypatch.setattr(owner, name, _no_training)
    assert _main(tmp_path, BASE, command, out) == 0
    assert capsys.readouterr().out == cold
    assert _stat(out) == files

    # a record does not vouch for an output deleted after it was written
    (d,) = list(out.iterdir())
    os.unlink(d / cli.FILES[stage][0])
    assert _main(tmp_path, BASE, command, out) == 3
    assert capsys.readouterr().err.startswith("error: OSError: ")


def test_csv_source_edited_in_place_reruns_the_sweep(tmp_path, monkeypatch):
    """The sweep's key carries the sha256 of its CSV inputs: an input
    edited in place runs the cells again, and the run directory equals a
    cold run on the new bytes."""
    cfg, data, _, alt = _csv_source(tmp_path)
    cfg["evaluation"] = {"k_values": [14], "attacks": ["replay"]}
    out = tmp_path / "runs"
    assert _main(tmp_path, cfg, "sweep", out) == 0
    (d,) = list(out.iterdir())

    shutil.copyfile(alt / "attacked.csv", data / "attacked.csv")
    calls, real = [], cli.sweep_constraints
    monkeypatch.setattr(cli, "sweep_constraints", lambda *a, **k: calls.append(a) or real(*a, **k))
    assert _main(tmp_path, cfg, "sweep", out) == 0
    monkeypatch.undo()
    assert len(calls) == 1
    assert list(out.iterdir()) == [d]
    cold = tmp_path / "cold"
    assert _main(tmp_path, cfg, "sweep", cold) == 0
    (c,) = list(cold.iterdir())
    made, fresh = _files(d), _files(c)
    del made["config.json"], fresh["config.json"]      # they name other output_dirs
    assert made == fresh


def test_a_stage_its_run_directory_holds_lists_no_directory(tmp_path, monkeypatch):
    """A warm sweep is served from its own run directory's record without
    listing --out, however many other run directories it holds."""
    cfg = {**BASE, "attack": {**BASE["attack"], "kind": "replay"},
           "evaluation": {"k_values": [4], "attacks": ["replay"]}}
    out = tmp_path / "runs"
    assert _main(tmp_path, cfg, "sweep", out) == 0
    for i in range(200):
        (out / f"other-{i:03d}").mkdir()
    listed, iterdir = [], Path.iterdir
    monkeypatch.setattr(Path, "iterdir", lambda self: listed.append(self) or iterdir(self))
    assert _main(tmp_path, cfg, "sweep", out) == 0
    assert listed == []


def test_a_holder_with_missing_files_is_passed_over(tmp_path):
    first, second = BASE, {**BASE, "evaluation": {"k_values": [8]}}
    out = tmp_path / "runs"
    assert _main(tmp_path, first, "train-detector", out) == 0
    (held,) = list(out.iterdir())
    os.unlink(held / "train_log.json")
    assert _main(tmp_path, second, "train-detector", out) == 0
    (d,) = [p for p in out.iterdir() if p != held]
    assert (d / "train_log.json").is_file()
    assert (d / "detector.model").read_bytes() == (held / "detector.model").read_bytes()


def test_a_detector_that_can_be_copied_forks_nothing(tmp_path, monkeypatch):
    out = tmp_path / "runs"
    assert _main(tmp_path, BASE, "train-detector", out) == 0
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", _no_training)
    other = {**BASE, "attack": {**BASE["attack"], "generator_train": {"max_epochs": 3}}}
    assert _main(tmp_path, other, "attack", out) == 0
    assert len(list(out.iterdir())) == 2
