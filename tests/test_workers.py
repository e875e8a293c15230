"""Models trained at once in forked children: the same run directory, byte
for byte, as one CPU gives, and the CLI's error contract kept."""
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from concealab import cli, evaluation, workers
from concealab.errors import SpecError

ROOT = Path(__file__).resolve().parents[1]

BASE = {
    "seed": 3,
    "dataset": {"steps": 400, "attack_steps": 300},
    "detector": {"kind": "dense", "window_w": 3, "train": {"max_epochs": 10}},
    "attack": {"kind": "replay", "offset": 60, "generator_train": {"max_epochs": 3},
               "budget": {"patience": 4, "budget": 30, "grid": 10}},
}
FRACTION_SWEEP = {**BASE, "evaluation": {"k_values": [14, 4], "fractions": [0.5, 1.0],
                                         "fraction_repetitions": 2}}
TOPOLOGY_SWEEP = {**BASE, "evaluation": {"selection": "topology", "mode": "full",
                                         "k_values": [1, 2], "attacks": ["learning"],
                                         "repetitions": 2}}
PARTIAL_SWEEP = {**BASE, "evaluation": {"k_values": [14, 4], "attacks": ["learning"],
                                        "repetitions": 2}}
FULL_SWEEP = {**BASE, "evaluation": {"mode": "full", "k_values": [4, 1],
                                     "attacks": ["learning"]}}
LEARNING = {**BASE, "attack": {**BASE["attack"], "kind": "learning"}}


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked, with the usable CPUs set to two."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    real_fork = os.fork
    pids = []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_in(directory: Path, cfg: dict, command: str) -> tuple[int, dict]:
    """Run command with --out runs from directory; return its exit code and
    every file of the output directory, by relative path."""
    directory.mkdir()
    (directory / "cfg.json").write_text(json.dumps(cfg))
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        code = cli.main([command, "--config", "cfg.json", "--out", "runs"])
    finally:
        os.chdir(cwd)
    out = directory / "runs"
    return code, {str(p.relative_to(out)): p.read_bytes()
                  for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("cfg,command,children,generators", [
    (FRACTION_SWEEP, "sweep", 4, 4),
    (TOPOLOGY_SWEEP, "sweep", 4, 4),
    (FULL_SWEEP, "sweep", 0, 2),
    (LEARNING, "attack", 1, 1),
], ids=["fraction-sweep", "topology-sweep", "best-case-full-sweep", "learning-attack"])
def test_workers_leave_the_files_of_one_cpu(tmp_path, monkeypatch, forks, cfg, command,
                                            children, generators):
    # a child's calls are not seen here: the parent only loads their models
    # and trains those of the cells that wait for the change log
    trained = []
    train = evaluation.train_generator
    monkeypatch.setattr(evaluation, "train_generator",
                        lambda *args, **kwargs: trained.append(1) or train(*args, **kwargs))
    code, parallel = _run_in(tmp_path / "parallel", cfg, command)
    assert code == 0
    assert len(forks) == children
    assert len(trained) == generators - children
    _assert_no_children()

    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    code, serial = _run_in(tmp_path / "serial", cfg, command)
    assert code == 0
    assert len(forks) == children
    assert len(trained) == 2 * generators - children
    assert len([name for name in serial if "generator-" in name]) == generators
    assert parallel.keys() == serial.keys()
    for name, blob in serial.items():
        assert parallel[name] == blob, f"{name} differs"


@pytest.mark.parametrize("cfg", [PARTIAL_SWEEP, TOPOLOGY_SWEEP, FRACTION_SWEEP],
                         ids=["best-case-partial", "topology", "fraction"])
def test_the_pool_plans_the_generators_the_sweep_asks_for(tmp_path, monkeypatch, cfg):
    planned, asked = set(), set()
    pool, generator = cli.Run.pool, cli.Run.generator

    def plan(run, specs):
        planned.update(cli._generator_key(run.cfg, run.keys, *spec) for spec in specs)
        return pool(run, specs)

    def ask(run, *spec):
        asked.add(cli._generator_key(run.cfg, run.keys, *spec))
        return generator(run, *spec)

    monkeypatch.setattr(cli.Run, "pool", plan)
    monkeypatch.setattr(cli.Run, "generator", ask)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    code, files = _run_in(tmp_path / "run", cfg, "sweep")
    assert code == 0
    assert asked and planned == asked
    assert len([name for name in files if "generator-" in name]) == len(asked)


def _refuse(*args, **kwargs):
    raise SpecError("generator refused")


def test_failed_child_is_retrained_in_line_and_fails_cleanly(tmp_path, capfd, forks,
                                                            monkeypatch):
    # the child inherits the patch, fails and exits 1; the parent then
    # trains the generator itself and raises as it would without workers
    monkeypatch.setattr(evaluation, "train_generator", _refuse)
    (tmp_path / "cfg.json").write_text(json.dumps(LEARNING))
    code = cli.main(["attack", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "runs")])
    out, err = capfd.readouterr()
    assert code == 2
    assert len(forks) == 1
    assert out == ""
    assert err.splitlines() == ["error: SpecError: generator refused"]
    _assert_no_children()
    d = next((tmp_path / "runs").iterdir())
    assert (d / "detector.model").exists()
    assert not list(d.glob("generator-*"))


def test_one_missing_model_starts_no_child(tmp_path, monkeypatch):
    (tmp_path / "cfg.json").write_text(json.dumps(LEARNING))
    args = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "runs")]
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", _refuse)
    assert cli.main(["train-detector", *args]) == 0
    assert cli.main(["attack", *args]) == 0
    assert cli.main(["sweep", *args]) == 0


def test_interrupted_parent_stops_its_children(tmp_path, forks, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "build_detector", interrupt)
    cfg = {**LEARNING, "attack": {**LEARNING["attack"], "generator_train": {"max_epochs": 200}}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    with pytest.raises(KeyboardInterrupt):
        cli.main(["attack", "--config", str(tmp_path / "cfg.json"),
                  "--out", str(tmp_path / "runs")])
    assert len(forks) == 1
    _assert_no_children()
    d = next((tmp_path / "runs").iterdir())
    assert not [p.name for p in d.iterdir() if "generator" in p.name]


def test_printed_paths_appear_once_on_a_pipe(tmp_path):
    # the fraction cells' generators are trained in children forked while
    # the parent trains the detector and when it waits for them
    cfg = {**FRACTION_SWEEP,
           "evaluation": {**FRACTION_SWEEP["evaluation"], "attacks": ["replay"]}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    script = ("import sys; from concealab import cli, workers; "
              "workers.usable_cpus = lambda: 2; sys.exit(cli.main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script, "sweep", "--config", "cfg.json",
                           "--out", "runs"], cwd=tmp_path, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    d = next((tmp_path / "runs").iterdir()).relative_to(tmp_path)
    assert proc.stdout.splitlines() == [str(d / "sweep.csv"), str(d / "fractions.csv")]
    assert len(list((tmp_path / d).glob("generator-*.model"))) == 4


@pytest.mark.parametrize("moment", ["after-the-fork", "after-its-job"])
def test_a_terminated_child_never_returns_into_its_caller(monkeypatch, moment):
    """A SIGTERM that reaches a child as it installs its handler, or as it
    stops handling it after its job, ends the child through os._exit(1)."""
    parent = os.getpid()
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    real_signal = signal.signal
    when = workers._interrupt if moment == "after-the-fork" else signal.SIG_IGN

    def signal_then_terminate(signum, handler):
        if os.getpid() != parent and handler is when:
            if handler is workers._interrupt:
                real_signal(signum, handler)
            os.kill(os.getpid(), signal.SIGTERM)
        return real_signal(signum, handler)

    monkeypatch.setattr(signal, "signal", signal_then_terminate)
    codes, real_waitpid = [], os.waitpid

    def waitpid(pid, options):
        pid, status = real_waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(status))
        return pid, status

    monkeypatch.setattr(os, "waitpid", waitpid)
    try:
        pool = workers.WorkerPool([lambda: None])
    finally:
        if os.getpid() != parent:
            os._exit(3)         # the child came back here: it escaped into its caller
    pool.join()
    assert codes == [1]
    _assert_no_children()


@pytest.mark.parametrize("fraction,command,code,lines", [
    # the child warns and fails on its one eavesdropped row; the in-line
    # retrain warns and fails the same way, and only it is shown
    (1e-9, "realtime", 2, ["warning: UserWarning: only 1 eavesdropped rows",
                           "error: DimensionError: "]),
    (0.25, "attack", 0, ["warning: UserWarning: only 100 eavesdropped rows"]),
], ids=["failed-child", "forked-fit"])
def test_a_forked_jobs_warnings_print_once(tmp_path, capfd, forks, fraction, command, code,
                                           lines):
    cfg = {**LEARNING, "attack": {**LEARNING["attack"], "fraction": fraction}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "runs")]) == code
    err = [line for line in capfd.readouterr().err.splitlines() if line.strip()]
    assert len(forks) == 1
    assert len(err) == len(lines)
    assert all(line.startswith(start) for line, start in zip(err, lines)), err
    _assert_no_children()
