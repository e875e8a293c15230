"""The benchmark's workloads: `train`, `pipeline` and `realtime`.

Each workload has a set-up, a unit of fixed work that the run repeats, and
the correctness checks of that unit. `setup_repeats` gives each workload
about 5 s of set-ups per run (20 s for `realtime`, whose one set-up trains
three networks), so that `setup_s`, their median, is steady. It calls only public entry points of
the package, always through the module or package attribute, so the traced
run can wrap them there. Work per unit depends on the seed only through the
generated data, never on timing.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from concealab import attacks, cli, detector, simulator
from concealab.nn import TrainConfig

from stats import max_rate_hz, percentile

clock = time.perf_counter

SMOOTH_W = 3
DEADLINE_S = 1.0          # the paper's 1 s sampling interval


def fixed_epochs(seed: int, epochs: int) -> TrainConfig:
    """Exactly `epochs` epochs: early stopping and plateau decay cannot
    trigger (patience >= epochs), so the work does not depend on how the
    numerics converge."""
    return TrainConfig(seed=seed, max_epochs=epochs, es_patience=epochs,
                       plateau_patience=epochs)


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def _tail(values, name: str, unit: str, scale: float = 1e6) -> dict:
    """p50 and p99 of per-row seconds, with the sample count behind them."""
    arr = np.asarray(values, dtype=np.float64) * scale
    return {f"{name}_p50_{unit}": percentile(arr, 50.0),
            f"{name}_p99_{unit}": percentile(arr, 99.0),
            f"{name}_samples": int(arr.size)}


class Train:
    """Four fits on the 10k-step normal series at batch 32 and a fixed epoch
    count per network kind. Epochs are chosen so each fit takes a similar
    share of the unit (conv is the slowest per epoch and needs two epochs for
    its check), so a speed-up of any one kind moves the throughput."""

    name = "train"
    min_units = 2
    setup_repeats = 15
    steps = 10_000
    epochs = {"dense": 12, "lstm": 3, "conv": 2, "generator": 8}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self):
        return simulator.simulate_normal(simulator.PlantConfig(seed=self.seed), self.steps)

    def unit(self, normal) -> dict:
        fits = {}
        for kind in ("dense", "lstm", "conv", "generator"):
            start = clock()
            if kind == "generator":
                _, hist = attacks.train_generator(
                    normal, attacks.unconstrained(normal.n_channels),
                    fixed_epochs(self.seed + 1, self.epochs[kind]))
            else:
                _, hist = detector.build_detector(
                    kind, normal, fixed_epochs(self.seed, self.epochs[kind]), W=SMOOTH_W)
            fits[kind] = (clock() - start, hist.n_train * hist.epochs_run, hist)
        errors = [f"{kind}: validation loss {h.val_loss[0]:.4g} -> {h.val_loss[-1]:.4g}"
                  for kind, (_, _, h) in fits.items()
                  if not (np.isfinite(h.val_loss[-1]) and h.val_loss[-1] < h.val_loss[0])]
        return {"seconds": sum(f[0] for f in fits.values()),
                "samples": sum(f[1] for f in fits.values()),
                "per_kind": {k: f[1] / f[0] for k, f in fits.items()},
                "attempted": len(fits), "failed": len(errors), "errors": errors}

    def metrics(self, units: list[dict]) -> tuple[dict, dict]:
        work = _median([u["seconds"] for u in units])
        rate = _median([u["samples"] / u["seconds"] for u in units])
        named = {"train_samples_per_s": rate, "train_units": len(units)}
        for kind in self.epochs:
            named[f"train_{kind}_samples_per_s"] = _median([u["per_kind"][kind] for u in units])
        return {"work_s": work, "rate_per_s": rate}, named


PIPELINE_CONFIG = {
    # Capped and fixed epoch counts (patience >= epochs), as in `train`: the
    # training work then does not depend on how the numerics converge.
    "detector": {"train": {"max_epochs": 20, "es_patience": 20, "plateau_patience": 20}},
    "attack": {"generator_train": {"max_epochs": 10, "es_patience": 10,
                                   "plateau_patience": 10}},
    "evaluation": {"k_values": [17, 8, 4, 2, 1]},
}
SWEEP_ARTIFACTS = ("normal.csv", "attacked.csv", "schema.json", "detector.model",
                   "train_log.json", "unconstrained_log.csv", "sweep.csv")
EVALUATE_ARTIFACTS = ("report.json", "baseline.json", "trace.csv")


def _replay_recall_max(trace_csv: Path, scenarios: list[dict]) -> float:
    """The most recall an unconstrained replay can leave: the share of
    attacked rows whose recorded source row (offset rows earlier) the
    detector already flags in the un-attacked trace, plus the first W - 1
    rows of each attack window, whose trailing mean still holds live rows.
    The replayed rows are genuine normal readings, so a detector without
    history (the DEFAULTS dense one) flags them exactly where it
    false-alarms on the recording; a replay that left more than that would
    be detected for what it is."""
    with open(trace_csv, newline="", encoding="utf-8") as fh:
        labels = [int(r["label"]) for r in csv.DictReader(fh)]
    offset = int(cli.DEFAULTS["attack"]["offset"])
    edge = int(cli.DEFAULTS["detector"]["window_w"]) - 1
    rows = [t for s in scenarios for t in range(s["start"], s["stop"])]
    flagged = sum(labels[t - offset] for t in rows)
    return (flagged + edge * len(scenarios)) / len(rows)


def _snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in root.rglob("*") if p.is_file()}


class Pipeline:
    """The experiment a user runs, through `concealab.cli.main` in-process:
    a cold `sweep` in a fresh output directory, `evaluate`, a warm `sweep`
    and a second `evaluate` on the populated run directory. The config is
    DEFAULTS (6000/3000 steps, "auto" scenarios) with few, fixed training
    epochs and a short k list. One unit runs the experiment on two datasets
    (config seeds derived from the run's seed): how long the iterative
    cells take depends on the dataset's detector by +-15 %, and two
    datasets keep a run's figures from hanging on one of them."""

    name = "pipeline"
    min_units = 2
    setup_repeats = 9
    dataset_seeds = (0, 1000)       # offsets from the run's seed

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.reference_reports: dict[int, bytes] = {}

    def _main(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def setup(self) -> list[Path]:
        """Write one config per dataset and run `simulate` once into a
        scratch output directory: this resolves a config and loads every
        code path the data stage needs before anything is timed."""
        d = Path(tempfile.mkdtemp(dir=self.workdir, prefix="pipeline-setup-"))
        configs = []
        for offset in self.dataset_seeds:
            config = d / f"config-{offset}.json"
            config.write_text(json.dumps({**PIPELINE_CONFIG, "seed": self.seed + offset}),
                              encoding="utf-8")
            configs.append(config)
        rc = self._main(["simulate", "--config", str(configs[0]), "--out", str(d / "runs")])
        if rc != 0:
            raise RuntimeError(f"simulate exited {rc}")
        return configs

    def unit(self, configs: list[Path]) -> dict:
        runs = [self._experiment(i, config) for i, config in enumerate(configs)]
        complete = all(r["complete"] for r in runs)
        return {"seconds": sum(r["seconds"] for r in runs),
                "cold_s": _median([r["cold_s"] for r in runs]) if complete else None,
                "warm_s": _median([r["warm_s"] for r in runs]) if complete else None,
                "complete": complete,
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(len(r["errors"]) for r in runs),
                "errors": [e for r in runs for e in r["errors"]],
                "counts": {k: sum(r["counts"][k] for r in runs) for k in runs[0]["counts"]}}

    def _experiment(self, dataset: int, config: Path) -> dict:
        out = Path(tempfile.mkdtemp(dir=self.workdir, prefix="pipeline-"))
        errors: list[str] = []
        seconds: list[float] = []
        built = reused = 0
        attempted = 0
        reports = []
        sweeps = []
        for cmd in ("sweep", "evaluate", "sweep", "evaluate"):
            before = _snapshot(out)
            start = clock()
            rc = self._main([cmd, "--config", str(config), "--out", str(out)])
            seconds.append(clock() - start)
            after = _snapshot(out)
            built += sum(1 for f, sig in after.items() if before.get(f) != sig)
            reused += sum(1 for f, sig in before.items() if after.get(f) == sig)
            run_dirs = [p for p in out.iterdir() if p.is_dir()]
            run = run_dirs[0] if len(run_dirs) == 1 else None
            expected = SWEEP_ARTIFACTS if cmd == "sweep" else EVALUATE_ARTIFACTS
            attempted += 1
            if rc != 0 or run is None or not all((run / a).is_file() for a in expected):
                errors.append(f"{cmd} exited {rc} or left artifacts missing")
                break
            if cmd == "sweep":
                sweeps.append((run / "sweep.csv").read_bytes())
            else:
                reports.append((run / "report.json").read_bytes())
        if not errors:
            attempted += 4
            errors += self._check_results(dataset, run, sweeps, reports)
        shutil.rmtree(out)
        return {"seconds": sum(seconds), "cold_s": seconds[0],
                "warm_s": seconds[2] if len(seconds) > 2 else None,
                "complete": len(seconds) == 4, "attempted": attempted, "errors": errors,
                "counts": {"cli.artifacts_built": built, "cli.artifacts_reused": reused}}

    def _check_results(self, dataset: int, run: Path, sweeps: list[bytes],
                       reports: list[bytes]) -> list[str]:
        errors = []
        with open(run / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        n = max(int(r["k"]) for r in rows)
        recall = {(r["attack"], int(r["k"])): float(r["recall"]) for r in rows}
        report = json.loads(reports[0])
        original = report["meta"]["original_attack_recall"]
        replay_max = _replay_recall_max(run / "trace.csv", report["scenarios"])
        if not recall[("replay", n)] <= replay_max:
            errors.append(f"unconstrained replay recall {recall[('replay', n)]:.4f} "
                          f"above {replay_max:.4f}, the detector's false alarms on "
                          f"the replayed recording")
        if not recall[("iterative", n)] <= 0.5 * original:
            errors.append(f"iterative recall at k={n} is {recall[('iterative', n)]:.4f}, "
                          f"above half the original {original:.4f}")
        if sweeps[0] != sweeps[1]:
            errors.append("warm sweep.csv differs from the cold one")
        if reports[0] != reports[1]:
            errors.append("warm report.json differs from the cold one")
        reference = self.reference_reports.setdefault(dataset, reports[0])
        if reports[0] != reference:
            errors.append("report.json differs between identical runs")
        return errors

    def metrics(self, units: list[dict]) -> tuple[dict, dict]:
        cold = _median([u["cold_s"] for u in units])
        warm = _median([u["warm_s"] for u in units])
        rows = cli.DEFAULTS["dataset"]["attack_steps"]
        named = {"pipeline_cold_s": cold, "pipeline_warm_s": warm,
                 "pipeline_units": len(units)}
        return {"work_s": cold, "rate_per_s": rows / warm}, named


# The acceptance series: 8 forced-actuator faults of 48 rows in 3000 steps.
REALTIME_SCENARIOS = tuple(
    simulator.AnomalyScenario(kind, target, start, 48, 0.0)
    for kind, target, start in (
        ("force-actuator-on", "PU1", 300), ("force-actuator-off", "PU2", 600),
        ("force-actuator-on", "PU3", 900), ("force-actuator-off", "PU1", 1200),
        ("force-actuator-on", "PU2", 1500), ("force-actuator-off", "PU3", 1800),
        ("force-actuator-on", "PU1", 2100), ("force-actuator-off", "PU2", 2400)))


class Realtime:
    """The sample-at-a-time man-in-the-middle loop. Every row goes through
    `DetectorStream.push`; attacked rows are first concealed in line. One
    unit streams each of three attacked series (the acceptance layout,
    generated from three seeds derived from the run's seed) through: dense
    detector + iterative, dense + learning, LSTM (window 8) + iterative.
    A unit thus gives 3 x 384 = 1152 attacked rows per stream, enough for a
    p99, and averages over three series, which keeps the figures of one run
    from hanging on how hard one series happens to be."""

    name = "realtime"
    min_units = 1
    setup_repeats = 5
    normal_steps = 6000
    attack_steps = 3000
    series_seeds = (1, 1001, 2001)      # offsets from the run's seed
    epochs = {"dense": 30, "lstm": 3, "generator": 10}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> dict:
        plant = simulator.PlantConfig(seed=self.seed)
        normal = simulator.simulate_normal(plant, self.normal_steps)
        series = [simulator.inject_anomaly(simulator.PlantConfig(seed=self.seed + offset),
                                           REALTIME_SCENARIOS, self.attack_steps)
                  for offset in self.series_seeds]
        schema = simulator.sim_schema(plant).with_ranges_from(normal.values)
        constraint = attacks.unconstrained(len(schema))
        dense, _ = detector.build_detector(
            "dense", normal, fixed_epochs(self.seed, self.epochs["dense"]), W=SMOOTH_W)
        lstm, _ = detector.build_detector(
            "lstm", normal, fixed_epochs(self.seed, self.epochs["lstm"]), W=SMOOTH_W)
        gen, _ = attacks.train_generator(normal, constraint,
                                         fixed_epochs(self.seed + 1, self.epochs["generator"]))
        return {"series": series, "schema": schema, "constraint": constraint,
                "budget": attacks.IterativeBudget(), "dense": dense, "lstm": lstm, "gen": gen}

    def _stream(self, st: dict, series, det, attack: str,
                ) -> tuple[float, np.ndarray, np.ndarray, list[str]]:
        """One pass; returns the loop's seconds, per-row service seconds,
        per-row failure flags and the failure messages. The checks after the
        loop are not timed."""
        values = series.values
        mask = series.labels == 1
        stream = detector.DetectorStream(det)
        oracle = attacks.DetectorOracle(det) if attack == "iterative" else None
        m = det.history
        reported = np.empty_like(values)
        labels = np.empty(len(values), dtype=np.int64)
        service = np.empty(len(values))
        worse = np.zeros(len(values), dtype=bool)
        loop_start = clock()
        for t in range(len(values)):
            start = clock()
            row = values[t].copy()
            if mask[t]:
                if oracle is not None:
                    if m == 0 or t == 0:
                        oracle.set_context(None)
                    else:
                        ctx = reported[max(0, t - m):t]
                        if ctx.shape[0] < m:
                            ctx = np.vstack([np.repeat(reported[:1], m - ctx.shape[0], axis=0),
                                             ctx])
                        oracle.set_context(ctx)
                    res = attacks.iterative_conceal(oracle, row, st["constraint"],
                                                    st["budget"], st["schema"])
                    row = res.x_prime
                    worse[t] = res.eps_after > res.eps_before + 1e-12
                else:
                    row = attacks.conceal_learning(st["gen"], row, st["constraint"],
                                                   st["schema"])
            labels[t] = stream.push(row)[2]
            reported[t] = row
            service[t] = clock() - start
        loop_s = clock() - loop_start
        offline = detector.detect_series(det, series.with_values(reported)).labels
        mismatch = offline != labels
        late = service > DEADLINE_S
        errors = []
        if mismatch.any():
            errors.append(f"{attack}: {int(mismatch.sum())} stream labels differ from detect_series")
        if worse.any():
            errors.append(f"{attack}: {int(worse.sum())} concealed rows score worse than raw")
        if late.any():
            errors.append(f"{attack}: {int(late.sum())} rows missed the {DEADLINE_S:g} s deadline")
        return loop_s, service, mismatch | worse | late, errors

    def unit(self, st: dict) -> dict:
        seconds = 0.0
        passes: dict[str, list] = {"dense_iterative": [], "dense_learning": [],
                                   "lstm_iterative": []}
        masks = []
        errors: list[str] = []
        failed = attempted = 0
        for series in st["series"]:
            masks.append(series.labels == 1)
            for key, det, attack in (("dense_iterative", st["dense"], "iterative"),
                                     ("dense_learning", st["dense"], "learning"),
                                     ("lstm_iterative", st["lstm"], "iterative")):
                loop_s, service, bad, errs = self._stream(st, series, det, attack)
                seconds += loop_s
                passes[key].append(service)
                attempted += len(service)
                failed += int(bad.sum())
                errors += errs
        return {"seconds": seconds, "passes": passes, "masks": masks,
                "attempted": attempted, "failed": failed, "errors": errors}

    def metrics(self, units: list[dict]) -> tuple[dict, dict]:
        def rows(key, attacked):
            return np.concatenate([service[mask == attacked] for u in units
                                   for service, mask in zip(u["passes"][key], u["masks"])])

        named = {}
        named.update(_tail(np.concatenate([rows("dense_iterative", False),
                                           rows("dense_learning", False)]),
                           "rt_detect_row", "us"))
        named.update(_tail(rows("dense_iterative", True), "rt_iterative_step", "us"))
        named.update(_tail(rows("dense_learning", True), "rt_learning_step", "us"))
        named.update(_tail(rows("lstm_iterative", True), "rt_lstm_iterative_step", "us"))
        dense_iterative = [service for u in units for service in u["passes"]["dense_iterative"]]
        named["rt_max_rate_hz"] = _median([max_rate_hz(service) for service in dense_iterative])
        named["realtime_units"] = len(units)
        # The gated rate is the detector stream's: rows per second at the
        # median un-attacked row. The tail-based rt_max_rate_hz and the
        # attacked-row figures move with every scheduler stall and with how
        # many iterations the seed's rows need, so they are reported, not gated.
        rate = 1e6 / named["rt_detect_row_p50_us"]
        return {"work_s": _median([u["seconds"] for u in units]), "rate_per_s": rate}, named


WORKLOADS = {w.name: w for w in (Train, Pipeline, Realtime)}
