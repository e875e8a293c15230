"""Benchmark of concealab: the `train`, `pipeline` and `realtime` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload realtime --seed 0 --seconds 30 --trace 0

`--trace 0` repeats the workload's unit of fixed work for about `--seconds`
seconds and prints the end-to-end metrics. `setup_s` is the median of the
workload's `setup_repeats` set-ups, half of them timed before the units and
half after, so that the median samples the machine over the whole run.
`--trace 1` runs untraced units for half the time, then sets up and runs
one unit again with every layer's public functions wrapped by span
recorders (see layers.py), and prints the per-layer metrics;
`trace.overhead_pct` is the traced unit against the median untraced one.
Both modes run every correctness check; a failed check counts as a failed
operation.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Lines before it give the
environment, and the workload's own figures by name (for example
`rt_iterative_step_p99_us`) with their sample counts. Full results go to
`.bench_out/results/`, spans to `.bench_out/traces/`.

The package is imported from `src/` next to this directory; without it the
run exits with code 2 and prints no result.
"""
from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: the matrices are small, and a
# second thread would only compete with the interpreter for a core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# End-to-end metrics every workload reports; BENCHMARK.json lists the same.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_s": "s", "rate_per_s": "1/s"}

clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("train", "pipeline", "realtime"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, state, seconds: float, min_units: int) -> dict:
    """Repeat the workload's unit until the next one would end after
    `seconds`, running at least min_units. A unit that raises counts as one
    failed operation; its traceback goes to stderr."""
    units, errors = [], []
    attempted = failed = tries = 0
    start = clock()
    while True:
        tries += 1
        try:
            unit = workload.unit(state)
        except Exception:  # the run reports the failure and goes on
            traceback.print_exc()
            attempted += 1
            failed += 1
            errors.append("unit raised")
        else:
            units.append(unit)
            attempted += unit["attempted"]
            failed += unit["failed"]
            errors += unit["errors"]
        elapsed = clock() - start
        if tries >= min_units and elapsed * (tries + 1) / tries > seconds:
            break
    return {"units": units, "attempted": attempted, "failed": failed, "errors": errors}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _complete(units):
    good = [u for u in units if u.get("complete", True)]
    if not good:
        raise RuntimeError("no unit of work completed")
    return good


def timed_setups(workload, n: int):
    """Set the workload up n times; returns the last state and the seconds
    of each set-up."""
    state, seconds = None, []
    for _ in range(n):
        state = None        # the previous state is freed before the next set-up
        start = clock()
        state = workload.setup()
        seconds.append(clock() - start)
    return state, seconds


def untraced(workload, seconds: float) -> dict:
    before = (workload.setup_repeats + 1) // 2
    state, setup_s = timed_setups(workload, before)
    run = measure(workload, state, seconds, workload.min_units)
    state = None
    setup_s += timed_setups(workload, workload.setup_repeats - before)[1]
    generic, named = workload.metrics(_complete(run["units"]))
    setup = statistics.median(setup_s)
    values = {"setup_s": setup, "peak_rss_mb": _peak_rss_mb(), **generic}
    named.update(setup_s=setup, peak_rss_mb=values["peak_rss_mb"])
    return {**run, "metrics": {m: (values[m], u) for m, u in END_TO_END.items()},
            "named": named, "setup_samples_s": setup_s,
            "unit_seconds": [u["seconds"] for u in run["units"]]}


def traced(workload, seconds: float, trace_path: Path, meta: dict) -> dict:
    import layers
    from tracing import Tracer

    base = measure(workload, workload.setup(), seconds / 2, 1)
    base_units = _complete(base["units"])
    tracer = Tracer()
    layers.install(tracer)
    try:
        one = measure(workload, workload.setup(), 0.0, 1)
    finally:
        tracer.unpatch()
    traced_unit = _complete(one["units"])[0]
    base_s = sorted(u["seconds"] for u in base_units)[len(base_units) // 2]
    overhead = (traced_unit["seconds"] / base_s - 1.0) * 100.0
    metrics, unused, unmeasured = layers.per_layer_metrics(
        tracer, traced_unit.get("counts", {}), overhead)
    tracer.dump(trace_path, {**meta, "unit_seconds": traced_unit["seconds"],
                             "untraced_unit_seconds": [u["seconds"] for u in base_units]})
    return {"units": base["units"] + one["units"],
            "attempted": base["attempted"] + one["attempted"],
            "failed": base["failed"] + one["failed"],
            "errors": base["errors"] + one["errors"],
            "metrics": metrics, "unused": unused, "unmeasured": unmeasured,
            "missing_targets": tracer.missing, "spans": len(tracer.spans)}


def _named_unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_hz", "Hz"), ("_per_s", "1/s"), ("_s", "s"),
                         ("_mb", "MB"), ("_samples", "count"), ("_units", "count")):
        if name.endswith(suffix):
            return unit
    return ""


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "concealab" / "__init__.py").is_file():
        print(f"error: no concealab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import envinfo
    from workloads import WORKLOADS

    out = ROOT / ".bench_out"
    for sub in ("work", "results", "traces"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = envinfo.collect(ROOT, args.seed)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env}
    workdir = Path(tempfile.mkdtemp(dir=out / "work", prefix=tag + "-"))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            result = traced(workload, args.seconds, out / "traces" / f"{tag}.json", meta)
        else:
            result = untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir)

    print("env: " + json.dumps(env, sort_keys=True))
    if "named" in result:
        named = {k: {"value": v, "unit": _named_unit(k)} for k, v in result["named"].items()}
        print(f"{args.workload}: " + json.dumps(named))
    if args.trace:
        print("unused layers (no calls in this workload): " + json.dumps(result["unused"]))
        print("unmeasured (wrap targets missing): " + json.dumps(result["unmeasured"]))
        if result["missing_targets"]:
            print("missing wrap targets: " + json.dumps(result["missing_targets"]))
    for err in result["errors"]:
        print("failed: " + err)
    metrics = {m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    record = {**meta, **{k: v for k, v in result.items() if k != "units"}, "result": line}
    (out / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str)
                                                 + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
