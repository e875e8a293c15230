"""Steadiness check: run the benchmark once per seed, one run at a time, and
report each end-to-end metric's median and quartile spread
((Q3 - Q1) / median) against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload realtime --seeds 0 1 2 3 4

Each run's last output line is kept in .bench_out/steady/<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    p.add_argument("--seconds", type=float, default=None,
                   help="run length; defaults to run_seconds from BENCHMARK.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    log = ROOT / ".bench_out" / "steady" / f"{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}")
            return 1
        line = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(line)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **line}) + "\n")
        print(f"seed {seed}: correct={line['correct']} failed={line['failed']}/"
              f"{line['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()), flush=True)

    if len(runs) >= 2:
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            spread = quartile_spread(values)
            print(f"{metric['name']}: median {statistics.median(values):.6g} "
                  f"spread {spread:.3f} bound {metric['bound']} "
                  f"({'ok' if spread <= metric['bound'] / 3 else 'WIDE'})")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
