"""Stream detection and in-line concealment, one sample at a time.

A man-in-the-middle attacker has to rewrite each sensor frame before the
SCADA historian sees it; at a 1-second sampling interval this leaves about
a millisecond of comfort zone for a software implementation. Here both
attacks run inside the loop: the learned generator (one forward pass) and
the iterative search (dozens of detector queries). The streaming detector
is the deployed counterpart of the offline one, so the run also checks
that its verdicts match an offline pass exactly.
"""
import time

import numpy as np

from concealab.attacks import (IterativeBudget, conceal_learning,
                               iterative_conceal, train_generator,
                               unconstrained)
from concealab.detector import DetectorStream, build_detector, detect_series
from concealab.nn import TrainConfig
from concealab.simulator import (AnomalyScenario, PlantConfig, inject_anomaly,
                                 sim_schema, simulate_normal)

INTERVAL_S = 1.0

plant = PlantConfig(seed=0)
normal = simulate_normal(plant, 6000)
schema = sim_schema(plant).with_ranges_from(normal.values)
n = len(schema)

scenarios = (AnomalyScenario("force-actuator-on", "PU1", 300, 48, 0.0),
             AnomalyScenario("force-actuator-off", "PU2", 600, 48, 0.0))
attacked = inject_anomaly(PlantConfig(seed=1), scenarios, 900)
detector, _ = build_detector("dense", normal, TrainConfig(seed=0), W=3)
gen, _ = train_generator(normal, unconstrained(n), TrainConfig(seed=1))
budget = IterativeBudget()
constraint = unconstrained(n)

for attack in ("learning", "iterative"):
    stream = DetectorStream(detector)
    reported = np.empty_like(attacked.values)
    labels = np.empty(len(attacked), dtype=int)
    lat = []
    for t in range(len(attacked)):
        row = attacked.values[t].copy()
        start = time.perf_counter()
        if attacked.labels[t] == 1:
            if attack == "learning":
                row = conceal_learning(gen, row, constraint, schema)
            else:
                # the stream is the oracle: it scores the candidate behind
                # what was reported, the history it holds
                row = iterative_conceal(stream, row, constraint, budget,
                                        schema).x_prime
            lat.append(time.perf_counter() - start)
        _, _, labels[t] = stream.push(row)
        reported[t] = row
    lat = np.asarray(lat)
    misses = int((lat > INTERVAL_S).sum())
    print(f"{attack:>9}: per-step latency mean {lat.mean() * 1e3:.2f} ms, "
          f"p95 {np.percentile(lat, 95) * 1e3:.2f} ms, "
          f"max {lat.max() * 1e3:.2f} ms, "
          f"deadline misses at {INTERVAL_S:.0f} s: {misses}")
    flagged = labels[attacked.labels.astype(bool)].mean()
    print(f"{'':>9}  attacked steps still flagged: {flagged:.1%}")

    # streaming verdicts must agree with an offline pass over what was sent
    offline = detect_series(detector, attacked.with_values(reported))
    assert np.array_equal(offline.labels, labels), "stream/offline mismatch"

print("\nstream and offline verdicts agree sample for sample")
