"""Stream detection and in-line concealment, one sample at a time.

A man-in-the-middle attacker has to rewrite each sensor frame before the
SCADA historian sees it; at a 1-second sampling interval this leaves about
a millisecond of comfort zone for a software implementation. Here both
attacks run inside the loop: the learned generator (one forward pass) and
the iterative search (dozens of detector queries). The streaming detector
is the deployed counterpart of the offline one, so the run also checks
that its verdicts match an offline pass exactly.
"""
import numpy as np

from concealab.attacks import train_generator, unconstrained
from concealab.detector import DetectorStream, build_detector, detect_series
from concealab.evaluation import ATTACKS, SweepInputs, stream_attack
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
inputs = SweepInputs(detector, attacked, schema, normal)
under_attack = attacked.labels == 1

for attack in ("learning", "iterative"):
    # the iterative attack's oracle is the stream: it scores each candidate
    # behind the rows it was given, the history it holds
    conceal = ATTACKS[attack].rows(inputs, unconstrained(n))
    out = list(stream_attack(DetectorStream(detector), attacked, conceal, gen))
    reported = np.array([row for row, *_ in out])
    labels = np.array([label for *_, label, _ in out])
    lat = np.array([seconds for *_, seconds in out])[under_attack]
    misses = int((lat > INTERVAL_S).sum())
    print(f"{attack:>9}: per-step latency mean {lat.mean() * 1e3:.2f} ms, "
          f"p95 {np.percentile(lat, 95) * 1e3:.2f} ms, "
          f"max {lat.max() * 1e3:.2f} ms, "
          f"deadline misses at {INTERVAL_S:.0f} s: {misses}")
    print(f"{'':>9}  attacked steps still flagged: {labels[under_attack].mean():.1%}")

    # streaming verdicts must agree with an offline pass over what was sent
    offline = detect_series(detector, attacked.with_values(reported))
    assert np.array_equal(offline.labels, labels), "stream/offline mismatch"

print("\nstream and offline verdicts agree sample for sample")
