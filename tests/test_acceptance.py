"""Acceptance gate: end-to-end checks on the seeded synthetic benchmark.

Each test prints as one pass/fail line. The benchmark fixtures are shared
across tests (module scope) so the whole file stays inside the runtime
budgets asserted below. The last test runs only when the public BATADAL
CSVs are available (CONCEALAB_BATADAL env var); the suite passes without
them.
"""
import os
import time
from pathlib import Path

import numpy as np
import pytest

from concealab.attacks import (DetectorOracle, IterativeBudget,
                               conceal_series_iterative, conceal_series_learning,
                               iterative_conceal, partial, replay_attack,
                               train_generator, unconstrained)
from concealab.dataset import TimeSeries, load_csv
from concealab.detector import (build_detector, calibrate_threshold,
                                detect_series, smooth_errors)
from concealab.evaluation import SweepInputs, attack_recall, sweep_constraints
from concealab.nn import (TrainConfig, detector_conv_spec, detector_dense_spec,
                          detector_lstm_spec, init_params, loss_and_grads)
from concealab.schema import Channel, SensorSchema, batadal_schema
from concealab.simulator import (AnomalyScenario, PlantConfig, inject_anomaly,
                                 sim_schema, simulate_normal)
from gradcheck import finite_difference_gradients, kink_margin, max_relative_error

BUDGET = IterativeBudget()          # patience 15, budget 200, grid 50
SMOOTH_W = 3
REPLAY_OFFSET = 96                  # one day at 15-minute sampling

SCENARIOS = (
    AnomalyScenario("force-actuator-on", "PU1", 300, 48, 0.0),
    AnomalyScenario("force-actuator-off", "PU2", 600, 48, 0.0),
    AnomalyScenario("force-actuator-on", "PU3", 900, 48, 0.0),
    AnomalyScenario("force-actuator-off", "PU1", 1200, 48, 0.0),
    AnomalyScenario("force-actuator-on", "PU2", 1500, 48, 0.0),
    AnomalyScenario("force-actuator-off", "PU3", 1800, 48, 0.0),
    AnomalyScenario("force-actuator-on", "PU1", 2100, 48, 0.0),
    AnomalyScenario("force-actuator-off", "PU2", 2400, 48, 0.0),
)


@pytest.fixture(scope="module")
def bench():
    """10k-step normal training series, held-out normal data from a fresh
    seed, a labeled test series of forced-actuator faults, and a trained
    reconstruction detector."""
    plant = PlantConfig(seed=0)
    normal = simulate_normal(plant, 10_000)
    held_out = simulate_normal(PlantConfig(seed=2), 4_000)
    attacked = inject_anomaly(PlantConfig(seed=1), SCENARIOS, 3_000)
    schema = sim_schema(plant).with_ranges_from(normal.values)

    t0 = time.monotonic()
    detector, _ = build_detector("dense", normal, TrainConfig(seed=0), W=SMOOTH_W)
    train_seconds = time.monotonic() - t0

    return {
        "normal": normal,
        "held_out": held_out,
        "attacked": attacked,
        "schema": schema,
        "detector": detector,
        "train_seconds": train_seconds,
        "original_recall": attack_recall(detector, attacked),
        "n": len(schema),
    }


@pytest.fixture(scope="module")
def iterative_run(bench):
    t0 = time.monotonic()
    concealed, log, results = conceal_series_iterative(
        bench["detector"], bench["attacked"], unconstrained(bench["n"]),
        BUDGET, bench["schema"])
    seconds = time.monotonic() - t0
    return {"concealed": concealed, "log": log, "results": results,
            "seconds": seconds}


@pytest.fixture(scope="module")
def learning_run(bench):
    gen, _ = train_generator(bench["normal"], unconstrained(bench["n"]),
                             TrainConfig(seed=1))
    concealed, _, times = conceal_series_learning(
        gen, bench["attacked"], unconstrained(bench["n"]), bench["schema"])
    return {"generator": gen, "concealed": concealed, "times": times}


def test_a01_backprop_matches_finite_differences_everywhere():
    t0 = time.monotonic()
    specs = {
        "dense": lambda rng: detector_dense_spec(int(rng.integers(2, 9))),
        "lstm": lambda rng: detector_lstm_spec(int(rng.integers(2, 9)),
                                               window=int(rng.integers(2, 6))),
        "conv": lambda rng: detector_conv_spec(int(rng.integers(2, 9)), window=4,
                                               filters=(3, 5), dropout=0.0),
    }
    for kind, make in specs.items():
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            spec = make(rng)
            params = init_params(spec, seed)
            for k in params:
                # move biases off the zero-init special point so the check
                # probes a generic spot in parameter space
                if params[k].ndim == 1:
                    sign = rng.choice((-1.0, 1.0), size=params[k].shape)
                    params[k] = params[k] + sign * rng.uniform(
                        0.05, 0.2, size=params[k].shape)
            for _ in range(50):
                X = rng.uniform(0.1, 0.9, size=(3, spec.window, spec.channels))
                Y = rng.uniform(0.1, 0.9, size=(3, spec.channels))
                # central differences are undefined across a relu/pool kink;
                # keep drawing until the stencil has clear room
                if kink_margin(spec, params, X) > 1e-4:
                    break
            else:
                pytest.fail(f"{kind} seed {seed}: no smooth instance found")
            _, grads = loss_and_grads(spec, params, X, Y)
            numeric = finite_difference_gradients(spec, params, X, Y)
            err = max_relative_error(grads, numeric)
            assert err <= 1e-4, f"{kind} seed {seed}: relative error {err:.2e}"
    assert time.monotonic() - t0 < 60.0


def test_a02_detector_flags_faults_and_spares_normal_data(bench):
    t0 = time.monotonic()
    held_trace = detect_series(bench["detector"], bench["held_out"])
    eval_seconds = time.monotonic() - t0
    fpr = float(held_trace.labels.mean())
    recall = bench["original_recall"]
    assert fpr <= 0.05, f"held-out FPR {fpr:.4f}"
    assert recall >= 0.5, f"fault recall {recall:.4f}"
    assert bench["train_seconds"] + eval_seconds < 600.0


def test_a03_unconstrained_replay_blinds_the_detector(bench):
    t0 = time.monotonic()
    concealed, _ = replay_attack(bench["attacked"], REPLAY_OFFSET,
                                 unconstrained(bench["n"]))
    recall = attack_recall(bench["detector"], concealed, bench["attacked"].labels)
    assert time.monotonic() - t0 < 60.0
    assert recall <= 0.05, f"replay recall {recall:.4f}"


def test_a04_small_write_sets_make_replay_backfire(bench, iterative_run):
    inputs = SweepInputs(bench["detector"], bench["attacked"], bench["schema"],
                         bench["normal"], offset=REPLAY_OFFSET, budget=BUDGET,
                         gen_cfg=TrainConfig(seed=1))
    half_n = bench["n"] // 2
    rows = sweep_constraints(inputs, list(range(1, half_n + 1)),
                             change_log=iterative_run["log"], attacks=("replay",),
                             selection="best-case", repetitions=1, base_seed=0)
    original = bench["original_recall"]
    above = {r["k"]: r["recall"] for r in rows if r["recall"] >= original}
    assert above, (f"no k <= {half_n} pushed replay recall above the original "
                   f"{original:.3f}: " + str({r['k']: round(r['recall'], 3) for r in rows}))


def test_a05_iterative_guarantees_hold_on_every_sample(bench, iterative_run):
    results = iterative_run["results"]
    assert len(results) == int(bench["attacked"].labels.sum())
    theta = bench["detector"].theta
    trace = detect_series(bench["detector"], iterative_run["concealed"])
    for r in results:
        assert r.eps_after <= r.eps_before + 1e-12, f"step {r.t} got worse"
        assert r.iterations <= BUDGET.budget
        assert r.max_nonimprove_streak <= BUDGET.patience
        if r.solved:
            # re-verify against a fresh detector pass over the reported series
            assert trace.epsilon[r.t] < theta, f"step {r.t} not actually quiet"


def test_a06_iterative_attack_halves_recall(bench, iterative_run):
    recall = attack_recall(bench["detector"], iterative_run["concealed"],
                           bench["attacked"].labels)
    assert iterative_run["seconds"] < 600.0
    assert recall <= 0.5 * bench["original_recall"], (
        f"iterative recall {recall:.4f} vs original {bench['original_recall']:.4f}")


def test_a07_generator_conceals_without_detector_access(bench, learning_run):
    recall_full = attack_recall(bench["detector"], learning_run["concealed"],
                                bench["attacked"].labels)
    assert recall_full <= 0.75 * bench["original_recall"], (
        f"learning recall {recall_full:.4f} vs original {bench['original_recall']:.4f}")

    gen_q, _ = train_generator(bench["normal"],
                               unconstrained(bench["n"], fraction=0.25),
                               TrainConfig(seed=1), sample_mode="random")
    concealed_q, _, _ = conceal_series_learning(
        gen_q, bench["attacked"], unconstrained(bench["n"]), bench["schema"])
    recall_q = attack_recall(bench["detector"], concealed_q, bench["attacked"].labels)
    assert recall_q <= recall_full + 0.1, (
        f"quarter-data recall {recall_q:.4f} vs full-data {recall_full:.4f}")


def test_a08_concealed_series_transfers_across_architectures(bench, learning_run):
    concealed = learning_run["concealed"]
    for kind, seed in (("dense", 5), ("lstm", 3), ("conv", 4)):
        det, _ = build_detector(kind, bench["normal"],
                                TrainConfig(seed=seed, max_epochs=60), W=SMOOTH_W)
        original = attack_recall(det, bench["attacked"])
        reduced = attack_recall(det, concealed, bench["attacked"].labels)
        assert reduced < original, (
            f"{kind}: concealed recall {reduced:.4f} not below original {original:.4f}")


def test_a09_learning_attack_fits_a_realtime_budget(bench, learning_run, iterative_run):
    times = np.asarray(learning_run["times"])
    assert times.size > 0
    assert times.mean() < 0.050, f"mean step latency {times.mean() * 1e3:.2f} ms"
    misses = int((times > 1.0).sum())
    assert misses == 0, f"{misses} deadline misses at 1 s sampling"
    iter_times = np.asarray([r.seconds for r in iterative_run["results"]])
    interval = bench["attacked"].interval_s
    print(f"\niterative per-step mean {iter_times.mean():.4f}s "
          f"(sampling interval {interval:.0f}s, bound 2x interval)")


def test_a10_fast_paths_match_brute_force_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)

    # threshold calibration vs sort-and-interpolate
    for _ in range(1000):
        vals = rng.exponential(scale=rng.uniform(0.01, 10.0),
                               size=int(rng.integers(2, 300)))
        s = np.sort(vals)
        rank = 0.995 * (s.size - 1)
        lo, hi = int(np.floor(rank)), int(np.ceil(rank))
        expect = s[lo] * (1 - (rank - lo)) + s[hi] * (rank - lo)
        assert calibrate_threshold(vals) == pytest.approx(expect, rel=1e-12)

    # window smoothing vs explicit trailing means
    for _ in range(300):
        eps = rng.uniform(size=int(rng.integers(1, 120)))
        W = int(rng.integers(1, 10))
        expect = np.array([eps[max(0, i - W + 1):i + 1].mean()
                           for i in range(eps.size)])
        np.testing.assert_allclose(smooth_errors(eps, W), expect,
                                   rtol=1e-9, atol=1e-12)

    # best-mutation search vs exhaustive scan over the same grid
    plant_rows = 2.0 + 0.5 * rng.standard_normal((300, 4)).cumsum(axis=0) * 0.01
    normal = TimeSeries(["a", "b", "c", "d"], plant_rows + 2.0)
    det, _ = build_detector("dense", normal, TrainConfig(max_epochs=10, seed=0))
    schema = SensorSchema(tuple(
        Channel(n, "continuous", 1) for n in normal.names)).with_ranges_from(normal.values)
    oracle = DetectorOracle(det)
    for G in (2, 3, 4, 5):
        for n_writable in (1, 2, 3):
            for seed in range(5):
                r = np.random.default_rng(seed)
                x = normal.values[int(r.integers(0, 300))] + r.normal(scale=0.7, size=4)
                channel = int(r.integers(0, n_writable))
                res = iterative_conceal(oracle, x, partial(4, [channel]),
                                        IterativeBudget(patience=1, budget=1, grid=G),
                                        schema)
                ch = schema.channels[channel]
                cands = np.repeat(x[None], G, axis=0)
                cands[:, channel] = np.linspace(ch.vmin, ch.vmax, G)
                scores = np.array([oracle.query_batch(c[None])[1][0] for c in cands])
                j = int(np.argmin(scores))
                if scores[j] < oracle.query_batch(x[None])[1][0]:
                    np.testing.assert_array_equal(res.x_prime, cands[j])
                    assert res.eps_after == pytest.approx(scores[j], rel=1e-12)
                else:
                    np.testing.assert_array_equal(res.x_prime, x)
    assert time.monotonic() - t0 < 60.0


BATADAL_DIR = os.environ.get("CONCEALAB_BATADAL", "")
_train_csv = Path(BATADAL_DIR) / "BATADAL_dataset03.csv" if BATADAL_DIR else None
_test_csv = Path(BATADAL_DIR) / "BATADAL_dataset04.csv" if BATADAL_DIR else None
_have_batadal = bool(BATADAL_DIR) and _train_csv.exists() and _test_csv.exists()


@pytest.mark.skipif(not _have_batadal,
                    reason="public BATADAL CSVs not supplied (set CONCEALAB_BATADAL)")
def test_a11_published_dataset_reproduction():
    schema = batadal_schema()
    train = load_csv(_train_csv, schema.names)
    test = load_csv(_test_csv, schema.names)
    det, _ = build_detector("dense", train, TrainConfig(seed=0), W=SMOOTH_W)
    trace = detect_series(det, test)
    attacked_steps = test.labels == 1
    recall = float(trace.labels[attacked_steps].mean())
    fpr = float(trace.labels[~attacked_steps].mean())
    assert 0.50 <= recall <= 0.70, f"recall {recall:.4f}"
    assert fpr <= 0.03, f"FPR {fpr:.4f}"
    concealed, _ = replay_attack(test, 168, unconstrained(len(schema)))
    replay_recall = attack_recall(det, concealed, test.labels)
    assert replay_recall <= 0.05, f"replay recall {replay_recall:.4f}"
