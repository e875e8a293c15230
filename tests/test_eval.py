"""Confusion metrics, per-scenario detection, the attack table's realtime
loop, and the sweep harness plumbing."""
import csv
import json

import numpy as np
import pytest

from concealab.attacks import train_generator, unconstrained
from concealab.dataset import TimeSeries
from concealab.detector import DetectorStream, build_detector, detect_series
from concealab.evaluation import (ATTACKS, Confusion, SweepInputs, attack_recall,
                                  attack_windows, confusion, evaluate,
                                  metrics, scenario_detection, stream_attack,
                                  sweep_to_csv, SWEEP_COLUMNS)
from concealab.nn import TrainConfig
from concealab.schema import Channel, SensorSchema


def test_confusion_counts():
    pred = np.array([1, 0, 1, 1, 0, 0])
    truth = np.array([1, 1, 0, 1, 0, 0])
    c = confusion(pred, truth)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 2, 1)
    assert c.total == 6


def test_metric_values():
    m = metrics(Confusion(tp=3, fp=1, tn=5, fn=1))
    assert m["recall"] == pytest.approx(0.75)
    assert m["precision"] == pytest.approx(0.75)
    assert m["accuracy"] == pytest.approx(0.8)
    assert m["fpr"] == pytest.approx(1.0 / 6.0)


def test_metrics_undefined_on_zero_denominator():
    m = metrics(Confusion(tp=0, fp=0, tn=10, fn=0))
    assert m["recall"] is None
    assert m["precision"] is None
    assert m["fpr"] == 0.0
    m2 = metrics(Confusion(tp=0, fp=0, tn=0, fn=0))
    assert m2["accuracy"] is None
    assert m2["fpr"] is None


def test_attack_windows_finds_contiguous_runs():
    truth = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 1])
    assert attack_windows(truth) == [(1, 3), (5, 6), (7, 10)]
    assert attack_windows(np.zeros(4, dtype=int)) == []
    assert attack_windows(np.ones(3, dtype=int)) == [(0, 3)]


def test_scenario_detection_reports_each_window():
    truth = np.array([0, 1, 1, 1, 0, 1, 1, 0])
    pred = np.array([0, 0, 1, 1, 0, 0, 0, 0])
    rows = scenario_detection(pred, truth)
    assert len(rows) == 2
    assert rows[0] == {"start": 1, "stop": 4, "detected": True,
                       "recall": pytest.approx(2.0 / 3.0)}
    assert rows[1]["detected"] is False
    assert rows[1]["recall"] == 0.0


def _detector_and_series(seed=0):
    rng = np.random.default_rng(seed)
    base = 3.0 + np.sin(np.linspace(0, 30, 600))[:, None] * np.array([1.0, 0.6])
    normal = TimeSeries(["a", "b"], base + rng.normal(scale=0.04, size=(600, 2)))
    det, _ = build_detector("dense", normal, TrainConfig(max_epochs=30, seed=seed), W=3)
    labels = np.zeros(600, dtype=int)
    labels[300:340] = 1
    attacked = TimeSeries(["a", "b"], normal.values.copy(), labels=labels)
    attacked.values[300:340, 0] += 2.0
    return det, attacked


def test_attack_recall_counts_flagged_attack_steps():
    det, attacked = _detector_and_series()
    r = attack_recall(det, attacked)
    assert r is not None and r > 0.5


def test_attack_recall_with_external_truth():
    det, attacked = _detector_and_series()
    concealed = TimeSeries(attacked.names, attacked.values.copy())
    concealed.values[300:340] = attacked.values[260:300]  # crude replay
    r = attack_recall(det, concealed, attacked.labels)
    assert r is not None
    assert r <= attack_recall(det, attacked)


def test_attack_recall_none_without_attack_steps():
    det, attacked = _detector_and_series()
    clean = TimeSeries(attacked.names, attacked.values,
                       labels=np.zeros(len(attacked), dtype=int))
    assert attack_recall(det, clean) is None


def test_evaluate_produces_full_report(tmp_path):
    det, attacked = _detector_and_series()
    rep = evaluate(det, attacked, meta={"tag": "x"})
    assert rep.counts.total == len(attacked)
    assert rep.metric_values["recall"] == rep.attack_recall
    assert len(rep.scenarios) == 1
    path = tmp_path / "report.json"
    rep.save(path)
    back = json.loads(path.read_text())
    assert back["attack_recall"] == rep.attack_recall
    assert back["meta"]["tag"] == "x"
    assert back["counts"]["tp"] == rep.counts.tp


def test_identity_attack_changes_nothing():
    det, attacked = _detector_and_series()
    r1 = evaluate(det, attacked)
    r2 = evaluate(det, attacked, truth=attacked.labels)
    assert r1.attack_recall == r2.attack_recall
    assert r1.counts.tp == r2.counts.tp


def test_sweep_csv_layout(tmp_path):
    rows = [{"attack": "replay", "k": 3, "repetition": 0, "recall": 0.5,
             "mean_time_s": None, "std_time_s": None}]
    path = tmp_path / "sweep.csv"
    sweep_to_csv(rows, path)
    with open(path) as fh:
        got = list(csv.reader(fh))
    assert got[0] == list(SWEEP_COLUMNS)
    assert got[1] == ["replay", "3", "0", "0.5", "", ""]


@pytest.fixture(scope="module")
def stream_inputs():
    """A 3-channel normal series, an attacked one with rows 120..149
    labeled, a dense and an LSTM detector and a generator."""
    rng = np.random.default_rng(7)
    names = ["a", "b", "c"]
    wave = np.sin(np.linspace(0, 20, 500))[:, None] * np.array([1.0, 0.5, 2.0])
    values = 3.0 + wave + rng.normal(scale=0.05, size=(500, 3))
    normal = TimeSeries(names, values[:300])
    rows = values[300:].copy()
    rows[120:150, 1] += 1.5
    labels = np.zeros(200, dtype=int)
    labels[120:150] = 1
    attacked = TimeSeries(names, rows, labels=labels)
    schema = SensorSchema(tuple(Channel(n, "continuous") for n in names)
                          ).with_ranges_from(normal.values)
    cfg = TrainConfig(max_epochs=2, seed=1)
    detectors = {kind: build_detector(kind, normal, cfg, W=3)[0] for kind in ("dense", "lstm")}
    gen = train_generator(normal, unconstrained(3), cfg)[0]
    return detectors, SweepInputs(None, attacked, schema, normal, offset=100), gen


@pytest.mark.parametrize("kind", ["identity", "replay", "learning"])
@pytest.mark.parametrize("detector_kind", ["dense", "lstm"])
def test_the_realtime_loop_reports_the_rows_of_the_offline_attack(stream_inputs, kind,
                                                                  detector_kind):
    detectors, inputs, gen = stream_inputs
    det, attack, constraint = detectors[detector_kind], ATTACKS[kind], unconstrained(3)
    attacked = inputs.series
    conceal = attack.rows(inputs, constraint) if attack.rows else None
    out = list(stream_attack(DetectorStream(det), attacked, conceal, gen))
    reported = np.array([row for row, *_ in out])
    offline = (attack.series(inputs, constraint, gen)[0].values if attack.series
               else attacked.values)
    assert reported.tobytes() == offline.tobytes()
    assert (reported != attacked.values).any() == (attack.series is not None)
    trace = detect_series(det, attacked.with_values(reported))
    assert [label for *_, label, _ in out] == trace.labels.tolist()
    assert all(seconds >= 0.0 for *_, seconds in out)
