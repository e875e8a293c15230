"""End-to-end runs of every subcommand against tiny configs."""
import copy
import csv
import dataclasses
import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concealab
from concealab import cli, evaluation, model_io, workers
from concealab.attacks import (DetectorOracle, IterativeBudget, iterative_conceal, learning,
                               unconstrained)
from concealab.cli import main
from concealab.dataset import load_csv
from concealab.detector import DetectorStream
from concealab.errors import DataError, SpecError
from concealab.schema import SensorSchema
from concealab.simulator import AnomalyScenario, TankSpec
from test_incremental import padded_history

ROOT = Path(__file__).resolve().parents[1]

BASE = {
    "seed": 3,
    "dataset": {"steps": 500, "attack_steps": 400},
    "detector": {"kind": "dense", "window_w": 3, "train": {"max_epochs": 20}},
    "attack": {"kind": "replay", "offset": 96},
}


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(args):
    return main(args)


def _only_run_dir(out: Path) -> Path:
    dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


def test_simulate_writes_dataset(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    assert _run(["simulate", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    d = _only_run_dir(tmp_path / "runs")
    for name in ("normal.csv", "attacked.csv", "schema.json", "config.json"):
        assert (d / name).exists()
    printed = capsys.readouterr().out
    assert "normal.csv" in printed


def test_train_detector_writes_model(tmp_path):
    cfg = _write(tmp_path, BASE)
    assert _run(["train-detector", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    d = _only_run_dir(tmp_path / "runs")
    assert (d / "detector.model").exists()
    log = json.loads((d / "train_log.json").read_text())
    assert log["epochs_run"] >= 1
    assert log["best_val"] == min(log["val_loss"])


def test_identity_attack_serves_the_attacked_series(tmp_path, capsys):
    cfg = _write(tmp_path, {**BASE, "attack": {"kind": "identity"}})
    assert _run(["attack", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    d = _only_run_dir(tmp_path / "runs")
    assert capsys.readouterr().out == f"{d / 'attacked.csv'}\n"
    assert (d / "attacked.csv").is_file()
    assert not (d / "detector.model").exists()


def test_attack_writes_concealed_series(tmp_path):
    cfg = _write(tmp_path, BASE)
    assert _run(["attack", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    d = _only_run_dir(tmp_path / "runs")
    assert (d / "concealed.csv").exists()
    assert (d / "change_log.csv").exists()
    meta = json.loads((d / "attack_meta.json").read_text())
    assert meta["kind"] == "replay"


def test_evaluate_writes_report_and_trace(tmp_path):
    cfg = _write(tmp_path, BASE)
    assert _run(["evaluate", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    d = _only_run_dir(tmp_path / "runs")
    rep = json.loads((d / "report.json").read_text())
    assert rep["meta"]["attack"] == "replay"
    assert rep["attack_recall"] is not None
    assert rep["meta"]["original_attack_recall"] is not None
    # concealment can only lower the flagged fraction
    assert rep["attack_recall"] <= rep["meta"]["original_attack_recall"]
    with open(d / "trace.csv") as fh:
        header = next(csv.reader(fh))
    assert header[:4] == ["timestamp", "epsilon", "epsilon_smoothed", "label"]


def test_rerun_reuses_artifacts_bit_exact(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = str(tmp_path / "runs")
    assert _run(["evaluate", "--config", cfg, "--out", out]) == 0
    d = _only_run_dir(tmp_path / "runs")
    first = {p.name: p.read_bytes() for p in d.iterdir() if p.is_file()}
    assert _run(["evaluate", "--config", cfg, "--out", out]) == 0
    for name, blob in first.items():
        assert (d / name).read_bytes() == blob, f"{name} changed on re-run"


def test_same_config_maps_to_same_run_dir(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = str(tmp_path / "runs")
    _run(["simulate", "--config", cfg, "--out", out])
    _run(["simulate", "--config", cfg, "--out", out])
    assert len(list((tmp_path / "runs").iterdir())) == 1
    # a different seed resolves to a different directory
    _run(["simulate", "--config", cfg, "--seed", "99", "--out", out])
    assert len(list((tmp_path / "runs").iterdir())) == 2


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    cfg = _write(tmp_path, {"detector": {"winndow": 3}})
    code = _run(["evaluate", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 2
    err_lines = [l for l in captured.err.splitlines() if l.strip()]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: SpecError:")
    assert "winndow" in err_lines[0]


def test_invalid_json_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = _run(["evaluate", "--config", str(bad)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: DataError:")


@pytest.mark.parametrize("channels", [
    [{"kind": "continuous"}],
    5,
    ["L_T1"],
    [{"name": "L_T1", "kind": "categorical", "allowed_values": 5}],
], ids=["no-name", "not-a-list", "not-an-object", "allowed-values"])
def test_malformed_schema_fails_cleanly(tmp_path, capsys, channels):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"channels": channels}))
    series = tmp_path / "series.csv"
    series.write_text("DATETIME,L_T1\n")
    cfg = _write(tmp_path, {**BASE, "dataset": {"source": "csv", "train_csv": str(series),
                                                "test_csv": str(series), "schema": str(schema)}})
    code = _run(["train-detector", "--config", cfg, "--out", str(tmp_path / "runs")])
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert code == 2
    assert len(err_lines) == 1
    assert err_lines[0].startswith(f"error: DataError: schema {schema}: ")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("channels,kind,words", [
    ([{"name": "S_PU1", "kind": "binary", "allowed": [0, 2]}], "DataError",
     ["channels[0].allowed is an unknown key"]),
    ([{"name": "L_T1", "vmin": "low"}], "DataError",
     ["channels[0].vmin must be a finite JSON number or null, got 'low'"]),
    ([{"name": "L_T1", "vmax": True}], "DataError",
     ["channels[0].vmax must be a finite JSON number or null, got True"]),
    ([{"name": "L_T1", "vmax": float("inf")}], "DataError",
     ["channels[0].vmax must be a finite JSON number or null, got inf"]),
    ([{"name": "L_T1", "plc": True}], "DataError",
     ["channels[0].plc must be a JSON integer or null, got True"]),
    ([{"name": "L_T1", "plc": "1"}], "DataError",
     ["channels[0].plc must be a JSON integer or null, got '1'"]),
    ([{"name": "L_T1", "depends_on": 3}], "DataError",
     ["channels[0].depends_on must be a JSON string or null, got 3"]),
    ([{"name": "S", "kind": "categorical", "allowed_values": [0, "on"]}], "DataError",
     ["channels[0].allowed_values[1] must be a finite JSON number, got 'on'"]),
    ([{"name": "L_T1", "kind": "analog"}], "SpecError", ["unknown kind 'analog'"]),
    ([{"name": "S", "kind": "categorical"}], "SpecError", ["categorical needs allowed_values"]),
    ([{"name": "L_T1"}, {"name": "L_T1"}], "SpecError", ["duplicate channel names"]),
    ([{"name": "F", "depends_on": "S"}], "SpecError", ["depends on unknown channel 'S'"]),
], ids=["unknown-key", "vmin-string", "vmax-bool", "vmax-infinite", "plc-bool", "plc-string",
        "depends-on-number", "allowed-values-item", "unknown-kind", "categorical-no-values",
        "duplicate-names", "depends-on-unknown"])
def test_bad_schema_values_fail_before_any_run_dir(tmp_path, capsys, channels, kind, words):
    """Each schema value is checked when the config loads: one line that names
    the file and the key, exit 2, and no run directory."""
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"channels": channels}))
    series = tmp_path / "series.csv"
    series.write_text("DATETIME,L_T1\n")
    cfg = _write(tmp_path, {**BASE, "attack": {"kind": "iterative"},
                            "dataset": {"source": "csv", "train_csv": str(series),
                                        "test_csv": str(series), "schema": str(schema)}})
    code = _run(["attack", "--config", cfg, "--out", str(tmp_path / "runs")])
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert code == 2
    assert len(err_lines) == 1
    assert err_lines[0].startswith(f"error: {kind}: schema {schema}: ")
    for word in words:
        assert word in err_lines[0]
    assert not (tmp_path / "runs").exists()


def test_missing_csv_inputs_fail_cleanly(tmp_path, capsys):
    cfg = _write(tmp_path, {"dataset": {"source": "csv", "train_csv": "no.csv",
                                        "test_csv": "no.csv", "schema": "no.json"}})
    code = _run(["evaluate", "--config", cfg])
    assert code == 2
    assert "no.csv" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("detector", "window_w", "abc"),
    ("detector", "train", {"lr": "x"}),
    ("dataset", "steps", "many"),
    ("attack", "budget", {"grid": 1.5}),
    ("evaluation", "repetitions", "two"),
], ids=["window_w", "train.lr", "steps", "budget.grid", "repetitions"])
def test_config_type_errors_fail_cleanly(tmp_path, capsys, section, key, value):
    cfg = _write(tmp_path, {section: {key: value}})
    code = _run(["train-detector", "--config", cfg, "--out", str(tmp_path / "runs")])
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert code == 2
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: SpecError:")
    leaf = ".".join([section, key, *value]) if isinstance(value, dict) else f"{section}.{key}"
    assert f"config {leaf} must be" in err_lines[0]
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("scenarios,message", [
    ([{"kind": "sensor-offset", "start": 10}], "needs 'target'"),
    ([{"kind": "sensor-offset", "target": "L_T1", "duration": 5}], "needs 'start'"),
    ([{"kind": "sensor-offset", "target": "L_T1", "start": 5}], "needs 'duration'"),
    (["PU1"], "must be a JSON object"),
    ([{"kind": "force-actuator-on", "target": "PU1", "start": "10", "duration": 5}],
     "dataset.scenarios[0].start must be a JSON integer"),
    ([{"kind": "sensor-offset", "target": "L_T1", "start": 1, "duration": 5,
       "magnitude": "big"}], "dataset.scenarios[0].magnitude must be a finite JSON number"),
    ([{"kind": "force-actuator-on", "target": 1, "start": 1, "duration": 5}],
     "dataset.scenarios[0].target must be a JSON string"),
    ([{"kind": "force-actuator-on", "target": "PU1", "start": 1, "duration": True}],
     "dataset.scenarios[0].duration must be a JSON integer"),
    ({"kind": "force-actuator-on"}, "must be \"auto\" or a list"),
], ids=["no-target", "no-start", "no-duration", "not-object", "start-str",
        "magnitude-str", "target-int", "duration-bool", "not-list"])
def test_config_scenario_errors_fail_cleanly(tmp_path, capsys, scenarios, message):
    cfg = _write(tmp_path, {**BASE, "dataset": {**BASE["dataset"], "scenarios": scenarios}})
    code = _run(["simulate", "--config", cfg, "--out", str(tmp_path / "runs")])
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert code == 2
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: SpecError: config dataset.scenarios")
    assert message in err_lines[0]
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command,section,value,path", [
    ("realtime", "attack", {"kind": "iterativ"}, "attack.kind"),
    ("realtime", "realtime", {"pace": "rael"}, "realtime.pace"),
    ("sweep", "evaluation", {"attacks": ["identity"]}, "evaluation.attacks[0]"),
    ("simulate", "dataset", {"plant": {"tanks": [{"volume": 3}]}},
     "dataset.plant.tanks[0].volume"),
    ("simulate", "dataset", {"plant": {"tanks": [{"capacity": "5"}]}},
     "dataset.plant.tanks[0].capacity"),
    ("attack", "attack", {"mode": "partial", "write": [{}]}, "attack.write[0]"),
    ("simulate", "output_dir", 5, "output_dir"),
], ids=["attack-kind", "pace", "sweep-attacks", "tank-key", "tank-type", "write-item",
        "output-dir"])
def test_config_leaf_errors_fail_before_any_run_dir(tmp_path, capsys, command, section,
                                                    value, path):
    setting = {**BASE.get(section, {}), **value} if isinstance(value, dict) else value
    cfg = _write(tmp_path, {**BASE, section: setting})
    # --out replaces the config's output_dir before the check
    out = [] if section == "output_dir" else ["--out", str(tmp_path / "runs")]
    code = _run([command, "--config", cfg, *out])
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert code == 2
    assert len(err_lines) == 1
    assert err_lines[0].startswith(f"error: SpecError: config {path} ")
    assert not (tmp_path / "runs").exists()


def test_null_tanks_are_refused_by_the_plant_annotation(tmp_path, capsys):
    """PlantConfig.tanks is a tuple[TankSpec, ...], so the JSON must give a list."""
    cfg = _write(tmp_path, {**BASE, "dataset": {**BASE["dataset"], "plant": {"tanks": None}}})
    assert _run(["simulate", "--config", cfg, "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: SpecError: config dataset.plant.tanks must be a list, got None"]
    assert not (tmp_path / "runs").exists()


def _leaf_paths(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict) and value:
            yield from _leaf_paths(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


def _nest(path: str, value):
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


_SCENARIO = {"kind": "sensor-offset", "target": "L_T1", "start": 10, "duration": 5}
_PLACES = ([(path, None, None) for path in _leaf_paths(cli.DEFAULTS)]
           + [("dataset.plant.tanks", {}, f.name) for f in dataclasses.fields(TankSpec)]
           + [("dataset.scenarios", _SCENARIO, f.name)
              for f in dataclasses.fields(AnomalyScenario)])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                  max_size=3),
    max_leaves=6)


def test_attack_kind_choices_come_from_the_attack_table():
    assert cli.SCHEMA["attack.kind"] == tuple(evaluation.ATTACKS)
    assert cli.SCHEMA["evaluation.attacks"] == [tuple(
        kind for kind, attack in evaluation.ATTACKS.items() if attack.series)]
    assert cli.DEFAULTS["evaluation"]["attacks"] == list(evaluation.SERIES_ATTACKS)


@pytest.mark.parametrize("value", ["no", 0, 1, None, [True]])
def test_measure_time_must_be_a_json_boolean(tmp_path, capsys, value):
    cfg = _write(tmp_path, {**BASE, "evaluation": {"measure_time": value}})
    code = _run(["sweep", "--config", cfg, "--out", str(tmp_path / "runs")])
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert code == 2
    assert err_lines == ["error: SpecError: config evaluation.measure_time must be a JSON "
                         f"boolean, got {value!r}"]
    assert not (tmp_path / "runs").exists()


@settings(max_examples=300, deadline=None)
@given(place=st.sampled_from(_PLACES), value=_JSON)
def test_any_json_at_any_config_leaf_loads_or_fails_cleanly(tmp_path_factory, place, value):
    """Each leaf of DEFAULTS, and each field of a tank or scenario item, set
    to an arbitrary JSON value: load_config gives a config or a SpecError
    or DataError, never another exception."""
    path, item, field = place
    if field is not None:
        value = [{**item, field: value}]
    cfg = tmp_path_factory.getbasetemp() / "leaf.json"
    cfg.write_text(json.dumps(_nest(path, value)))
    try:
        cli.load_config(str(cfg))
    except (SpecError, DataError):
        pass


@pytest.mark.parametrize("scenario,message", [
    ({"kind": "force-actuator-on", "target": "PU9", "start": 10, "duration": 5},
     "unknown actuator 'PU9'"),
    ({"kind": "force-actuator-on", "target": "PU1", "start": 390, "duration": 50},
     "ends at 440, horizon is 400 steps"),
], ids=["unknown-target", "past-horizon"])
def test_scenario_outside_the_plant_fails_before_any_run_dir(tmp_path, capsys, scenario,
                                                              message):
    cfg = _write(tmp_path, {**BASE, "dataset": {**BASE["dataset"], "scenarios": [scenario]}})
    code = _run(["simulate", "--config", cfg, "--out", str(tmp_path / "runs")])
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert code == 2
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: SpecError:")
    assert message in err_lines[0]
    assert not (tmp_path / "runs").exists()


def test_bad_label_in_csv_source_fails_cleanly(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    assert _run(["simulate", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    d = _only_run_dir(tmp_path / "runs")
    lines = (d / "attacked.csv").read_text().splitlines(keepends=True)
    lines[5] = lines[5].rsplit(",", 1)[0] + ",x\n"
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    capsys.readouterr()
    cfg2 = _write(tmp_path, {**BASE, "dataset": {
        "source": "csv", "train_csv": str(d / "normal.csv"), "test_csv": str(bad),
        "schema": str(d / "schema.json")}}, "cfg2.json")
    code = _run(["evaluate", "--config", cfg2, "--out", str(tmp_path / "runs")])
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert code == 2
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: DataError:")
    assert f"{bad}:6:" in err_lines[0]


def test_fresh_runs_write_byte_identical_series_copies(tmp_path):
    cfg = _write(tmp_path, BASE)
    copies = []
    for out in ("a", "b"):
        assert _run(["attack", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        d = _only_run_dir(tmp_path / out)
        copies.append({name: (d / f"{name}.csv.npz").read_bytes()
                       for name in ("normal", "attacked", "concealed")})
    assert copies[0] == copies[1]


def test_warm_run_keeps_the_sampling_interval(tmp_path):
    cfg_dict = {**BASE, "dataset": {**BASE["dataset"], "plant": {"interval_s": 60}},
                "realtime": {"steps": 30}}
    cfg = _write(tmp_path, cfg_dict)
    out = str(tmp_path / "runs")
    intervals = []
    for run in ("cold", "warm", "parsed"):
        if run == "parsed":
            for copy in _only_run_dir(tmp_path / "runs").glob("*.csv.npz"):
                copy.unlink()
        assert _run(["realtime", "--config", cfg, "--out", out]) == 0
        rep = json.loads((_only_run_dir(tmp_path / "runs") / "realtime_report.json").read_text())
        intervals.append(rep["interval_s"])
    assert intervals == [60.0, 60.0, 60.0]


def test_csv_source_round_trips_through_pipeline(tmp_path):
    # first generate a dataset, then feed it back through the csv path
    cfg = _write(tmp_path, BASE)
    out = str(tmp_path / "runs")
    _run(["simulate", "--config", cfg, "--out", out])
    d = _only_run_dir(tmp_path / "runs")
    csv_cfg = dict(BASE)
    csv_cfg["dataset"] = {"source": "csv",
                          "train_csv": str(d / "normal.csv"),
                          "test_csv": str(d / "attacked.csv"),
                          "schema": str(d / "schema.json")}
    cfg2 = _write(tmp_path, csv_cfg, "cfg2.json")
    assert _run(["evaluate", "--config", cfg2, "--out", out]) == 0


def test_realtime_matches_offline_labels(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = str(tmp_path / "runs")
    assert _run(["evaluate", "--config", cfg, "--out", out]) == 0
    assert _run(["realtime", "--config", cfg, "--out", out]) == 0
    d = _only_run_dir(tmp_path / "runs")
    with open(d / "trace.csv") as fh:
        offline = list(csv.DictReader(fh))
    with open(d / "realtime_trace.csv") as fh:
        online = list(csv.DictReader(fh))
    assert len(offline) == len(online)
    for a, b in zip(offline, online):
        assert a["label"] == b["label"]
        assert float(a["epsilon"]) == pytest.approx(float(b["epsilon"]), rel=1e-9)
    rep = json.loads((d / "realtime_report.json").read_text())
    assert rep["deadline_misses"] == 0
    assert rep["latency_mean_s"] < rep["interval_s"]
    assert (rep["latency_p50_s"] <= rep["latency_p95_s"] <= rep["latency_p99_s"]
            <= rep["latency_max_s"])
    assert rep["deadline_miss_rate"] == rep["deadline_misses"] / rep["steps"]
    with open(d / "realtime_latency.csv", newline="") as fh:
        latency = list(csv.DictReader(fh))
    assert [int(r["t"]) for r in latency] == list(range(rep["steps"]))
    seconds = np.array([float(r["seconds"]) for r in latency])
    assert rep["latency_max_s"] == pytest.approx(seconds.max(), abs=1e-9)
    assert sum(int(r["deadline_miss"]) for r in latency) == rep["deadline_misses"]


def test_realtime_trace_bytes_equal_csv_writer(tmp_path):
    cfg = _write(tmp_path, {**BASE, "attack": {"kind": "identity"}, "realtime": {"steps": 60}})
    assert _run(["realtime", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    d = _only_run_dir(tmp_path / "runs")
    det = model_io.load_detector(d / "detector.model")
    attacked = load_csv(d / "attacked.csv")
    stream = DetectorStream(det)
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["timestamp", "epsilon", "epsilon_smoothed", "label"])
    for t in range(60):
        eps, smoothed, label = stream.push(attacked.values[t])
        w.writerow([attacked.timestamps[t], "%.17g" % eps, "%.17g" % smoothed, label])
    assert (d / "realtime_trace.csv").read_bytes() == buf.getvalue().encode("utf-8")


def test_realtime_iterative_stays_causal(tmp_path):
    cfg_dict = dict(BASE)
    cfg_dict["attack"] = {"kind": "iterative",
                          "budget": {"patience": 5, "budget": 40, "grid": 20}}
    cfg_dict["realtime"] = {"steps": 250}
    cfg = _write(tmp_path, cfg_dict)
    out = str(tmp_path / "runs")
    assert _run(["evaluate", "--config", cfg, "--out", out]) == 0
    assert _run(["realtime", "--config", cfg, "--out", out]) == 0
    d = _only_run_dir(tmp_path / "runs")
    with open(d / "trace.csv") as fh:
        offline = list(csv.DictReader(fh))
    with open(d / "realtime_trace.csv") as fh:
        online = list(csv.DictReader(fh))
    for a, b in zip(offline, online[:250]):
        assert a["label"] == b["label"]


def test_realtime_iterative_lstm_hands_the_stream_context_to_the_oracle(tmp_path):
    """The LSTM stream's ring state as the oracle's context conceals as
    set_context on the reported rows does: the same labels, and eps within
    the rounding of the ring's batched cell steps."""
    budget = {"patience": 4, "budget": 20, "grid": 12}
    cfg = _write(tmp_path, {**BASE, "detector": {"kind": "lstm", "window_w": 3,
                                                 "train": {"max_epochs": 5}},
                            "attack": {"kind": "iterative", "budget": budget},
                            "realtime": {"steps": 260}})
    assert _run(["realtime", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    d = _only_run_dir(tmp_path / "runs")
    det = model_io.load_detector(d / "detector.model")
    assert det.history == 7
    attacked = load_csv(d / "attacked.csv")
    schema = SensorSchema.load(d / "schema.json")
    assert attacked.labels[:260].sum() > 0
    oracle = DetectorOracle(det)
    stream = DetectorStream(det)
    reported = attacked.values.copy()
    want = []
    for t in range(260):
        if attacked.labels[t] == 1:
            oracle.set_context(padded_history(reported, t, det.history))
            reported[t] = iterative_conceal(oracle, reported[t], unconstrained(len(schema)),
                                            IterativeBudget(**budget), schema).x_prime
        want.append(stream.push(reported[t]))
    assert (reported != attacked.values).any()
    with open(d / "realtime_trace.csv") as fh:
        got = list(csv.DictReader(fh))
    assert [int(r["label"]) for r in got] == [label for _, _, label in want]
    np.testing.assert_allclose([float(r["epsilon"]) for r in got],
                               [eps for eps, _, _ in want], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("command,section,value,message", [
    ("realtime", "attack", {"offset": 0},
     "config attack.offset must be a JSON integer >= 1, got 0"),
    ("realtime", "attack", {"offset": -5},
     "config attack.offset must be a JSON integer >= 1, got -5"),
    ("realtime", "attack", {"offset": -2000},
     "config attack.offset must be a JSON integer >= 1, got -2000"),
    ("sweep", "attack", {"offset": 0}, "config attack.offset must be a JSON integer >= 1, got 0"),
    ("evaluate", "attack", {"offset": 0},
     "config attack.offset must be a JSON integer >= 1, got 0"),
    ("attack", "attack", {"offset": 0}, "config attack.offset must be a JSON integer >= 1, got 0"),
    ("train-detector", "detector", {"train": {"lr": 0}},
     "config detector.train: bad learning-rate schedule"),
    ("attack", "attack", {"kind": "iterative", "budget": {"grid": 1}},
     "config attack.budget: mutation grid needs >= 2 values"),
    ("attack", "attack", {"kind": "learning", "generator_train": {"val_ratio": 1.0}},
     "config attack.generator_train: val_ratio must be in (0, 1)"),
    ("attack", "attack", {"mode": "partial", "write": [99]},
     "channel index out of range for 17 channels"),
    ("attack", "attack", {"mode": "partial", "write": ["NOPE"]}, "unknown channel 'NOPE'"),
    ("attack", "attack", {"fraction": 0.0},
     "config attack.fraction must be a finite JSON number in (0, 1], got 0.0"),
    ("sweep", "evaluation", {"k_values": [99]}, "k=99 outside 1..17"),
    ("sweep", "evaluation", {"selection": "topology", "k_values": [9]},
     "no channels owned by PLC 9"),
    ("sweep", "evaluation", {"fractions": [1.5]},
     "config evaluation.fractions[0] must be a finite JSON number in (0, 1], got 1.5"),
    ("sweep", "evaluation", {"repetitions": 0},
     "config evaluation.repetitions must be a JSON integer >= 1, got 0"),
    ("sweep", "evaluation", {"fraction_repetitions": 0},
     "config evaluation.fraction_repetitions must be a JSON integer >= 1, got 0"),
    # a float leaf holding a JSON integer that no float can hold, or no finite number
    ("attack", "attack", {"fraction": 10 ** 400},
     "config attack.fraction must be a finite JSON number in (0, 1], got 1000"),
    ("realtime", "realtime", {"interval_s": 10 ** 400},
     "config realtime.interval_s must be a finite JSON number > 0 or null, got 1000"),
    ("train-detector", "detector", {"train": {"lr": -10 ** 400}},
     "config detector.train.lr must be a finite JSON number, got -1000"),
    ("simulate", "dataset", {"plant": {"interval_s": float("inf")}},
     "config dataset.plant.interval_s must be a finite JSON number, got inf"),
    ("realtime", "realtime", {"interval_s": float("inf")},
     "config realtime.interval_s must be a finite JSON number > 0 or null, got inf"),
    ("train-detector", "detector", {"train": {"lr": float("nan")}},
     "config detector.train.lr must be a finite JSON number, got nan"),
    ("realtime", "realtime", {"steps": -5},
     "config realtime.steps must be a JSON integer >= 1 or null, got -5"),
    ("realtime", "realtime", {"steps": 0},
     "config realtime.steps must be a JSON integer >= 1 or null, got 0"),
    ("realtime", "realtime", {"interval_s": 0},
     "config realtime.interval_s must be a finite JSON number > 0 or null, got 0"),
    ("realtime", "realtime", {"interval_s": -1.0},
     "config realtime.interval_s must be a finite JSON number > 0 or null, got -1.0"),
    ("simulate", "dataset", {"steps": 0},
     "config dataset.steps must be a JSON integer >= 1, got 0"),
    ("simulate", "dataset", {"steps": -3},
     "config dataset.steps must be a JSON integer >= 1, got -3"),
    ("simulate", "dataset", {"attack_steps": 0},
     "config dataset.attack_steps must be a JSON integer >= 1, got 0"),
    ("train-detector", "detector", {"window_w": 0},
     "config detector.window_w must be a JSON integer >= 1, got 0"),
    ("train-detector", "detector", {"window_w": -2},
     "config detector.window_w must be a JSON integer >= 1, got -2"),
    ("simulate", "seed", -1, "config seed must be a JSON integer >= 0, got -1"),
    ("train-detector", "detector", {"train": {"seed": -4}},
     "config detector.train: seed must be >= 0, got -4"),
    ("attack", "attack", {"generator_train": {"seed": -4}},
     "config attack.generator_train: seed must be >= 0, got -4"),
    ("simulate", "dataset", {"plant": {"seed": -2}},
     "config dataset.plant: plant seed must be >= 0, got -2"),
    ("simulate", "dataset", {"scenarios": [{"kind": "force-actuator-on", "target": "PU1",
                                            "start": 10, "duration": 0}]},
     "config dataset.scenarios: scenario duration must be >= 1"),
], ids=["offset-0", "offset-future", "offset-far", "sweep-offset", "evaluate-offset",
        "attack-offset", "train-lr", "budget-grid",
        "generator-val-ratio", "write-index", "write-name", "attack-fraction", "sweep-k",
        "sweep-plc", "sweep-fraction", "repetitions", "fraction-repetitions",
        "attack-fraction-overflow", "interval-overflow", "train-lr-overflow",
        "plant-interval-infinite", "interval-infinite", "train-lr-nan",
        "realtime-steps-negative", "realtime-steps-0", "interval-0", "interval-negative",
        "dataset-steps-0", "dataset-steps-negative", "attack-steps-0", "window-0",
        "window-negative", "seed-negative", "train-seed-negative", "generator-seed-negative",
        "plant-seed-negative", "scenario-duration-0"])
def test_range_errors_fail_before_any_run_dir(tmp_path, capsys, command, section, value,
                                              message):
    setting = {**BASE.get(section, {}), **value} if isinstance(value, dict) else value
    cfg = _write(tmp_path, {**BASE, section: setting})
    code = _run([command, "--config", cfg, "--out", str(tmp_path / "runs")])
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert code == 2
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: SpecError: ")
    assert message in err_lines[0]
    assert not (tmp_path / "runs").exists()


def test_negative_seed_flag_fails_before_any_run_dir(tmp_path, capsys):
    code = _run(["simulate", "--config", _write(tmp_path, BASE), "--seed", "-1",
                 "--out", str(tmp_path / "runs")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: SpecError: config seed must be a JSON integer >= 0, got -1"]
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command,cfg,message", [
    ("simulate", {"dataset": {"steps": 1, "attack_steps": 400}},
     "config dataset.steps must be at least 2 for two 1-row dense windows, got 1"),
    ("train-detector", {"dataset": {"steps": 8, "attack_steps": 400},
                        "detector": {"kind": "lstm"}},
     "config dataset.steps must be at least 9 for two 8-row lstm windows, got 8"),
    ("realtime", {"attack": {"kind": "learning", "fraction": 1e-9}},
     "config attack.fraction must be large enough to eavesdrop 2 of the 500 normal rows, "
     "got 1e-09"),
    ("sweep", {"evaluation": {"fractions": [0.5, 1e-9]}},
     "config evaluation.fractions[1] must be large enough to eavesdrop 2 of the 500 normal "
     "rows, got 1e-09"),
    ("attack", {"attack": {"kind": "replay", "offset": 100000}},
     "config attack.offset must be at most 200, the first attacked step, got 100000"),
    # a sweep replays with attack.offset whatever attack.kind is
    ("sweep", {"attack": {"kind": "identity", "offset": 100000},
               "evaluation": {"attacks": ["replay"]}},
     "config attack.offset must be at most 200, the first attacked step, got 100000"),
    # the per-leaf and scenario checks come first
    ("simulate", {"dataset": {"steps": 1, "attack_steps": 0}},
     "config dataset.attack_steps must be a JSON integer >= 1, got 0"),
    ("simulate", {"dataset": {"steps": 1, "attack_steps": 400, "scenarios": [
        {"kind": "force-actuator-on", "target": "PU9", "start": 10, "duration": 5}]}},
     "unknown actuator 'PU9'"),
], ids=["steps-1", "lstm-steps-8", "attack-fraction", "sweep-fraction", "attack-offset",
        "sweep-offset", "leaf-first", "scenario-first"])
def test_cross_field_rules_fail_before_any_run_dir(tmp_path, capsys, command, cfg, message):
    cfg = _write(tmp_path, {**BASE, **cfg})
    code = _run([command, "--config", cfg, "--out", str(tmp_path / "runs")])
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert code == 2
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: SpecError: ")
    assert err_lines[0].endswith(message)
    assert not (tmp_path / "runs").exists()


def test_realtime_replay_before_the_stream_start_fails_before_training(tmp_path, capsys):
    cfg = _write(tmp_path, {**BASE, "attack": {"kind": "replay", "offset": 300}})
    code = _run(["realtime", "--config", cfg, "--out", str(tmp_path / "runs")])
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert code == 2
    assert err_lines == ["error: SpecError: config attack.offset must be at most 200, the "
                         "first attacked step, got 300"]
    assert not (tmp_path / "runs").exists()


def test_csv_realtime_replay_before_the_first_attacked_row_fails_before_training(tmp_path,
                                                                                capsys):
    """A "csv" source's attacked rows are known once its files are read, and
    realtime replays them before it trains the detector."""
    out = tmp_path / "runs"
    assert _run(["simulate", "--config", _write(tmp_path, BASE), "--out", str(out)]) == 0
    d = _only_run_dir(out)
    csv_cfg = {**BASE, "dataset": {"source": "csv", "train_csv": str(d / "normal.csv"),
                                   "test_csv": str(d / "attacked.csv"),
                                   "schema": str(d / "schema.json")},
               "attack": {"kind": "replay", "offset": 300}}
    capsys.readouterr()
    code = _run(["realtime", "--config", _write(tmp_path, csv_cfg, "csv.json"),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: SpecError: offset 300 reaches before the recording starts "
        "(first attacked step is 200)"]
    assert list(out.rglob("detector.model")) == []


def test_sweep_writes_expected_columns(tmp_path):
    cfg_dict = dict(BASE)
    cfg_dict["dataset"] = {"steps": 400, "attack_steps": 300}
    cfg_dict["attack"] = {"kind": "replay", "offset": 60,
                          "generator_train": {"max_epochs": 10},
                          "budget": {"patience": 4, "budget": 30, "grid": 10}}
    cfg_dict["evaluation"] = {"k_values": [14, 4], "attacks": ["replay"]}
    cfg = _write(tmp_path, cfg_dict)
    out = str(tmp_path / "runs")
    assert _run(["sweep", "--config", cfg, "--out", out]) == 0
    d = _only_run_dir(tmp_path / "runs")
    with open(d / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["attack", "k", "repetition", "recall", "mean_time_s", "std_time_s"]
    assert len(rows) == 3
    ks = {r[1] for r in rows[1:]}
    assert ks == {"14", "4"}


def test_topology_sweep_defaults_to_every_plc(tmp_path):
    cfg_dict = {**BASE, "dataset": {"steps": 400, "attack_steps": 300},
                "attack": {"kind": "replay", "offset": 60,
                           "generator_train": {"max_epochs": 3}},
                "evaluation": {"selection": "topology", "attacks": ["replay", "learning"]}}
    cfg = _write(tmp_path, cfg_dict)
    assert _run(["sweep", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    d = _only_run_dir(tmp_path / "runs")
    with open(d / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    owned = [len(SensorSchema.load(d / "schema.json").plc_indices(plc)) for plc in (1, 2)]
    assert [(r["attack"], int(r["k"])) for r in rows] == [
        (attack, k) for attack in ("replay", "learning") for k in owned]


def test_measure_time_fills_timing_and_keeps_recall(tmp_path):
    cfg_dict = dict(BASE)
    cfg_dict["dataset"] = {"steps": 400, "attack_steps": 300}
    cfg_dict["attack"] = {"kind": "replay", "offset": 60,
                          "generator_train": {"max_epochs": 3},
                          "budget": {"patience": 4, "budget": 30, "grid": 10}}
    rows = {}
    for timed in (False, True):
        cfg_dict["evaluation"] = {"k_values": [4], "measure_time": timed}
        out = tmp_path / f"runs-{timed}"
        cfg = _write(tmp_path, cfg_dict, f"cfg-{timed}.json")
        assert _run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(_only_run_dir(out) / "sweep.csv", newline="") as fh:
            rows[timed] = list(csv.DictReader(fh))
    assert [r["attack"] for r in rows[True]] == ["replay", "iterative", "learning"]
    assert [r["recall"] for r in rows[True]] == [r["recall"] for r in rows[False]]
    for row in rows[True]:
        assert float(row["mean_time_s"]) >= 0.0 and float(row["std_time_s"]) >= 0.0
    for row in rows[False]:
        assert row["mean_time_s"] == row["std_time_s"] == ""


def _no_training(*args, **kwargs):
    raise AssertionError("a warm run trained a network")


def test_warnings_print_one_line_each(tmp_path, capsys, monkeypatch):
    """A learning attack on too few eavesdropped rows warns, exits 0 and
    shows no program text: each stderr line is one warning."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    cfg = _write(tmp_path, {**BASE, "dataset": {"steps": 600, "attack_steps": 400},
                            "attack": {"kind": "learning", "fraction": 0.25,
                                       "generator_train": {"max_epochs": 2}}})
    assert _run(["attack", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines
    assert all(line.startswith("warning: UserWarning: ") for line in err_lines), err_lines
    assert any("eavesdropped rows" in line for line in err_lines)


def test_warm_sweep_loads_its_generators(tmp_path, monkeypatch):
    cfg_dict = dict(BASE)
    cfg_dict["dataset"] = {"steps": 400, "attack_steps": 300}
    cfg_dict["attack"] = {"kind": "replay", "offset": 60,
                          "generator_train": {"max_epochs": 3},
                          "budget": {"patience": 4, "budget": 30, "grid": 10}}
    cfg_dict["evaluation"] = {"k_values": [14, 4], "fractions": [0.5, 1.0],
                              "fraction_repetitions": 2}
    cfg = _write(tmp_path, cfg_dict)
    out = str(tmp_path / "runs")
    assert _run(["sweep", "--config", cfg, "--out", out]) == 0
    d = _only_run_dir(tmp_path / "runs")
    cold = {name: (d / name).read_bytes() for name in ("sweep.csv", "fractions.csv")}
    # the sweep's k cells share one generator with the full-data fraction at
    # repetition 0: (all channels, 1.0, seed 3, prefix); the other three
    # fraction cells have their own
    assert len(list(d.glob("generator-*.model"))) == 4

    monkeypatch.setattr(evaluation, "train_generator", _no_training)
    monkeypatch.setattr(learning, "train", _no_training)
    monkeypatch.setattr(cli, "build_detector", _no_training)
    # without its record the sweep runs its cells again, on the models on disk
    (d / "stages" / "sweep").unlink()
    assert _run(["sweep", "--config", cfg, "--out", out]) == 0
    assert (d / "stages" / "sweep").is_file()
    for name, blob in cold.items():
        assert (d / name).read_bytes() == blob, f"warm {name} differs"


def test_interrupted_model_write_leaves_nothing_behind(tmp_path, monkeypatch):
    cfg_dict = dict(BASE)
    cfg_dict["attack"] = {"kind": "learning", "generator_train": {"max_epochs": 2}}
    cfg = _write(tmp_path, cfg_dict)
    out = str(tmp_path / "runs")
    assert _run(["train-detector", "--config", cfg, "--out", out]) == 0
    d = _only_run_dir(tmp_path / "runs")

    pack = model_io._pack_params
    written = []

    def torn(params, normalizer):
        """The parameters are written, then an array that cannot be."""
        arrays = pack(params, normalizer)
        written.append(sum(a.nbytes for a in arrays.values()))
        return {**arrays, "__torn": np.array(["not a float"])}

    monkeypatch.setattr(model_io, "_pack_params", torn)
    with pytest.raises(ValueError):
        _run(["attack", "--config", cfg, "--out", out])
    monkeypatch.undo()
    assert written, "the generator write never started"
    assert not list(d.glob("generator-*"))
    assert not [p.name for p in d.iterdir() if p.name.startswith(".")]
    assert not (d / "concealed.csv").exists()

    assert _run(["attack", "--config", cfg, "--out", out]) == 0
    models = list(d.glob("generator-*.model"))
    assert len(models) == 1
    model_io.load_generator(models[0])
    assert (d / "concealed.csv").exists()


def test_run_hash_covers_package_and_model_format(monkeypatch):
    cfg = cli.load_config(None)
    base = cli.run_id(cfg)
    assert cli.run_id(copy.deepcopy(cfg)) == base
    monkeypatch.setattr(cli, "__version__", concealab.__version__ + ".dev")
    assert cli.run_id(cfg) != base
    monkeypatch.undo()
    monkeypatch.setattr(model_io, "VERSION", model_io.VERSION + 1)
    assert cli.run_id(cfg) != base


def _declared_scripts():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _run_console_script(entry_point, *args):
    """Run `entry_point` from the checkout as pip's console-script wrapper does."""
    wrapper = (f"import sys; from {entry_point.module} import {entry_point.attr}; "
               f"sys.exit({entry_point.attr}())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", wrapper, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_entry_point_installed(tmp_path):
    """The declared `concealab` script resolves to cli.main and works as a command."""
    scripts = _declared_scripts()
    assert scripts == {"concealab": "concealab.cli:main"}
    ep = importlib.metadata.EntryPoint("concealab", scripts["concealab"], "console_scripts")
    assert ep.load() is cli.main

    shown = _run_console_script(ep, "--help")
    assert shown.returncode == 0, shown.stderr
    assert shown.stdout.startswith("usage: concealab")
    for name in cli.COMMANDS:
        assert name in shown.stdout

    failed = _run_console_script(ep, "simulate", "--config", str(tmp_path / "missing.json"),
                                 "--out", str(tmp_path / "runs"))
    assert failed.returncode == 2
    err_lines = [l for l in failed.stderr.splitlines() if l.strip()]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error:")
    assert "Traceback" not in failed.stderr


def _installed_distribution():
    """The pip-installed concealab distribution, or None.

    A build leaves a bare `concealab.egg-info` without an INSTALLER record;
    that is metadata, not an installed command, so it does not count.
    """
    try:
        dist = importlib.metadata.distribution("concealab")
    except importlib.metadata.PackageNotFoundError:
        return None
    return dist if dist.read_text("INSTALLER") else None


@pytest.mark.skipif(_installed_distribution() is None,
                    reason="concealab is not installed: no distribution with an "
                           "INSTALLER record (pip install -e . puts the script on PATH)")
def test_cli_console_script_on_path():
    script = shutil.which("concealab")
    assert script is not None
    installed = _installed_distribution().entry_points.select(group="console_scripts")
    assert {ep.name: ep.value for ep in installed} == _declared_scripts()
    shown = subprocess.run([script, "--help"], capture_output=True, text=True, timeout=120)
    assert shown.returncode == 0, shown.stderr
