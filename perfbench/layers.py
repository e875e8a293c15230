"""What the traced run wraps, and the per-layer metrics it derives.

Layers are the package's modules. Each wrapped function is patched at every
name its callers look it up through: the defining module or package for
calls made by this benchmark, and the importing module for calls the
program makes itself (cli, evaluation, detector, ...).

A per-layer metric of a layer the workload does not run reads 0 and is
listed as unused; one whose wrap targets are all gone is listed as
unmeasured.
"""
from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from stats import self_times

NET_KINDS = ("dense", "lstm", "conv", "generator")
LAYERS = ("simulator", "dataset", "schema", "nn", "detector", "attacks.replay",
          "attacks.iterative", "attacks.learning", "evaluation", "model_io", "cli")
CLI_COMMANDS = ("simulate", "sweep", "evaluate")


def _kind(tracer, args, kwargs):
    return {"kind": tracer.ancestor_attr("kind")}


def _train_kind(tracer, args, kwargs):
    return {"kind": tracer.ancestor_attr("kind") or args[0].kind}


def _epochs(tracer, args, kwargs, result, attrs):
    attrs["epochs"] = int(result[1].epochs_run)
    return attrs


def _batch_rows(tracer, args, kwargs):
    return {"rows": int(len(args[1]))}


def _rows_result(tracer, args, kwargs, result, attrs):
    attrs["rows"] = len(result)
    return attrs


def _file_bytes(tracer, args, kwargs, result, attrs):
    attrs["bytes"] = os.path.getsize(args[1])
    return attrs


def _cells(tracer, args, kwargs, result, attrs):
    attrs["cells"] = len(result)
    return attrs


def _iterative(tracer, args, kwargs, result, attrs):
    attrs["iterations"] = int(result.iterations)
    attrs["solved"] = bool(result.solved)
    return attrs


def _generator(tracer, args, kwargs):
    return {"kind": "generator"}


# (layer, span name, wrap targets, before hook, after hook)
PLAN = [
    ("simulator", "simulator.simulate_normal",
     ["concealab.simulator:simulate_normal", "concealab.cli:simulate_normal"], None, _rows_result),
    ("simulator", "simulator.inject_anomaly",
     ["concealab.simulator:inject_anomaly", "concealab.cli:inject_anomaly"], None, _rows_result),
    ("simulator", "simulator.sim_schema",
     ["concealab.simulator:sim_schema", "concealab.cli:sim_schema"], None, None),
    ("schema", "schema.with_ranges_from",
     ["concealab.schema:SensorSchema.with_ranges_from"], None, None),
    ("schema", "schema.save", ["concealab.schema:SensorSchema.save"], None, None),
    ("schema", "schema.load", ["concealab.schema:SensorSchema.load"], None, None),
    ("dataset", "dataset.save_csv", ["concealab.cli:save_csv"], None, _file_bytes),
    ("dataset", "dataset.load_csv", ["concealab.cli:load_csv"], None, None),
    ("nn", "nn.train", ["concealab.detector:train", "concealab.attacks.learning:train"],
     _train_kind, _epochs),
    ("nn", "nn.loss_and_grads", ["concealab.nn.training:loss_and_grads"], _kind, None),
    ("nn", "nn.adam_step", ["concealab.nn.params:Adam.step"], _kind, None),
    ("nn", "nn.predict", ["concealab.nn.training:predict", "concealab.detector:predict",
                          "concealab.attacks.learning:predict"], None, None),
    ("detector", "detector.build_detector",
     ["concealab.detector:build_detector", "concealab.cli:build_detector"], None, None),
    ("detector", "detector.reconstruction_error",
     ["concealab.detector:reconstruction_error",
      "concealab.attacks.iterative:reconstruction_error"], _batch_rows, None),
    ("detector", "detector.detect_series",
     ["concealab.detector:detect_series", "concealab.cli:detect_series",
      "concealab.evaluation:detect_series"], None, None),
    ("detector", "detector.stream.push", ["concealab.detector:DetectorStream.push"], None, None),
    ("attacks.replay", "attacks.replay.replay_attack",
     ["concealab.cli:replay_attack", "concealab.evaluation:replay_attack"], None, None),
    ("attacks.iterative", "attacks.iterative.query_batch",
     ["concealab.attacks.iterative:DetectorOracle.query_batch"], _batch_rows, None),
    ("attacks.iterative", "attacks.iterative.iterative_conceal",
     ["concealab.attacks:iterative_conceal", "concealab.attacks.iterative:iterative_conceal",
      "concealab.cli:iterative_conceal"], None, _iterative),
    ("attacks.iterative", "attacks.iterative.conceal_series_iterative",
     ["concealab.cli:conceal_series_iterative",
      "concealab.evaluation:conceal_series_iterative"], None, None),
    ("attacks.learning", "attacks.learning.train_generator",
     ["concealab.attacks:train_generator", "concealab.cli:train_generator",
      "concealab.evaluation:train_generator"], _generator, None),
    ("attacks.learning", "attacks.learning.conceal_learning",
     ["concealab.attacks:conceal_learning", "concealab.attacks.learning:conceal_learning",
      "concealab.cli:conceal_learning"], None, None),
    ("attacks.learning", "attacks.learning.conceal_series_learning",
     ["concealab.cli:conceal_series_learning",
      "concealab.evaluation:conceal_series_learning"], None, None),
    ("evaluation", "evaluation.sweep_constraints",
     ["concealab.cli:sweep_constraints"], None, _cells),
    ("evaluation", "evaluation.evaluate", ["concealab.cli:evaluate"], None, None),
    ("evaluation", "evaluation.attack_recall", ["concealab.evaluation:attack_recall"], None, None),
    ("model_io", "model_io.save", ["concealab.model_io:save_detector",
                                   "concealab.model_io:save_generator"], None, _file_bytes),
    ("model_io", "model_io.load", ["concealab.model_io:load_detector",
                                   "concealab.model_io:load_generator"], None, None),
] + [("cli", f"cli.{c}", [f"concealab.cli:COMMANDS.{c}"], None, None) for c in CLI_COMMANDS]

LAYER_OF = {name: layer for layer, name, _, _, _ in PLAN}


def install(tracer) -> None:
    for _, name, targets, before, after in PLAN:
        for target in targets:
            tracer.patch(target, name, before, after)


# metric name -> (unit, better, span names it is read from)
PER_LAYER: dict[str, tuple[str, str, tuple[str, ...]]] = {}
for _k in NET_KINDS:
    PER_LAYER[f"nn.{_k}.fwd_bwd_us"] = ("us", "lower", ("nn.loss_and_grads",))
    PER_LAYER[f"nn.{_k}.adam_us"] = ("us", "lower", ("nn.adam_step",))
    PER_LAYER[f"nn.{_k}.epochs"] = ("count", "lower", ("nn.train",))
    PER_LAYER[f"nn.{_k}.steps"] = ("count", "lower", ("nn.loss_and_grads",))
PER_LAYER.update({
    "nn.train.self_s": ("s", "lower", ("nn.train",)),
    "detector.reconstruction_error_us": ("us", "lower", ("detector.reconstruction_error",)),
    "detector.rows_scored": ("count", "lower", ("detector.reconstruction_error",)),
    "detector.stream.push_us": ("us", "lower", ("detector.stream.push",)),
    "detector.detect_series_s": ("s", "lower", ("detector.detect_series",)),
    "attacks.iterative.query_batch_us": ("us", "lower", ("attacks.iterative.query_batch",)),
    "attacks.iterative.queries": ("count", "lower", ("attacks.iterative.query_batch",)),
    "attacks.iterative.queries_per_step": ("count", "lower",
                                           ("attacks.iterative.query_batch",
                                            "attacks.iterative.iterative_conceal")),
    "attacks.iterative.iterations": ("count", "lower", ("attacks.iterative.iterative_conceal",)),
    "attacks.iterative.solved_ratio": ("ratio", "higher", ("attacks.iterative.iterative_conceal",)),
    "attacks.learning.conceal_us": ("us", "lower", ("attacks.learning.conceal_learning",)),
    "attacks.learning.train_generator_s": ("s", "lower", ("attacks.learning.train_generator",)),
    "attacks.replay_s": ("s", "lower", ("attacks.replay.replay_attack",)),
    "evaluation.sweep_constraints_s": ("s", "lower", ("evaluation.sweep_constraints",)),
    "evaluation.cells": ("count", "higher", ("evaluation.sweep_constraints",)),
    "dataset.save_csv_s": ("s", "lower", ("dataset.save_csv",)),
    "dataset.load_csv_s": ("s", "lower", ("dataset.load_csv",)),
    "dataset.csv_bytes": ("B", "lower", ("dataset.save_csv",)),
    "model_io.save_s": ("s", "lower", ("model_io.save",)),
    "model_io.load_s": ("s", "lower", ("model_io.load",)),
    "model_io.bytes": ("B", "lower", ("model_io.save",)),
    "cli.sweep_s": ("s", "lower", ("cli.sweep",)),
    "cli.evaluate_s": ("s", "lower", ("cli.evaluate",)),
    "cli.artifacts_built": ("count", "lower", ()),
    "cli.artifacts_reused": ("count", "higher", ()),
    "simulator.rows_per_s": ("1/s", "higher", ("simulator.simulate_normal",
                                               "simulator.inject_anomaly")),
})
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower", tuple(n for n, l in LAYER_OF.items()
                                                         if l == _layer))
PER_LAYER["trace.overhead_pct"] = ("%", "lower", ())


def per_layer_metrics(tracer, counts: dict, overhead_pct: float):
    """-> (metrics {name: (value, unit)}, unused names, unmeasured names)."""
    spans = tracer.spans
    selfs = self_times([(s[1], s[2], s[3]) for s in spans])
    idx: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        idx[s[0]].append(i)

    def dur(name, kind=None):
        return [spans[i][2] - spans[i][1] for i in idx[name]
                if kind is None or (spans[i][4] or {}).get("kind") == kind]

    def attr_sum(name, key, kind=None):
        return sum((spans[i][4] or {}).get(key, 0) for i in idx[name]
                   if kind is None or (spans[i][4] or {}).get("kind") == kind)

    def med_us(values):
        return float(np.median(values)) * 1e6 if values else 0.0

    v: dict[str, float] = {}
    for k in NET_KINDS:
        v[f"nn.{k}.fwd_bwd_us"] = med_us(dur("nn.loss_and_grads", k))
        v[f"nn.{k}.adam_us"] = med_us(dur("nn.adam_step", k))
        v[f"nn.{k}.epochs"] = attr_sum("nn.train", "epochs", k)
        v[f"nn.{k}.steps"] = len(dur("nn.loss_and_grads", k))
    v["nn.train.self_s"] = sum(selfs[i] for i in idx["nn.train"])
    v["detector.reconstruction_error_us"] = med_us(dur("detector.reconstruction_error"))
    v["detector.rows_scored"] = attr_sum("detector.reconstruction_error", "rows")
    v["detector.stream.push_us"] = med_us(dur("detector.stream.push"))
    v["detector.detect_series_s"] = sum(dur("detector.detect_series"))
    steps = len(idx["attacks.iterative.iterative_conceal"])
    queries = attr_sum("attacks.iterative.query_batch", "rows")
    v["attacks.iterative.query_batch_us"] = med_us(dur("attacks.iterative.query_batch"))
    v["attacks.iterative.queries"] = queries
    v["attacks.iterative.queries_per_step"] = queries / steps if steps else 0.0
    v["attacks.iterative.iterations"] = attr_sum("attacks.iterative.iterative_conceal",
                                                 "iterations")
    v["attacks.iterative.solved_ratio"] = (
        attr_sum("attacks.iterative.iterative_conceal", "solved") / steps if steps else 0.0)
    v["attacks.learning.conceal_us"] = med_us(dur("attacks.learning.conceal_learning"))
    v["attacks.learning.train_generator_s"] = sum(dur("attacks.learning.train_generator"))
    v["attacks.replay_s"] = sum(dur("attacks.replay.replay_attack"))
    v["evaluation.sweep_constraints_s"] = sum(dur("evaluation.sweep_constraints"))
    v["evaluation.cells"] = attr_sum("evaluation.sweep_constraints", "cells")
    v["dataset.save_csv_s"] = sum(dur("dataset.save_csv"))
    v["dataset.load_csv_s"] = sum(dur("dataset.load_csv"))
    v["dataset.csv_bytes"] = attr_sum("dataset.save_csv", "bytes")
    v["model_io.save_s"] = sum(dur("model_io.save"))
    v["model_io.load_s"] = sum(dur("model_io.load"))
    v["model_io.bytes"] = attr_sum("model_io.save", "bytes")
    v["cli.sweep_s"] = sum(dur("cli.sweep"))
    v["cli.evaluate_s"] = sum(dur("cli.evaluate"))
    v["cli.artifacts_built"] = counts.get("cli.artifacts_built", 0)
    v["cli.artifacts_reused"] = counts.get("cli.artifacts_reused", 0)
    sim_names = ("simulator.simulate_normal", "simulator.inject_anomaly")
    sim_s = sum(sum(dur(n)) for n in sim_names)
    sim_rows = sum(attr_sum(n, "rows") for n in sim_names)
    v["simulator.rows_per_s"] = sim_rows / sim_s if sim_s > 0 else 0.0
    for layer in LAYERS:
        v[f"{layer}.self_s"] = sum(selfs[i] for i, s in enumerate(spans)
                                   if LAYER_OF.get(s[0]) == layer)
    v["trace.overhead_pct"] = overhead_pct

    installed = {s for s in LAYER_OF} - _all_missing(tracer)
    unmeasured = sorted(m for m, (_, _, names) in PER_LAYER.items()
                        if names and not any(n in installed for n in names))
    unused = sorted(m for m, (_, _, names) in PER_LAYER.items()
                    if names and m not in unmeasured and not any(idx[n] for n in names))
    metrics = {m: (float(v[m]), PER_LAYER[m][0]) for m in PER_LAYER}
    return metrics, unused, unmeasured


def _all_missing(tracer) -> set[str]:
    """Span names none of whose targets could be patched."""
    missing = set(tracer.missing)
    return {name for _, name, targets, _, _ in PLAN if all(t in missing for t in targets)}
