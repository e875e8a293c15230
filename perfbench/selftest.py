"""Fast checks of the benchmark's own arithmetic and bookkeeping.

Run with `python3 perfbench/selftest.py` (or `python3 -m pytest
perfbench/selftest.py`). The file name keeps it out of the package's test
suite, which collects only `tests/`.
"""
from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    assert not stats.supports(999, 99.0)
    assert stats.supports(1000, 99.0)
    assert stats.supports(100, 90.0) and not stats.supports(99, 90.0)
    try:
        stats.percentile(np.arange(999.0), 99.0)
    except ValueError:
        pass
    else:
        raise AssertionError("p99 of 999 samples must be refused")
    assert stats.percentile(np.arange(1001.0), 99.0) == 990.0
    assert stats.percentile(np.arange(3.0), 50.0) == 1.0


def _fifo_loop(service, interval):
    finish, out = 0.0, []
    for i, s in enumerate(service):
        due = i * interval
        finish = max(due, finish) + s
        out.append(finish - due)
    return np.asarray(out)


def test_fifo_replay_matches_a_loop():
    rng = np.random.default_rng(0)
    service = rng.exponential(1e-3, size=500) + np.where(rng.random(500) < 0.1, 5e-3, 0.0)
    for interval in (2e-4, 1e-3, 2e-3, 1e-2):
        np.testing.assert_allclose(stats.fifo_response(service, interval),
                                   _fifo_loop(service, interval), rtol=0, atol=1e-12)
    # no backlog: each request waits only for itself
    np.testing.assert_allclose(stats.fifo_response(np.full(10, 0.5), 1.0), 0.5)
    # overload: the backlog grows by (service - interval) per request
    np.testing.assert_allclose(stats.fifo_response(np.full(4, 2.0), 1.0), [2, 3, 4, 5])


def test_max_rate_is_the_boundary():
    assert abs(stats.max_rate_hz(np.full(2000, 1e-3)) - 1000.0) < 1e-6
    rng = np.random.default_rng(1)
    service = np.where(rng.random(3000) < 0.13, 4e-4, 6e-5)
    rate = stats.max_rate_hz(service)

    def meets(r):
        return np.percentile(_fifo_loop(service, 1.0 / r), 99) <= 1.0 / r

    assert meets(rate) and not meets(rate * 1.001)
    assert stats.max_rate_hz(np.full(2000, 2.0)) == 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0.0, 10.0, -1),   # root
        (1.0, 3.0, 0),     # child
        (2.0, 5.0, 0),     # overlapping child: the union [1, 5] counts once
        (2.5, 2.75, 1),    # grandchild: charged to its parent, not the root
        (9.0, 12.0, 0),    # child running past the root is clipped at 10
        (20.0, 21.0, -1),  # second root, no children
    ]
    np.testing.assert_allclose(stats.self_times(spans), [5.0, 1.75, 3.0, 0.25, 3.0, 1.0])


def test_quartile_spread():
    assert stats.quartile_spread([1.0] * 10) == 0.0
    assert abs(stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
               - (8.25 - 2.75) / 5.5) < 1e-12


def test_tracer_wraps_where_looked_up_and_restores():
    mod = types.ModuleType("perfbench_selftest_mod")

    def inner(x):
        return x + 1

    class Box:
        @classmethod
        def make(cls, x):
            return mod.inner(x)

    mod.inner, mod.Box, mod.TABLE = inner, Box, {"go": inner}
    sys.modules[mod.__name__] = mod
    try:
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        assert tracer.patch(f"{mod.__name__}:Box.make", "box.make",
                            before=lambda t, a, k: {"kind": "k1"})
        assert tracer.patch(f"{mod.__name__}:inner", "inner",
                            before=lambda t, a, k: {"kind": t.ancestor_attr("kind")},
                            after=lambda t, a, k, r, attrs: {**attrs, "out": r})
        assert tracer.patch(f"{mod.__name__}:TABLE.go", "table.go")
        assert not tracer.patch(f"{mod.__name__}:gone", "gone")
        assert Box.make(1) == 2 and mod.TABLE["go"](5) == 6
        names = [s[0] for s in tracer.spans]
        assert names == ["box.make", "inner", "table.go"]
        assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == {"kind": "k1", "out": 2}
        assert tracer.spans[2][3] == -1
        assert tracer.missing == [f"{mod.__name__}:gone"]
        tracer.unpatch()
        assert mod.inner is inner and mod.TABLE["go"] is inner
        assert isinstance(Box.__dict__["make"], classmethod) and Box.make(1) == 2
        assert len(tracer.spans) == 3
    finally:
        del sys.modules[mod.__name__]


def test_benchmark_json_matches_the_code():
    import layers
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in layers.PER_LAYER.items()}
    assert {w["name"] for w in spec["workloads"]} == {"train", "pipeline", "realtime"}


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
