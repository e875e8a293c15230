"""Black-box generator attack: training on eavesdropped data, morphing, and
schema-aware post-processing."""
import numpy as np
import pytest

from concealab.attacks import (conceal_learning, conceal_series_learning, full,
                               partial, train_generator, unconstrained)
from concealab.attacks.learning import _post_process
from concealab.dataset import TimeSeries
from concealab.errors import DataError, SpecError
from concealab.nn import TrainConfig
from concealab.schema import Channel, SensorSchema


def _normal(rows=400, n=5, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 30, rows)
    values = np.column_stack([np.sin(t + i) + 2.0 + rng.normal(scale=0.03, size=rows)
                              for i in range(n)])
    return TimeSeries([f"c{i}" for i in range(n)], values)


def _schema(n=5):
    return SensorSchema(tuple(Channel(f"c{i}", "continuous", 1) for i in range(n)))


def test_generator_is_overcomplete_in_the_read_width():
    normal = _normal(n=5)
    gen, hist = train_generator(normal, unconstrained(5),
                                TrainConfig(max_epochs=5, seed=0))
    # 5 read channels -> hidden widths 10, 20, 10
    assert gen.spec.hidden == (10, 20, 10)
    assert gen.spec.channels == 5
    assert gen.n_read == 5
    assert hist.epochs_run > 0


def test_generator_sees_only_read_channels():
    normal = _normal(n=5)
    c = full(5, [1, 3])
    gen, _ = train_generator(normal, c, TrainConfig(max_epochs=5, seed=0))
    assert gen.read == (1, 3)
    assert gen.spec.channels == 2
    assert gen.spec.hidden == (4, 8, 4)


def test_generator_rejects_attacked_training_rows():
    normal = _normal()
    bad = TimeSeries(normal.names, normal.values,
                     labels=np.r_[np.zeros(len(normal) - 1, dtype=int), 1])
    with pytest.raises(DataError):
        train_generator(bad, unconstrained(5), TrainConfig(max_epochs=1))


def test_generator_warns_on_tiny_eavesdrop():
    normal = _normal(rows=60, n=5)
    with pytest.warns(UserWarning, match="rows"):
        train_generator(normal, unconstrained(5, fraction=0.05),
                        TrainConfig(max_epochs=1, seed=0))


def test_fraction_controls_training_rows():
    normal = _normal(rows=400)
    g1, h1 = train_generator(normal, unconstrained(5, fraction=1.0),
                             TrainConfig(max_epochs=2, seed=0))
    g2, h2 = train_generator(normal, unconstrained(5, fraction=0.5),
                             TrainConfig(max_epochs=2, seed=0))
    assert h1.n_train + h1.n_val == 400
    assert h2.n_train + h2.n_val == 200


def test_conceal_overwrites_only_write_channels():
    normal = _normal()
    schema = _schema()
    c = partial(5, [0, 2])
    gen, _ = train_generator(normal, c, TrainConfig(max_epochs=10, seed=0))
    x = normal.values[7] + 1.5
    out = conceal_learning(gen, x, c, schema)
    np.testing.assert_array_equal(out[[1, 3, 4]], x[[1, 3, 4]])
    assert out[0] != x[0] and out[2] != x[2]


def test_conceal_pulls_anomalous_row_toward_normal():
    normal = _normal()
    schema = _schema()
    gen, _ = train_generator(normal, unconstrained(5),
                             TrainConfig(max_epochs=60, seed=0))
    x = normal.values[50].copy()
    x[0] += 3.0  # far outside the normal band
    out = conceal_learning(gen, x, unconstrained(5), schema)
    mid = normal.values.mean(axis=0)
    assert abs(out[0] - mid[0]) < abs(x[0] - mid[0])


def test_discrete_channels_snap_to_allowed_values():
    rng = np.random.default_rng(3)
    rows = 300
    flow = rng.uniform(40, 60, size=rows)
    switch = (rng.random(rows) > 0.4).astype(float)
    setting = rng.choice([0.0, 2.0, 5.0], size=rows)
    normal = TimeSeries(["flow", "switch", "setting"],
                        np.column_stack([flow * switch, switch, setting]))
    schema = SensorSchema((
        Channel("flow", "continuous", 1, depends_on="switch"),
        Channel("switch", "binary", 1),
        Channel("setting", "categorical", 1, allowed_values=(0.0, 2.0, 5.0)),
    ))
    gen, _ = train_generator(normal, unconstrained(3), TrainConfig(max_epochs=20, seed=0))
    out = conceal_learning(gen, np.array([80.0, 1.0, 3.0]), unconstrained(3), schema)
    assert out[1] in (0.0, 1.0)
    assert out[2] in (0.0, 2.0, 5.0)


def test_flow_zeroed_when_governing_switch_reads_zero():
    schema = SensorSchema((
        Channel("flow", "continuous", 1, depends_on="switch"),
        Channel("switch", "binary", 1),
    ))
    rng = np.random.default_rng(4)
    switch = (rng.random(300) > 0.6).astype(float)
    flow = switch * rng.uniform(90, 110, size=300)
    normal = TimeSeries(["flow", "switch"], np.column_stack([flow, switch]))
    gen, _ = train_generator(normal, unconstrained(2), TrainConfig(max_epochs=40, seed=1))
    # scan until the generator emits switch = 0 for some input
    found = False
    for t in range(0, 300, 7):
        x = normal.values[t] + rng.normal(scale=0.2, size=2)
        out = conceal_learning(gen, x, unconstrained(2), schema)
        if out[1] == 0.0:
            assert out[0] == 0.0
            found = True
    assert found


def test_dependency_not_enforced_outside_write_set():
    schema = SensorSchema((
        Channel("flow", "continuous", 1, depends_on="switch"),
        Channel("switch", "binary", 1),
        Channel("other", "continuous", 1),
    ))
    rng = np.random.default_rng(5)
    switch = (rng.random(300) > 0.5).astype(float)
    values = np.column_stack([switch * 50, switch, rng.uniform(size=300)])
    normal = TimeSeries(["flow", "switch", "other"], values)
    c = full(3, [1, 2])  # flow is not writable
    gen, _ = train_generator(normal, c, TrainConfig(max_epochs=10, seed=0))
    x = np.array([50.0, 1.0, 0.5])
    out = conceal_learning(gen, x, c, schema)
    assert out[0] == 50.0  # untouched even if the generator flips the switch


def test_write_outside_read_rejected():
    normal = _normal()
    schema = _schema()
    gen, _ = train_generator(normal, full(5, [1, 3]), TrainConfig(max_epochs=1, seed=0))
    with pytest.raises(SpecError):
        conceal_learning(gen, normal.values[0], full(5, [1, 2]), schema)


def test_series_concealment_only_touches_masked_rows():
    normal = _normal()
    schema = _schema()
    labels = np.zeros(len(normal), dtype=int)
    labels[100:120] = 1
    attacked = TimeSeries(normal.names, normal.values + 0.0, labels=labels)
    attacked.values[100:120] += 2.0
    gen, _ = train_generator(normal, unconstrained(5), TrainConfig(max_epochs=10, seed=0))
    out, log, times = conceal_series_learning(gen, attacked, unconstrained(5), schema)
    np.testing.assert_array_equal(out.values[:100], attacked.values[:100])
    np.testing.assert_array_equal(out.values[120:], attacked.values[120:])
    assert not np.array_equal(out.values[100:120], attacked.values[100:120])
    assert len(times) == 20
    assert {t for (t, _, _, _) in log.entries} == set(range(100, 120))


def test_prefix_and_random_sampling_differ():
    normal = _normal(rows=600)
    cfg = TrainConfig(max_epochs=2, seed=0)
    g1, _ = train_generator(normal, unconstrained(5, fraction=0.3), cfg,
                            sample_mode="prefix")
    g2, _ = train_generator(normal, unconstrained(5, fraction=0.3), cfg,
                            sample_mode="random")
    diffs = [not np.array_equal(g1.params[k], g2.params[k]) for k in g1.params]
    assert any(diffs)


@pytest.mark.parametrize("constraint", [unconstrained(17), partial(17, [0, 4, 5, 11, 16])],
                         ids=["unconstrained", "partial"])
def test_realtime_row_equals_its_offline_row_bit_for_bit(constraint):
    normal = _normal(rows=400, n=17)
    schema = _schema(17)
    labels = np.zeros(len(normal), dtype=int)
    labels[50:350] = 1
    attacked = TimeSeries(normal.names, normal.values + 0.7, labels=labels)
    gen, _ = train_generator(normal, constraint, TrainConfig(max_epochs=2, seed=0))
    offline, _, _ = conceal_series_learning(gen, attacked, constraint, schema)
    for t in range(50, 350):
        row = conceal_learning(gen, attacked.values[t], constraint, schema)
        np.testing.assert_array_equal(row.view(np.int64), offline.values[t].view(np.int64),
                                      err_msg=f"row {t}")


def _post_process_per_row(x, write, schema):
    """The post-processing rules applied to one row, scalar by scalar."""
    x = x.copy()
    for i in schema.discrete_indices():
        if i in write:
            allowed = schema.channels[i].allowed_values
            dist = [abs(a - x[i]) for a in allowed]
            x[i] = allowed[dist.index(min(dist))]
    for dep, gov in schema.dependent_pairs():
        if dep in write and x[gov] == 0.0:
            x[dep] = 0.0
    return x


@pytest.mark.parametrize("seed", range(6))
def test_vectorized_post_process_equals_the_per_row_rules(seed):
    rng = np.random.default_rng(seed)
    n = 9
    channels = []
    for i in range(n):
        kind = rng.choice(["continuous", "binary", "categorical"])
        allowed = (tuple(sorted(rng.choice([-1.0, 0.0, 0.5, 2.0, 3.0, 7.0], size=3,
                                           replace=False)))
                   if kind == "categorical" else None)
        governors = [c.name for c in channels if c.kind != "continuous"]
        depends = str(rng.choice(governors)) if governors and rng.random() < 0.6 else None
        channels.append(Channel(f"c{i}", str(kind), 1, depends_on=depends,
                                allowed_values=allowed))
    schema = SensorSchema(tuple(channels))
    X = rng.uniform(-2.0, 8.0, size=(300, n))
    # exact zeros for the governors and exact midpoints between allowed values
    X[rng.random(X.shape) < 0.2] = 0.0
    for i in schema.discrete_indices():
        allowed = schema.channels[i].allowed_values
        mids = [(a + b) / 2 for a, b in zip(allowed, allowed[1:])]
        pick = rng.random(300) < 0.3
        X[pick, i] = rng.choice(mids, size=int(pick.sum()))
    write = tuple(sorted(rng.choice(n, size=6, replace=False).tolist()))
    want = np.array([_post_process_per_row(x, write, schema) for x in X])
    got = _post_process(X.copy(), write, schema)
    np.testing.assert_array_equal(got, want)
