"""Synthetic water-distribution plant: physics, determinism, and anomaly
injection semantics."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_simulator import reference_simulate

from concealab.errors import SpecError
from concealab.simulator import (AnomalyScenario, PlantConfig, TankSpec,
                                 channel_names, inject_anomaly, sim_schema,
                                 simulate_normal)

CFG = PlantConfig()


def test_channel_layout():
    names = channel_names(CFG)
    k = len(CFG.tanks)
    assert names[:k] == [f"L_T{i+1}" for i in range(k)]
    assert "F_PU1" in names and "S_PU1" in names and "S_V1" in names
    assert names[-k:] == [f"P_J{i+1}" for i in range(k)]
    # levels, pump pairs, demands, two valves, junction pressures
    assert len(names) == 5 * k + 2


def test_same_seed_same_stream():
    a = simulate_normal(CFG, 500)
    b = simulate_normal(CFG, 500)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_normal(PlantConfig(seed=1), 500)
    assert not np.array_equal(a.values, c.values)


def test_levels_stay_in_tank_bounds():
    ts = simulate_normal(CFG, 3000)
    k = len(CFG.tanks)
    levels = ts.values[:, :k]
    for i, tank in enumerate(CFG.tanks):
        assert levels[:, i].min() >= 0.0
        assert levels[:, i].max() <= tank.capacity


def test_pump_flow_is_rate_times_state():
    ts = simulate_normal(CFG, 2000)
    names = ts.names
    for i, tank in enumerate(CFG.tanks):
        f = ts.values[:, names.index(f"F_PU{i+1}")]
        s = ts.values[:, names.index(f"S_PU{i+1}")]
        np.testing.assert_allclose(f, tank.pump_rate * s)
        assert set(np.unique(s)) <= {0.0, 1.0}
        assert s.mean() > 0.05 and s.mean() < 0.95  # hysteresis actually cycles


def test_hysteresis_band_respected():
    ts = simulate_normal(CFG, 4000)
    names = ts.names
    for i, tank in enumerate(CFG.tanks):
        level = ts.values[:, names.index(f"L_T{i+1}")]
        s = ts.values[:, names.index(f"S_PU{i+1}")]
        turn_on = np.where((s[1:] == 1) & (s[:-1] == 0))[0]
        turn_off = np.where((s[1:] == 0) & (s[:-1] == 1))[0]
        # the controller reacts to the previous step's reported level
        assert np.all(level[turn_on] <= tank.on_level + 1e-9)
        assert np.all(level[turn_off] >= tank.off_level - 1e-9)


def test_demand_channels_positive_and_diurnal():
    ts = simulate_normal(CFG, 960)  # ten days at 15-min sampling
    names = ts.names
    for i in range(len(CFG.tanks)):
        d = ts.values[:, names.index(f"F_T{i+1}")]
        assert d.min() > 0.0
        day = int(round(86400 / CFG.interval_s))
        folded = d[:day * 10].reshape(10, day).mean(axis=0)
        # diurnal modulation shows up as a wide swing in the daily profile
        assert folded.max() - folded.min() > 0.2 * d.mean()


def test_shared_demand_factor_correlates_tanks():
    ts = simulate_normal(CFG, 4000)
    names = ts.names
    d1 = ts.values[:, names.index("F_T1")]
    d2 = ts.values[:, names.index("F_T2")]
    r = np.corrcoef(d1, d2)[0, 1]
    assert r > 0.5


def test_pressure_tracks_level_head():
    ts = simulate_normal(CFG, 1500)
    names = ts.names
    for i in range(len(CFG.tanks)):
        level = ts.values[:, names.index(f"L_T{i+1}")]
        p = ts.values[:, names.index(f"P_J{i+1}")]
        expect = CFG.p_base + CFG.p_coeff * level
        assert np.abs(p - expect).max() < 6 * CFG.p_sigma


def test_scenarios_do_not_shift_the_noise_stream():
    clean = simulate_normal(CFG, 800)
    scen = AnomalyScenario("force-actuator-on", "PU1", 100, 50, 0.0)
    dirty = inject_anomaly(CFG, [scen], 800)
    np.testing.assert_array_equal(clean.values[:100], dirty.values[:100])
    # physics re-converges after the window; remote channels never drift
    assert dirty.labels[:100].sum() == 0


def test_labels_cover_exactly_the_scenario_windows():
    scen = [AnomalyScenario("force-actuator-on", "PU1", 100, 50, 0.0),
            AnomalyScenario("force-actuator-off", "PU2", 400, 30, 0.0)]
    ts = inject_anomaly(CFG, scen, 800)
    want = np.zeros(800, dtype=int)
    want[100:150] = 1
    want[400:430] = 1
    np.testing.assert_array_equal(ts.labels, want)


def test_force_on_holds_actuator_on():
    scen = AnomalyScenario("force-actuator-on", "PU1", 50, 60, 0.0)
    ts = inject_anomaly(CFG, [scen], 300)
    s = ts.values[:, ts.names.index("S_PU1")]
    f = ts.values[:, ts.names.index("F_PU1")]
    np.testing.assert_array_equal(s[50:110], 1.0)
    np.testing.assert_array_equal(f[50:110], CFG.tanks[0].pump_rate)


def test_force_off_holds_actuator_off():
    scen = AnomalyScenario("force-actuator-off", "PU2", 50, 60, 0.0)
    ts = inject_anomaly(CFG, [scen], 300)
    s = ts.values[:, ts.names.index("S_PU2")]
    np.testing.assert_array_equal(s[50:110], 0.0)


def test_stuck_sensor_freezes_report_while_physics_moves():
    scen = AnomalyScenario("stuck-sensor", "L_T1", 60, 40, 0.0)
    ts = inject_anomaly(CFG, [scen], 300)
    level = ts.values[:, ts.names.index("L_T1")]
    frozen = level[60:100]
    np.testing.assert_array_equal(frozen, frozen[0])
    clean = simulate_normal(CFG, 300)
    # reported value diverges from what the clean run shows mid-window
    assert np.abs(clean.values[80, 0] - level[80]) > 1e-6


def test_sensor_offset_adds_magnitude():
    scen = AnomalyScenario("sensor-offset", "L_T2", 60, 40, 0.9)
    ts = inject_anomaly(CFG, [scen], 300)
    clean = simulate_normal(CFG, 300)
    np.testing.assert_array_equal(clean.values[:60], ts.values[:60])
    # at onset the report jumps by the configured offset
    assert ts.values[60, 1] == pytest.approx(clean.values[60, 1] + 0.9)


def test_tampered_sensor_feeds_back_into_control():
    # a large positive offset on L_T1 makes the controller believe the tank
    # is full, so the pump switches off and the true level drains
    scen = AnomalyScenario("sensor-offset", "L_T1", 60, 120, 3.0)
    ts = inject_anomaly(CFG, [scen], 400)
    s = ts.values[:, ts.names.index("S_PU1")]
    assert s[65:175].max() == 0.0


def test_scenario_validation():
    with pytest.raises(SpecError):
        AnomalyScenario("melt", "PU1", 0, 10, 0.0)
    with pytest.raises(SpecError):
        inject_anomaly(CFG, [AnomalyScenario("force-actuator-on", "PU9", 0, 10, 0.0)], 50)
    with pytest.raises(SpecError):
        AnomalyScenario("force-actuator-on", "PU1", 0, 0, 0.0)


def test_plant_config_validation():
    with pytest.raises(SpecError):
        TankSpec(capacity=-1.0)
    with pytest.raises(SpecError):
        PlantConfig(tanks=())
    with pytest.raises(SpecError):
        TankSpec(on_level=3.0, off_level=2.0)


def test_schema_matches_emitted_series():
    schema = sim_schema(CFG)
    ts = simulate_normal(CFG, 10)
    assert schema.names == ts.names
    pairs = dict(schema.dependent_pairs())
    i_f = schema.index("F_PU1")
    assert pairs[i_f] == schema.index("S_PU1")
    assert {c.plc for c in schema} == {1, 2}


# -- the per-tank rewrite against the reference model ----------------------

ACTUATORS = ["PU1", "PU2", "PU3", "V1", "V2"]
KINDS = ["force-actuator-on", "force-actuator-off", "stuck-sensor", "sensor-offset"]


@st.composite
def _scenario_sets(draw):
    """A horizon of 1-300 steps and 0-4 scenarios of any kind inside it.
    Starts lean to t = 0 and sensor targets to two channels, so that
    t = 0 freezes and windows overlapping on one channel come up often."""
    steps = draw(st.integers(1, 300))
    scenarios = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(KINDS))
        if kind.startswith("force"):
            target = draw(st.sampled_from(ACTUATORS))
        else:
            target = draw(st.sampled_from(["L_T2", "P_J1"])
                          | st.sampled_from(channel_names(CFG)))
        start = draw(st.just(0) | st.integers(0, steps - 1))
        duration = draw(st.integers(1, steps - start))
        magnitude = draw(st.floats(-4.0, 4.0))
        scenarios.append(AnomalyScenario(kind, target, start, duration, magnitude))
    return steps, scenarios


def _case(steps, *scenarios):
    return steps, [AnomalyScenario(*sc) for sc in scenarios]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), case=_scenario_sets())
@example(seed=0, case=_case(300, ("force-actuator-on", "PU1", 10, 100, 0.0),
                            ("force-actuator-off", "PU1", 50, 20, 0.0),
                            ("force-actuator-off", "V1", 0, 150, 0.0),
                            ("force-actuator-on", "V2", 40, 200, 0.0)))
@example(seed=1, case=_case(200, ("stuck-sensor", "L_T1", 0, 60, 0.0),
                            ("stuck-sensor", "F_T2", 0, 30, 0.0),
                            ("stuck-sensor", "L_T3", 70, 90, 0.0),
                            ("stuck-sensor", "S_PU1", 20, 50, 0.0)))
@example(seed=2, case=_case(250, ("stuck-sensor", "L_T2", 30, 100, 0.0),
                            ("sensor-offset", "L_T2", 60, 120, 2.5),
                            ("stuck-sensor", "P_J1", 0, 40, 0.0),
                            ("sensor-offset", "P_J1", 20, 40, -1.0)))
def test_simulation_equals_the_reference_model(seed, case):
    steps, scenarios = case
    cfg = PlantConfig(seed=seed)
    got = inject_anomaly(cfg, scenarios, steps)
    want = reference_simulate(cfg, steps, tuple(scenarios))
    assert got.names == want.names
    assert got.values.tobytes() == want.values.tobytes()
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.timestamps == want.timestamps
    if not scenarios:
        assert simulate_normal(cfg, steps).values.tobytes() == want.values.tobytes()


def test_simulation_equals_the_reference_model_on_a_custom_plant():
    # integer fields, four tanks, a 60 s interval, and a daily demand curve
    # deep enough to go below zero, where the demand is clamped
    cfg = PlantConfig(tanks=(TankSpec(capacity=4, area=90, level0=1, pump_rate=80,
                                      base_demand=40, phase_h=3.0),
                             TankSpec(), TankSpec(level0=4.5, phase_h=-5.0),
                             TankSpec(base_demand=0.0)),
                      interval_s=60, sin_amp=1.3, shared_sigma=0.6, seed=11)
    scenarios = [AnomalyScenario("stuck-sensor", "L_T4", 0, 400, 0.0),
                 AnomalyScenario("sensor-offset", "L_T1", 100, 300, -3.0),
                 AnomalyScenario("force-actuator-on", "PU4", 500, 200, 0.0)]
    got = inject_anomaly(cfg, scenarios, 1500)
    want = reference_simulate(cfg, 1500, tuple(scenarios))
    assert got.values.tobytes() == want.values.tobytes()
    np.testing.assert_array_equal(got.labels, want.labels)
