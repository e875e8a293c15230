"""The plant simulation loop as it stood before the per-tank rewrite,
kept verbatim as a reference model: `concealab.simulator` must produce the
same values, labels and timestamps, bit for bit (see test_simulator)."""
from __future__ import annotations

import math

import numpy as np

from concealab.dataset import TimeSeries, make_timestamps
from concealab.errors import SpecError
from concealab.simulator import AnomalyScenario, PlantConfig, _check_scenarios, channel_names


def reference_simulate(cfg: PlantConfig, steps: int, scenarios: tuple[AnomalyScenario, ...],
              ) -> TimeSeries:
    if steps < 1:
        raise SpecError("need at least one simulation step")
    _check_scenarios(cfg, scenarios, steps)
    k = cfg.n_tanks
    names = channel_names(cfg)
    col = {n: i for i, n in enumerate(names)}
    dt_h = cfg.interval_s / 3600.0

    # noise is drawn up front so scenario overrides never shift the stream:
    # a run with no scenarios is bitwise identical to the normal run
    rng = np.random.default_rng(cfg.seed)
    shared_noise = rng.standard_normal(steps)
    idio_noise = rng.standard_normal((steps, k))
    pressure_noise = rng.standard_normal((steps, k))
    rho = math.exp(-dt_h / cfg.shared_tau_h)
    spread = cfg.shared_sigma * math.sqrt(1.0 - rho * rho)

    force_on = [sc for sc in scenarios if sc.kind == "force-actuator-on"]
    force_off = [sc for sc in scenarios if sc.kind == "force-actuator-off"]
    stuck = [sc for sc in scenarios if sc.kind == "stuck-sensor"]
    offset = [sc for sc in scenarios if sc.kind == "sensor-offset"]

    level = np.array([t.level0 for t in cfg.tanks])
    pump_on = np.zeros(k, dtype=bool)
    reported_level = level.copy()
    frozen: dict[str, float] = {}

    values = np.zeros((steps, len(names)))
    labels = np.zeros(steps, dtype=np.int64)

    shared_state = 0.0
    for t in range(steps):
        if t == 0:
            shared_state = cfg.shared_sigma * shared_noise[0]
        else:
            shared_state = rho * shared_state + spread * shared_noise[t]

        # hysteresis on the reported level from the previous step
        for i in range(k):
            tank = cfg.tanks[i]
            if reported_level[i] <= tank.on_level:
                pump_on[i] = True
            elif reported_level[i] >= tank.off_level:
                pump_on[i] = False
        for sc in force_on:
            if sc.active(t) and sc.target.startswith("PU"):
                pump_on[int(sc.target[2:]) - 1] = True
        for sc in force_off:
            if sc.active(t) and sc.target.startswith("PU"):
                pump_on[int(sc.target[2:]) - 1] = False

        hour = t * dt_h
        valve = [math.sin(2.0 * math.pi * hour / 24.0) > 0.0,
                 math.sin(2.0 * math.pi * (hour + 8.0) / 24.0) > 0.0]
        for sc in force_on:
            if sc.active(t) and sc.target.startswith("V"):
                valve[int(sc.target[1:]) - 1] = True
        for sc in force_off:
            if sc.active(t) and sc.target.startswith("V"):
                valve[int(sc.target[1:]) - 1] = False

        row = np.zeros(len(names))
        for i in range(k):
            tank = cfg.tanks[i]
            inflow = tank.pump_rate if pump_on[i] else 0.0
            sin_t = math.sin(2.0 * math.pi * (hour + tank.phase_h) / 24.0)
            v_open = valve[0] if i < 2 else valve[1]
            factor = cfg.valve_boost if v_open else cfg.valve_cut
            demand = tank.base_demand * (1.0 + cfg.sin_amp * sin_t)
            demand *= (1.0 + shared_state) * (1.0 + cfg.idio_sigma * idio_noise[t, i])
            demand = max(demand * factor, 0.0)
            served = min(demand, level[i] * tank.area / dt_h + inflow)
            level[i] = min(max(level[i] + (inflow - served) * dt_h / tank.area, 0.0),
                           tank.capacity)
            row[col[f"L_T{i + 1}"]] = level[i]
            row[col[f"F_PU{i + 1}"]] = inflow
            row[col[f"S_PU{i + 1}"]] = 1.0 if pump_on[i] else 0.0
            row[col[f"F_T{i + 1}"]] = served
            # static head at the junction below the tank, from the true level
            row[col[f"P_J{i + 1}"]] = (cfg.p_base + cfg.p_coeff * level[i]
                                       + cfg.p_sigma * pressure_noise[t, i])
        row[col["S_V1"]] = 1.0 if valve[0] else 0.0
        row[col["S_V2"]] = 1.0 if valve[1] else 0.0

        # sensor tampering rewrites the report, not the physics; the control
        # loop still reads the tampered report, so effects can propagate
        for sc in stuck:
            if sc.active(t):
                if t == sc.start:
                    # freeze at the last clean report
                    if sc.target.startswith("L_T"):
                        frozen[sc.target] = reported_level[int(sc.target[3:]) - 1]
                    elif t > 0:
                        frozen[sc.target] = values[t - 1, col[sc.target]]
                    else:
                        frozen[sc.target] = row[col[sc.target]]
                row[col[sc.target]] = frozen[sc.target]
        for sc in offset:
            if sc.active(t):
                row[col[sc.target]] += sc.magnitude

        for i in range(k):
            reported_level[i] = row[col[f"L_T{i + 1}"]]
        if any(sc.active(t) for sc in scenarios):
            labels[t] = 1
        values[t] = row

    return TimeSeries(names=names, values=values,
                      timestamps=make_timestamps(steps, cfg.interval_s),
                      labels=labels, interval_s=cfg.interval_s)
