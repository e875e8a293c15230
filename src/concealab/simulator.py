"""Synthetic water-distribution plant.

Three elevated tanks, each filled by a pump under hysteresis control and
drained by a consumer demand; two district valves modulate demand on a day
schedule. Demands share a common noise factor (plus a small per-tank one),
so channels are strongly correlated: pump flow is an exact function of pump
status, a junction pressure sensor tracks each tank's static head, and the
three demand flows co-move. That correlation structure is what makes
partially replayed data stand out as contextual anomalies.

Controllers act on reported sensor values, so sensor tampering scenarios
(stuck, offset) also disturb the physics through the control loop. Euler
integration at the sampling interval; levels clamp to [0, capacity].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dataset import TimeSeries, make_timestamps
from .errors import SpecError
from .schema import Channel, SensorSchema

FORCE_KINDS = ("force-actuator-on", "force-actuator-off")
SENSOR_KINDS = ("stuck-sensor", "sensor-offset")


@dataclass(frozen=True)
class TankSpec:
    capacity: float = 5.0       # max level
    area: float = 120.0         # tank cross-section
    level0: float = 2.8
    pump_rate: float = 110.0    # inflow when the pump runs
    on_level: float = 2.0       # hysteresis: pump starts at or below this
    off_level: float = 3.5      # pump stops at or above this
    base_demand: float = 55.0
    phase_h: float = 0.0        # demand phase offset in hours

    def __post_init__(self):
        if self.capacity <= 0 or self.area <= 0 or self.pump_rate <= 0:
            raise SpecError("tank capacity, area and pump rate must be positive")
        if not self.on_level < self.off_level:
            raise SpecError("hysteresis needs on_level < off_level")
        if self.base_demand < 0:
            raise SpecError("demand must be >= 0")
        if not 0 <= self.level0 <= self.capacity:
            raise SpecError("initial level outside [0, capacity]")


@dataclass(frozen=True)
class PlantConfig:
    tanks: tuple[TankSpec, ...] = (
        TankSpec(phase_h=0.0),
        TankSpec(level0=2.4, base_demand=50.0, pump_rate=100.0, phase_h=1.5),
        TankSpec(level0=3.1, base_demand=60.0, pump_rate=120.0, phase_h=-2.0),
    )
    interval_s: float = 900.0
    sin_amp: float = 0.35        # relative amplitude of the 24h demand curve
    shared_sigma: float = 0.15   # stationary sd of the shared demand factor
    shared_tau_h: float = 6.0    # mean-reversion time of the shared factor
    idio_sigma: float = 0.04     # per-tank demand noise sd
    valve_boost: float = 1.08    # demand factor while the district valve is open
    valve_cut: float = 0.92     # demand factor while it is closed
    p_base: float = 18.0         # junction pressure at an empty tank
    p_coeff: float = 9.0         # pressure per unit of level (static head)
    p_sigma: float = 0.02        # pressure sensor noise sd
    seed: int = 0

    def __post_init__(self):
        if not self.tanks:
            raise SpecError("plant needs at least one tank")
        if self.interval_s <= 0:
            raise SpecError("sampling interval must be positive")
        if self.shared_tau_h <= 0:
            raise SpecError("shared noise needs a positive time constant")
        if self.p_coeff <= 0 or self.p_sigma < 0:
            raise SpecError("pressure head needs p_coeff > 0 and p_sigma >= 0")
        if self.seed < 0:
            raise SpecError(f"plant seed must be >= 0, got {self.seed}")

    @property
    def n_tanks(self) -> int:
        return len(self.tanks)


@dataclass(frozen=True)
class AnomalyScenario:
    """A physical fault or sensor tamper window with ground-truth labels.

    kind force-actuator-on/off targets an actuator name (PU1..PUk, V1, V2);
    stuck-sensor / sensor-offset target a reported channel name (L_T1 ...).
    """

    kind: str
    target: str
    start: int
    duration: int
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in FORCE_KINDS + SENSOR_KINDS:
            raise SpecError(f"unknown scenario kind {self.kind!r}")
        if self.duration < 1:
            raise SpecError("scenario duration must be >= 1")
        if self.start < 0:
            raise SpecError("scenario start must be >= 0")

    @property
    def stop(self) -> int:
        return self.start + self.duration

    def active(self, t: int) -> bool:
        return self.start <= t < self.stop


def channel_names(cfg: PlantConfig) -> list[str]:
    return sim_schema(cfg).names


def sim_schema(cfg: PlantConfig | None = None) -> SensorSchema:
    """Schema for the emitted channels, in the order the plant emits them.
    PLC 1 runs tanks 1..2, PLC 2 the rest; pump flows depend on their
    status channel."""
    cfg = cfg or PlantConfig()
    k = cfg.n_tanks
    plc_of_tank = [1 if i < 2 else 2 for i in range(k)]
    chans = [Channel(f"L_T{i + 1}", "continuous", plc=plc_of_tank[i]) for i in range(k)]
    for i in range(k):
        chans.append(Channel(f"F_PU{i + 1}", "continuous", plc=plc_of_tank[i],
                             depends_on=f"S_PU{i + 1}"))
        chans.append(Channel(f"S_PU{i + 1}", "binary", plc=plc_of_tank[i]))
    chans += [Channel(f"F_T{i + 1}", "continuous", plc=plc_of_tank[i]) for i in range(k)]
    chans.append(Channel("S_V1", "binary", plc=1))
    chans.append(Channel("S_V2", "binary", plc=2))
    chans += [Channel(f"P_J{i + 1}", "continuous", plc=plc_of_tank[i]) for i in range(k)]
    return SensorSchema(chans)


def _check_scenarios(cfg: PlantConfig, scenarios, steps: int) -> None:
    names = set(channel_names(cfg))
    actuators = {f"PU{i}" for i in range(1, cfg.n_tanks + 1)} | {"V1", "V2"}
    for sc in scenarios:
        if sc.stop > steps:
            raise SpecError(f"scenario on {sc.target!r} ends at {sc.stop}, "
                            f"horizon is {steps} steps")
        if sc.kind in FORCE_KINDS and sc.target not in actuators:
            raise SpecError(f"unknown actuator {sc.target!r}")
        if sc.kind in SENSOR_KINDS and sc.target not in names:
            raise SpecError(f"unknown sensor channel {sc.target!r}")


def _shared_factor(cfg: PlantConfig, dt_h: float, noise: np.ndarray) -> np.ndarray:
    """The AR(1) demand factor all tanks share, one value per step."""
    rho = math.exp(-dt_h / cfg.shared_tau_h)
    spread = cfg.shared_sigma * math.sqrt(1.0 - rho * rho)
    out = np.empty(len(noise))
    view = memoryview(out)
    state = view[0] = cfg.shared_sigma * float(noise[0])
    for t, x in enumerate(memoryview(noise[1:]), start=1):
        state = view[t] = rho * state + spread * x
    return out


class _Tamper:
    """The sensor scenarios on one reported channel. Called with a step t,
    the measured value and the previous report prev (None when there is
    none to take, at t = 0), it returns the report: a stuck window holds the
    value frozen at its start (prev, else the value), then every active
    offset adds its magnitude; each kind applies in scenario order."""

    def __init__(self, scenarios):
        self.stuck = [sc for sc in scenarios if sc.kind == "stuck-sensor"]
        self.offset = [sc for sc in scenarios if sc.kind == "sensor-offset"]
        self.steps = sorted({t for sc in scenarios for t in range(sc.start, sc.stop)})
        self.frozen = 0.0

    def __call__(self, t: int, value: float, prev: float | None) -> float:
        for sc in self.stuck:
            if sc.start <= t < sc.stop:
                if t == sc.start:
                    self.frozen = value if prev is None else prev
                value = self.frozen
        for sc in self.offset:
            if sc.start <= t < sc.stop:
                value += sc.magnitude
        return value


def _run_tank(cfg: PlantConfig, i: int, columns: list[np.ndarray], shared: np.ndarray,
              noise: tuple[np.ndarray, np.ndarray], force, tamper: _Tamper | None) -> None:
    """Tank i's demand, hysteresis and level recursion on Python floats,
    written step by step into its columns of the values matrix: the
    reported level, the pump flow, the pump state, the served demand and
    the junction pressure. The pump acts on the level reported one step
    earlier (the initial level at t = 0), unless force, one entry per step,
    holds True or False; tamper rewrites the reported level in its windows."""
    tank = cfg.tanks[i]
    on_level, off_level = tank.on_level, tank.off_level
    rate, area, cap, base, phase_h = (tank.pump_rate, tank.area, tank.capacity,
                                      tank.base_demand, tank.phase_h)
    dt_h = cfg.interval_s / 3600.0
    tampered = set(tamper.steps) if tamper else ()
    level = reported = tank.level0
    on = False
    # strided memoryviews: writes cost what list appends do and make no objects
    report_v, inflow_v, state_v, served_v, head_v, valve_v = map(memoryview, columns)
    views = zip(memoryview(shared), valve_v, *map(memoryview, noise), force)
    for t, (shared_t, valve_t, idio_t, pressure_t, forced) in enumerate(views):
        if reported <= on_level:
            on = True
        elif reported >= off_level:
            on = False
        if forced is not None:
            on = forced
        inflow = rate if on else 0.0
        hour = t * dt_h
        sin_t = math.sin(2.0 * math.pi * (hour + phase_h) / 24.0)
        factor = cfg.valve_boost if valve_t else cfg.valve_cut
        demand = base * (1.0 + cfg.sin_amp * sin_t)
        demand *= (1.0 + shared_t) * (1.0 + cfg.idio_sigma * idio_t)
        demand = demand * factor
        # min and max spelled out: the builtins' result for ties, -0.0 and NaN
        demand = 0.0 if 0.0 > demand else demand
        supply = level * area / dt_h + inflow
        served = supply if supply < demand else demand
        level = level + (inflow - served) * dt_h / area
        level = 0.0 if 0.0 > level else level
        level = cap if cap < level else level
        reported = tamper(t, level, reported) if t in tampered else level
        report_v[t] = reported
        inflow_v[t] = inflow
        state_v[t] = 1.0 if on else 0.0
        served_v[t] = served
        # static head at the junction below the tank, from the true level
        head_v[t] = cfg.p_base + cfg.p_coeff * level + cfg.p_sigma * pressure_t


def _simulate(cfg: PlantConfig, steps: int, scenarios: tuple[AnomalyScenario, ...],
              ) -> TimeSeries:
    if steps < 1:
        raise SpecError("need at least one simulation step")
    _check_scenarios(cfg, scenarios, steps)
    names = channel_names(cfg)
    col = {n: i for i, n in enumerate(names)}
    dt_h = cfg.interval_s / 3600.0

    # noise is drawn up front so scenario overrides never shift the stream:
    # a run with no scenarios is bitwise identical to the normal run
    rng = np.random.default_rng(cfg.seed)
    shared_noise = rng.standard_normal(steps)
    idio_noise = rng.standard_normal((steps, cfg.n_tanks))
    pressure_noise = rng.standard_normal((steps, cfg.n_tanks))
    values = np.empty((steps, len(names)))
    labels = np.zeros(steps, dtype=np.int64)
    for sc in scenarios:
        labels[sc.start:sc.stop] = 1

    # forcing holds an actuator on or off in its window; "off" wins overlaps
    forced = {}
    for kind, state in zip(FORCE_KINDS, (True, False)):
        for sc in scenarios:
            if sc.kind == kind:
                forced.setdefault(sc.target, [None] * steps)[sc.start:sc.stop] = \
                    [state] * sc.duration

    # the tanks interact only through terms that depend on time alone: the
    # shared demand factor, the valve schedule and the noise draws
    shared = _shared_factor(cfg, dt_h, shared_noise)
    for j, phase_h in ((1, 0.0), (2, 8.0)):
        valve = memoryview(values[:, col[f"S_V{j}"]])
        for t, state in enumerate(forced.get(f"V{j}", repeat(None, steps))):
            if state is None:
                state = math.sin(2.0 * math.pi * (t * dt_h + phase_h) / 24.0) > 0.0
            valve[t] = 1.0 if state else 0.0

    # sensor tampering rewrites the report, not the physics; the control
    # loop still reads the tampered report, so effects can propagate
    tampers = {}
    for sc in scenarios:
        if sc.kind in SENSOR_KINDS:
            tampers.setdefault(sc.target, []).append(sc)
    tampers = {name: _Tamper(scs) for name, scs in tampers.items()}

    for i in range(cfg.n_tanks):
        n = i + 1
        columns = [values[:, col[name]] for name in (
            f"L_T{n}", f"F_PU{n}", f"S_PU{n}", f"F_T{n}", f"P_J{n}", "S_V1" if i < 2 else "S_V2")]
        _run_tank(cfg, i, columns, shared, (idio_noise[:, i], pressure_noise[:, i]),
                  forced.get(f"PU{n}", repeat(None)), tampers.pop(f"L_T{n}", None))

    # reports on other channels do not feed back: rewrite them afterwards,
    # in step order, so a stuck window freezes at the previous report
    for name, tamper in tampers.items():
        column = values[:, col[name]]
        for t in tamper.steps:
            column[t] = tamper(t, column[t], column[t - 1] if t else None)

    return TimeSeries(names=names, values=values,
                      timestamps=make_timestamps(steps, cfg.interval_s),
                      labels=labels, interval_s=cfg.interval_s)


def simulate_normal(cfg: PlantConfig, steps: int) -> TimeSeries:
    """Normal operation; labels all safe. Deterministic per seed."""
    return _simulate(cfg, steps, ())


def inject_anomaly(cfg: PlantConfig, scenarios, steps: int) -> TimeSeries:
    """Rerun the simulation with scenario overrides active in their windows;
    rows inside any window carry the under-attack label. With no scenarios
    the output equals simulate_normal bit for bit."""
    return _simulate(cfg, steps, tuple(scenarios))
