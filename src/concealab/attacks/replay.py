"""Replay attack: substitute attacked readings with values the attacker
recorded earlier during normal operation, shifted back by a fixed offset."""
from __future__ import annotations

import warnings

import numpy as np

from ..dataset import TimeSeries
from ..errors import SpecError
from .constraints import AttackConstraint, ChangeLog, attack_rows


def replay_attack(series: TimeSeries, offset: int, constraint: AttackConstraint,
                  ) -> tuple[TimeSeries, ChangeLog]:
    """Overwrite write-set channels at every attack-labeled timestep t with
    the recorded values from t - offset. Other channels and timesteps are
    kept.

    A replay source row that is itself attack-labeled triggers a warning
    (the attack still runs; a real attacker would pick a clean offset).
    """
    if offset < 1:
        raise SpecError(f"replay offset must be >= 1 timestep, got {offset}")
    steps = attack_rows(series, "replay")
    log = ChangeLog(series.n_channels)
    out = series.values.copy()
    if steps.size == 0 or not constraint.write:
        return series.with_values(out), log

    if steps.min() - offset < 0:
        raise SpecError(
            f"offset {offset} reaches before the recording starts "
            f"(first attacked step is {int(steps.min())})")
    src = steps - offset
    if series.labels is not None and (series.labels[src] == 1).any():
        warnings.warn("replay source window overlaps attack-labeled rows", stacklevel=2)

    cols = list(constraint.write)
    new = series.values[np.ix_(src, cols)]
    log.record_rows(steps, out[np.ix_(steps, cols)], new, cols)
    out[np.ix_(steps, cols)] = new
    return series.with_values(out), log
