"""Concealment attacks: replay, iterative white-box, learning-based black-box."""
from .constraints import (AttackConstraint, ChangeLog, full, partial,
                          select_best_case_features, topology_constraint,
                          topology_features, unconstrained)
from .iterative import (DetectorOracle, IterativeBudget, IterativeResult,
                        conceal_series_iterative, iterative_conceal)
from .learning import (Generator, conceal_learning, conceal_series_learning,
                       train_generator)
from .replay import replay_attack

__all__ = [
    "AttackConstraint", "ChangeLog", "DetectorOracle", "Generator",
    "IterativeBudget", "IterativeResult", "conceal_learning",
    "conceal_series_iterative", "conceal_series_learning", "full",
    "iterative_conceal", "partial",
    "replay_attack", "select_best_case_features", "topology_constraint",
    "topology_features", "train_generator", "unconstrained",
]
