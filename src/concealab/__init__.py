"""concealab: a laboratory for constrained concealment attacks against
reconstruction-based anomaly detectors in industrial control systems.

The pieces: a small deterministic neural-network engine (`nn`), a
reconstruction-error detector (`detector`), three concealment attacks
(`attacks`: replay, iterative white-box, learning-based black-box), a
synthetic water-distribution plant (`simulator`), dataset plumbing
(`dataset`, `schema`), an evaluation and sweep harness (`evaluation`),
model serialization (`model_io`), and a CLI (`cli`) that trains a
command's independent models at once in forked workers (`workers`).
"""
__version__ = "0.7.0"

from . import attacks, dataset, detector, evaluation, model_io, nn, schema, simulator
from .errors import ConcealabError, DataError, DimensionError, NumericError, SpecError

__all__ = [
    "ConcealabError", "DataError", "DimensionError", "NumericError", "SpecError",
    "attacks", "dataset", "detector", "evaluation", "model_io", "nn",
    "schema", "simulator",
]
