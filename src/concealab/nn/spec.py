"""Network and training hyperparameter records.

A NetworkSpec is a frozen description of an architecture; parameters live in
a separate dict so specs can be shared, serialized, and rebuilt exactly.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

from ..errors import SpecError

ACTIVATIONS = ("linear", "sigmoid", "tanh", "relu")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description.

    kind "dense": input is the flattened window, hidden holds layer widths.
    kind "lstm": hidden holds a single entry, the recurrent state size; a
        dense readout maps the final state to one reconstructed row.
    kind "conv": hidden holds per-layer filter counts; each conv uses
        `kernel`-wide same-padded filters along time followed by a width
        `pool` max-pool while the sequence is long enough, then dropout,
        flatten and a dense readout.
    Output width always equals `channels`: these nets reconstruct one row.
    """

    kind: str
    channels: int
    window: int = 1
    hidden: tuple[int, ...] = ()
    hidden_activation: str = "tanh"
    output_activation: str = "sigmoid"
    kernel: int = 2
    pool: int = 2
    dropout: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"unknown network kind {self.kind!r}")
        if self.channels < 1:
            raise SpecError(f"channels must be >= 1, got {self.channels}")
        if self.window < 1:
            raise SpecError(f"window must be >= 1, got {self.window}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise SpecError(f"hidden sizes must be positive, got {self.hidden}")
        if self.kind == "lstm" and len(self.hidden) != 1:
            raise SpecError("lstm takes exactly one hidden size")
        if self.hidden_activation not in ACTIVATIONS or self.output_activation not in ACTIVATIONS:
            raise SpecError("unknown activation")
        if not 0.0 <= self.dropout < 1.0:
            raise SpecError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.dropout and self.kind != "conv":
            raise SpecError(f"dropout applies to conv networks only, not {self.kind}")
        if self.kernel < 1 or self.pool < 1:
            raise SpecError("kernel and pool must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        return cls(**{**d, "hidden": tuple(d.get("hidden", ()))})


def detector_dense_spec(channels: int, window: int = 1) -> NetworkSpec:
    """Compressing autoencoder over the flattened window."""
    mid = max(channels // 2, 2)
    return NetworkSpec("dense", channels, window,
                       hidden=(channels, mid, channels),
                       hidden_activation="tanh", output_activation="sigmoid")


def detector_lstm_spec(channels: int, window: int = 8) -> NetworkSpec:
    return NetworkSpec("lstm", channels, window, hidden=(channels,),
                       hidden_activation="tanh", output_activation="sigmoid")


def detector_conv_spec(channels: int, window: int = 2,
                       filters: tuple[int, ...] = (64, 128, 256),
                       dropout: float = 0.2) -> NetworkSpec:
    return NetworkSpec("conv", channels, window, hidden=tuple(filters),
                       hidden_activation="relu", output_activation="sigmoid",
                       kernel=2, pool=2, dropout=dropout)


# detector kind -> its spec builder, called with the channel count; its keys
# are the network kinds
DETECTOR_SPECS = {"dense": detector_dense_spec, "lstm": detector_lstm_spec,
                  "conv": detector_conv_spec}
KINDS = tuple(DETECTOR_SPECS)


def generator_spec(channels: int) -> NetworkSpec:
    """Overcomplete autoencoder used by the learning-based concealment attack:
    hidden widths 2n/4n/2n, sigmoid everywhere, single-row input."""
    return NetworkSpec("dense", channels, 1,
                       hidden=(2 * channels, 4 * channels, 2 * channels),
                       hidden_activation="sigmoid", output_activation="sigmoid")


@dataclass(frozen=True)
class TrainConfig:
    """ADAM + early stopping + reduce-on-plateau schedule."""

    lr: float = 0.001
    batch_size: int = 32
    max_epochs: int = 500
    es_patience: int = 10
    plateau_patience: int = 5
    lr_decay: float = 0.5
    lr_floor: float = 1e-6
    val_ratio: float = 1.0 / 3.0
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0 or self.lr_floor <= 0 or self.lr_decay <= 0 or self.lr_decay >= 1:
            raise SpecError("bad learning-rate schedule")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise SpecError("batch_size and max_epochs must be >= 1")
        if self.seed < 0:
            raise SpecError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.val_ratio < 1.0:
            raise SpecError(f"val_ratio must be in (0, 1), got {self.val_ratio}")

    def n_train(self, rows: int) -> int:
        """How many leading rows of a series of rows >= 2 train; the rest,
        at least one, validate."""
        return min(max(int(round(rows * (1.0 - self.val_ratio))), 1), rows - 1)
