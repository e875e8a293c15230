"""Mini-batch training loop: ADAM, early stopping on validation loss, and
reduce-on-plateau learning-rate decay. Returns the parameters from the best
validation epoch, not the last one."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionError
from .network import _coerce, loss_and_grads, predict
from .ops import mse
from .params import Adam, init_params, param_layout, param_views
from .spec import NetworkSpec, TrainConfig


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = float("inf")
    epochs_run: int = 0
    final_lr: float = 0.0
    n_train: int = 0
    n_val: int = 0


def train(spec: NetworkSpec, X: np.ndarray, Y: np.ndarray,
          cfg: TrainConfig | None = None) -> tuple[dict, TrainHistory]:
    """Fit a reconstruction network on (X windows, Y target rows).

    The head of the data trains, the tail validates (contiguous split, no
    leakage across the boundary). Validation loss drives snapshotting, early
    stopping, and the plateau schedule.
    """
    cfg = cfg or TrainConfig()
    X = _coerce(spec, X)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != (X.shape[0], spec.channels):
        raise DimensionError(f"targets must be {(X.shape[0], spec.channels)}, got {Y.shape}")
    if X.shape[0] < 2:
        raise DimensionError("need at least 2 samples to split train/validation")

    n_train = cfg.n_train(X.shape[0])
    Xtr, Ytr = X[:n_train], Y[:n_train]
    Xva, Yva = X[n_train:], Y[n_train:]

    params = init_params(spec, cfg.seed)
    adam = Adam(params)
    rng = np.random.default_rng(cfg.seed)
    lr = cfg.lr
    keep = 1.0 - spec.dropout
    # the dropout mask covers the features entering the dense readout
    mask_width = params["W_out"].shape[0] if spec.kind == "conv" and spec.dropout > 0 else 0

    hist = TrainHistory(n_train=n_train, n_val=X.shape[0] - n_train)
    best = adam.theta.copy()
    since_improve = 0
    plateau_wait = 0

    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(n_train)
        loss_sum = 0.0
        for s in range(0, n_train, cfg.batch_size):
            idx = perm[s:s + cfg.batch_size]
            mask = None
            if mask_width:
                mask = (rng.random((idx.size, mask_width)) < keep) / keep
            loss, grads = loss_and_grads(spec, params, Xtr[idx], Ytr[idx], mask)
            adam.step(params, grads, lr)
            loss_sum += loss * idx.size
        hist.train_loss.append(loss_sum / n_train)

        val = mse(predict(spec, params, Xva), Yva)
        hist.val_loss.append(val)
        if val < hist.best_val:
            hist.best_val = val
            hist.best_epoch = epoch
            best[...] = adam.theta
            since_improve = 0
            plateau_wait = 0
        else:
            since_improve += 1
            plateau_wait += 1
            if plateau_wait >= cfg.plateau_patience:
                lr = max(lr * cfg.lr_decay, cfg.lr_floor)
                plateau_wait = 0
        hist.epochs_run = epoch + 1
        if since_improve >= cfg.es_patience:
            break

    hist.final_lr = lr
    return param_views(best, param_layout(spec)), hist
