"""Minimal deterministic neural-network engine (dense, LSTM, 1-D conv)."""
from .gradcheck import (finite_difference_gradients, kink_margin,
                        max_relative_error)
from .dense import predict_invariant
from .network import backward, forward, loss_and_grads, predict
from .ops import mse, mse_grad
from .params import Adam, glorot_uniform, init_params, param_layout, param_views
from .spec import (NetworkSpec, TrainConfig, detector_conv_spec, detector_dense_spec,
                   detector_lstm_spec, generator_spec)
from .training import TrainHistory, train

__all__ = [
    "Adam", "NetworkSpec", "TrainConfig", "TrainHistory",
    "backward", "detector_conv_spec", "detector_dense_spec",
    "detector_lstm_spec", "finite_difference_gradients",
    "forward", "generator_spec", "glorot_uniform",
    "init_params", "kink_margin", "loss_and_grads", "max_relative_error", "mse", "mse_grad",
    "param_layout", "param_views", "predict", "predict_invariant", "train",
]
