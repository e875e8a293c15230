"""Optimizer and training-loop behavior."""
import numpy as np
import pytest

from concealab.errors import NumericError, SpecError
from concealab.nn import (Adam, TrainConfig, detector_dense_spec, generator_spec,
                          init_params, mse, predict, predict_invariant, train)
from concealab.nn.ops import sigmoid


def _toy_data(n_rows=120, channels=3, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.2, 0.8, size=(n_rows, channels))
    X = base[:, None, :]
    return X, base.copy()


def test_adam_first_step_size_is_lr():
    # with bias correction the very first update is lr * sign(grad)
    params = {"w": np.array([1.0, -2.0])}
    opt = Adam(params)
    grads = {"w": np.array([0.5, -3.0])}
    opt.step(params, grads, lr=0.01)
    np.testing.assert_allclose(params["w"], [1.0 - 0.01, -2.0 + 0.01], rtol=1e-6)


def test_adam_converges_on_quadratic():
    params = {"w": np.array([5.0, -7.0])}
    opt = Adam(params)
    for _ in range(2000):
        grads = {"w": 2.0 * params["w"]}
        opt.step(params, grads, lr=0.05)
    np.testing.assert_allclose(params["w"], [0.0, 0.0], atol=1e-3)


def test_adam_rejects_nonfinite_gradients():
    params = {"w": np.ones(2)}
    opt = Adam(params)
    with pytest.raises(NumericError):
        opt.step(params, {"w": np.array([1.0, np.nan])}, lr=0.01)


def test_train_reduces_loss_on_identity_task():
    spec = detector_dense_spec(3)
    X, Y = _toy_data()
    cfg = TrainConfig(max_epochs=80, seed=0)
    params, hist = train(spec, X, Y, cfg)
    assert hist.val_loss[-1] < hist.val_loss[0]
    assert mse(predict(spec, params, X), Y) < hist.train_loss[0]


def test_contiguous_split_sizes():
    # 300 rows at a 2/3 : 1/3 ratio -> 200 train, 100 validation
    spec = detector_dense_spec(2)
    X, Y = _toy_data(300, 2)
    cfg = TrainConfig(max_epochs=1, seed=0)
    _, hist = train(spec, X, Y, cfg)
    assert hist.n_train == 200
    assert hist.n_val == 100


def test_best_snapshot_tracks_validation_minimum():
    spec = detector_dense_spec(3)
    X, Y = _toy_data(150, 3, seed=1)
    params, hist = train(spec, X, Y, TrainConfig(max_epochs=50, seed=1))
    assert hist.best_val == min(hist.val_loss)
    assert hist.val_loss[hist.best_epoch] == hist.best_val
    # returned parameters reproduce the snapshot's validation loss
    n_train = hist.n_train
    val_loss = mse(predict(spec, params, X[n_train:]), Y[n_train:])
    assert val_loss == pytest.approx(hist.best_val, rel=1e-12)


def test_best_epoch_is_the_first_validation_minimum():
    spec = detector_dense_spec(3)
    X, Y = _toy_data(150, 3, seed=2)
    _, hist = train(spec, X, Y, TrainConfig(max_epochs=60, seed=2))
    assert hist.best_val == min(hist.val_loss) == hist.val_loss[hist.best_epoch]
    # best_epoch is the first to reach it: a tie is no improvement
    assert all(v > hist.best_val for v in hist.val_loss[:hist.best_epoch])


def test_early_stopping_halts_after_patience():
    spec = detector_dense_spec(3)
    X, Y = _toy_data(90, 3, seed=3)
    cfg = TrainConfig(max_epochs=500, es_patience=3, plateau_patience=2, seed=3)
    _, hist = train(spec, X, Y, cfg)
    assert hist.epochs_run < 500
    assert hist.epochs_run - 1 - hist.best_epoch >= cfg.es_patience


def test_plateau_decays_learning_rate():
    spec = detector_dense_spec(3)
    X, _ = _toy_data(90, 3, seed=4)
    # pure-noise targets stall validation loss, so the plateau schedule fires
    Y = np.random.default_rng(99).uniform(size=(90, 3))
    cfg = TrainConfig(max_epochs=500, es_patience=8, plateau_patience=2,
                      lr_decay=0.5, seed=4)
    _, hist = train(spec, X, Y, cfg)
    assert hist.final_lr < cfg.lr


def test_lr_never_drops_below_floor():
    spec = detector_dense_spec(2)
    X, Y = _toy_data(60, 2, seed=5)
    cfg = TrainConfig(max_epochs=300, es_patience=250, plateau_patience=1,
                      lr_decay=0.1, lr_floor=1e-4, seed=5)
    _, hist = train(spec, X, Y, cfg)
    assert hist.final_lr >= cfg.lr_floor


def test_training_is_seed_deterministic():
    spec = detector_dense_spec(3)
    X, Y = _toy_data(90, 3, seed=6)
    cfg = TrainConfig(max_epochs=15, seed=7)
    p1, h1 = train(spec, X, Y, cfg)
    p2, h2 = train(spec, X, Y, cfg)
    for k in p1:
        np.testing.assert_array_equal(p1[k], p2[k])
    assert h1.val_loss == h2.val_loss


def test_train_config_validation():
    with pytest.raises(SpecError):
        TrainConfig(lr=-1.0)
    with pytest.raises(SpecError):
        TrainConfig(val_ratio=0.0)
    with pytest.raises(SpecError):
        TrainConfig(batch_size=0)


def _sigmoid_sign_split(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bits_match_sign_split_form():
    edge = [0.0, 1e-300, 37.0, 710.0, np.inf, np.nan]
    x = np.array(edge + [-v for v in edge])
    x = np.concatenate([x, np.random.default_rng(0).normal(scale=20.0, size=500)])
    got = sigmoid(x)
    np.testing.assert_array_equal(got.view(np.int64), _sigmoid_sign_split(x).view(np.int64))


def _adam_per_key(params, grads, state, lr, b1=0.9, b2=0.999, eps=1e-8):
    state["t"] += 1
    c1 = 1.0 - b1 ** state["t"]
    c2 = 1.0 - b2 ** state["t"]
    for k, g in grads.items():
        m, v = state["m"][k], state["v"][k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        params[k] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def test_flat_adam_matches_per_key_update_bit_for_bit():
    rng = np.random.default_rng(11)
    shapes = {"W": (5, 3), "b": (3,), "K": (2, 3, 4), "s": (1,), "Wd": (4, 7)}
    flat = {k: rng.normal(size=s) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in flat.items()}
    state = {"t": 0, "m": {k: np.zeros(s) for k, s in shapes.items()},
             "v": {k: np.zeros(s) for k, s in shapes.items()}}
    opt = Adam(flat)
    for step in range(200):
        # gradients arrive in another key order than the parameters
        grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shapes[k])
                 for k in reversed(shapes)}
        lr = 0.01 * 0.5 ** (step // 50)
        opt.step(flat, grads, lr)
        _adam_per_key(ref, grads, state, lr)
    for k in shapes:
        np.testing.assert_array_equal(flat[k].view(np.int64), ref[k].view(np.int64))


def test_flat_adam_updates_the_params_dict():
    spec = detector_dense_spec(3)
    params = init_params(spec, 0)
    opt = Adam(params)
    opt.step(params, {k: np.ones_like(v) for k, v in params.items()}, lr=0.1)
    np.testing.assert_allclose(params["b0"], -0.1, rtol=1e-6)  # first step: lr * sign


def test_adam_nonfinite_error_names_the_key():
    params = {"W": np.ones((2, 2)), "b": np.zeros(2), "Wd": np.ones(3)}
    before = {k: v.copy() for k, v in params.items()}
    opt = Adam(params)
    grads = {"W": np.ones((2, 2)), "b": np.ones(2), "Wd": np.array([0.0, np.inf, 1.0])}
    with pytest.raises(NumericError, match="non-finite gradient for Wd"):
        opt.step(params, grads, lr=0.01)
    for k in params:  # nothing moved
        np.testing.assert_array_equal(params[k], before[k])


@pytest.mark.parametrize("width", [5, 17, 43])
def test_invariant_product_gives_a_row_the_same_bits_in_any_batch(width):
    """Pins batch invariance on this BLAS: a row alone and the same row at
    offsets 0, 3 and 7 of batches of 2 to 2048 rows get identical bits."""
    spec = generator_spec(width)
    params = init_params(spec, seed=width)
    rng = np.random.default_rng(width)
    row = rng.uniform(-0.5, 1.5, size=(1, width))
    alone = predict_invariant(spec, params, row)[0]
    assert alone.shape == (width,)
    for batch in (2, 17, 288, 2048):
        X = rng.uniform(-0.5, 1.5, size=(batch, width))
        for offset in sorted({min(o, batch - 1) for o in (0, 3, 7)}):
            X[offset] = row[0]
            got = predict_invariant(spec, params, X)[offset]
            np.testing.assert_array_equal(got.view(np.int64), alone.view(np.int64),
                                          err_msg=f"batch {batch}, offset {offset}")
    # and it is the network's output
    np.testing.assert_allclose(predict_invariant(spec, params, X),
                               predict(spec, params, X[:, None, :]), rtol=1e-12, atol=0)
