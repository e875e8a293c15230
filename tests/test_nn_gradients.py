"""Backpropagation checked against central finite differences."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from concealab.nn import (NetworkSpec, TrainConfig, detector_conv_spec,
                          detector_dense_spec, detector_lstm_spec, forward,
                          generator_spec, glorot_uniform, init_params,
                          loss_and_grads, lstm, mse, mse_grad, param_layout, predict)
from concealab.nn.conv import _taps
from concealab.nn.ops import IN_PLACE, apply_activation
from gradcheck import finite_difference_gradients, full_kernel, kink_margin, max_relative_error


def _check(spec, seed, batch=4, tol=1e-4, dropout_mask=None):
    rng = np.random.default_rng(seed + 1000)
    params = init_params(spec, seed)
    X = rng.uniform(0.1, 0.9, size=(batch, spec.window, spec.channels))
    Y = rng.uniform(0.1, 0.9, size=(batch, spec.channels))
    _, grads = loss_and_grads(spec, params, X, Y, dropout_mask=dropout_mask)
    num = finite_difference_gradients(spec, params, X, Y, dropout_mask=dropout_mask)
    err = max_relative_error(grads, num)
    assert err < tol, f"{spec.kind} seed {seed}: rel err {err:.3e}"


def test_dense_gradients_match_finite_differences():
    for seed in range(8):
        _check(detector_dense_spec(5), seed)


def test_dense_generator_gradients():
    for seed in range(4):
        _check(generator_spec(4), seed)


def test_lstm_gradients_match_finite_differences():
    for seed in range(8):
        _check(detector_lstm_spec(4, window=5), seed)


def test_conv_gradients_match_finite_differences():
    for seed in range(8):
        spec = detector_conv_spec(4, window=4, filters=(3, 5), dropout=0.0)
        _check(spec, seed)


def test_conv_gradients_with_dropout_mask():
    spec = detector_conv_spec(4, window=4, filters=(3, 5), dropout=0.5)
    rng = np.random.default_rng(3)
    params = init_params(spec, 3)
    flat = 1 * 5  # window 4 pooled twice -> length 1, last filter bank 5 wide
    mask = (rng.random((2, flat)) < 0.5) / 0.5
    _check(spec, 3, batch=2, dropout_mask=mask)


def test_odd_kernel_conv_gradients():
    spec = NetworkSpec("conv", channels=3, window=6, hidden=(4,),
                       hidden_activation="relu", output_activation="sigmoid",
                       kernel=3, pool=2, dropout=0.0)
    for seed in range(3):
        _check(spec, seed)


def test_mse_matches_hand_computation():
    pred = np.array([[2.0, -1.0, 3.0]])
    target = np.zeros((1, 3))
    assert mse(pred, target) == pytest.approx(14.0 / 3.0)
    g = mse_grad(pred, target)
    np.testing.assert_allclose(g, 2.0 * pred / 3.0)


@given(st.data(), array_shapes(min_dims=1, max_dims=2, max_side=300))
@settings(max_examples=200, deadline=None)
def test_mse_is_the_mean_of_squares_bit_for_bit(data, shape):
    values = st.floats(-1e6, 1e6, allow_nan=False)
    pred = data.draw(arrays(np.float64, shape, elements=values))
    target = data.draw(arrays(np.float64, shape, elements=values))
    d = pred - target
    assert mse(pred, target) == float(np.mean(d * d))


def test_mse_grad_is_gradient_of_mse():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=(3, 4))
    target = rng.normal(size=(3, 4))
    g = mse_grad(pred, target)
    h = 1e-6
    for idx in np.ndindex(pred.shape):
        bumped = pred.copy()
        bumped[idx] += h
        dipped = pred.copy()
        dipped[idx] -= h
        num = (mse(bumped, target) - mse(dipped, target)) / (2 * h)
        assert abs(num - g[idx]) < 1e-6


def test_glorot_limit_from_fan_sizes():
    rng = np.random.default_rng(0)
    w = glorot_uniform(rng, (2, 4), fan_in=2, fan_out=4)
    # limit sqrt(6 / (2 + 4)) = 1.0
    assert np.all(np.abs(w) <= 1.0)
    big = glorot_uniform(np.random.default_rng(0), (200, 300), 200, 300)
    limit = np.sqrt(6.0 / 500.0)
    assert np.all(np.abs(big) <= limit)
    assert np.abs(big).max() > 0.9 * limit  # actually fills the range


def test_init_is_seed_deterministic():
    spec = detector_dense_spec(6)
    a = init_params(spec, 42)
    b = init_params(spec, 42)
    c = init_params(spec, 43)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_biases_start_at_zero():
    for spec in (detector_dense_spec(5), detector_lstm_spec(5),
                 detector_conv_spec(5)):
        params = init_params(spec, 0)
        for name, arr in params.items():
            if name.startswith(("b", "cb")) or name == "bd":
                np.testing.assert_array_equal(arr, 0.0)


def test_predict_output_shape_and_range():
    for spec in (detector_dense_spec(5), detector_lstm_spec(5, window=4),
                 detector_conv_spec(5, window=4, filters=(3, 4), dropout=0.0)):
        params = init_params(spec, 0)
        X = np.random.default_rng(0).uniform(size=(7, spec.window, 5))
        out = predict(spec, params, X)
        assert out.shape == (7, 5)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)  # sigmoid head


def test_kink_margin_infinite_for_smooth_nets():
    rng = np.random.default_rng(0)
    for spec in (detector_dense_spec(5), detector_lstm_spec(5, window=4),
                 generator_spec(5)):
        params = init_params(spec, 0)
        X = rng.uniform(size=(3, spec.window, spec.channels))
        assert kink_margin(spec, params, X) == np.inf


def test_kink_margin_zero_at_relu_and_pool_boundaries():
    spec = detector_conv_spec(3, window=4, filters=(2, 3), dropout=0.0)
    X = np.random.default_rng(1).uniform(0.1, 0.9, size=(2, 4, 3))

    zeroed = init_params(spec, 0)
    for k in zeroed:
        zeroed[k] = np.zeros_like(zeroed[k])
    assert kink_margin(spec, zeroed, X) == 0.0  # every preactivation on the kink

    # positive constant bias: relu margin is the bias, but every pool group
    # ties, so the pool term drives the margin to zero
    biased = {k: np.zeros_like(v) for k, v in init_params(spec, 0).items()}
    biased["cb0"] = biased["cb0"] + 0.7
    assert kink_margin(spec, biased, X) == 0.0


def test_kink_margin_matches_direct_recomputation():
    spec = detector_conv_spec(4, window=4, filters=(3, 5), dropout=0.0)
    rng = np.random.default_rng(7)
    params = init_params(spec, 7)
    X = rng.uniform(0.1, 0.9, size=(3, 4, 4))

    expect = np.inf
    a = X
    for i in range(len(spec.hidden)):
        W, b = full_kernel(spec, params, i), params[f"cb{i}"]
        length = a.shape[1]
        pad_l = (spec.kernel - 1) // 2
        ap = np.pad(a, ((0, 0), (pad_l, spec.kernel - 1 - pad_l), (0, 0)))
        z = sum(ap[:, dt:dt + length, :] @ W[dt] for dt in range(spec.kernel)) + b
        expect = min(expect, np.abs(z).min())
        h = np.maximum(z, 0.0)
        if length >= spec.pool:
            groups = length // spec.pool
            hr = h[:, :groups * spec.pool, :].reshape(3, groups, spec.pool, -1)
            top2 = np.sort(hr, axis=2)[:, :, -2:, :]
            live = top2[:, :, 1, :] > 0
            if live.any():
                expect = min(expect, (top2[:, :, 1, :] - top2[:, :, 0, :])[live].min())
            a = hr.max(axis=2)
        else:
            a = h

    assert kink_margin(spec, params, X) == pytest.approx(expect, rel=1e-12)
    assert 0.0 < expect < np.inf


def _conv_forward_padded(spec, params, X):
    """Same-padded conv stack built with np.pad, one stacked matmul per tap
    of the whole kernel, the taps that only read padding weighted zero."""
    a = X
    for i in range(len(spec.hidden)):
        W, b = full_kernel(spec, params, i), params[f"cb{i}"]
        length = a.shape[1]
        pad_l = (spec.kernel - 1) // 2
        ap = np.pad(a, ((0, 0), (pad_l, spec.kernel - 1 - pad_l), (0, 0)))
        z = sum(ap[:, dt:dt + length, :] @ W[dt] for dt in range(spec.kernel)) + b
        h = np.maximum(z, 0.0)
        if length >= spec.pool:
            groups = length // spec.pool
            a = h[:, :groups * spec.pool, :].reshape(X.shape[0], groups, spec.pool, -1).max(axis=2)
        else:
            a = h
    flat = a.reshape(X.shape[0], -1)
    return apply_activation("sigmoid", flat @ params["W_out"] + params["b_out"])


def test_pad_free_conv_matches_padded_reference():
    rng = np.random.default_rng(5)
    for kernel in range(1, 5):
        for window in range(1, 6):
            for pool in (2, window + 1):  # pooling on (while long enough) and off
                spec = NetworkSpec("conv", channels=3, window=window, hidden=(4, 5),
                                   hidden_activation="relu", output_activation="sigmoid",
                                   kernel=kernel, pool=pool, dropout=0.0)
                params = init_params(spec, kernel * 10 + window)
                for k in params:
                    if k.startswith("cb"):
                        params[k] += rng.uniform(-0.2, 0.2, size=params[k].shape)
                X = rng.uniform(size=(6, window, 3))
                # the per-tap products keep the padded shapes, so the bits agree
                np.testing.assert_array_equal(
                    predict(spec, params, X).view(np.int64),
                    _conv_forward_padded(spec, params, X).view(np.int64))


def test_stored_taps_are_the_taps_that_read_data():
    rng = np.random.default_rng(6)
    specs = [NetworkSpec("conv", channels=3, window=window, hidden=(4, 5),
                         hidden_activation="relu", output_activation="sigmoid",
                         kernel=kernel, pool=pool, dropout=0.0)
             for kernel in range(1, 5) for window in range(1, 6) for pool in (2, window + 1)]
    specs += [detector_conv_spec(4, window=4, filters=(3, 5)), detector_conv_spec(17)]
    for spec in specs:
        shapes = dict(param_layout(spec))
        X = rng.uniform(size=(2, spec.window, spec.channels))
        _, cache = forward(spec, init_params(spec, 0), X)
        for i, entry in enumerate(cache["layers"]):  # the lengths the pass itself sees
            live = len(list(_taps(spec.kernel, entry["length"])))
            assert shapes[f"cW{i}"][0] == live, (spec, i)
    assert sum(np.prod(s) for s in dict(param_layout(detector_conv_spec(17))).values()) == 47_953


def test_conv_init_keeps_the_live_taps_of_the_whole_draw():
    """Each bank is drawn whole, in layer order and with the whole kernel's
    fans, so the stored weights are those a full-kernel layout would hold."""
    spec = detector_conv_spec(17)
    params = init_params(spec, 4)
    rng = np.random.default_rng(4)
    c_in = spec.channels
    for i, c_out in enumerate(spec.hidden):
        k = spec.kernel
        full = glorot_uniform(rng, (k, c_in, c_out), k * c_in, k * c_out)
        kept = params[f"cW{i}"].shape[0]  # kernel 2: tap 0 is the one live at length 1
        np.testing.assert_array_equal(params[f"cW{i}"], full[:kept])
        c_in = c_out
    np.testing.assert_array_equal(params["W_out"], glorot_uniform(rng, (256, 17), 256, 17))


def test_conv_inference_holds_about_one_layer_at_a_time():
    spec = detector_conv_spec(17)
    params = init_params(spec, 0)
    X = np.random.default_rng(0).uniform(size=(2000, spec.window, 17))
    _, cache = forward(spec, params, X[:1])
    largest = max(entry["z"].size for entry in cache["layers"]) * X.shape[0] * 8
    predict(spec, params, X[:8])
    tracemalloc.start()
    try:
        predict(spec, params, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * largest, f"peak {peak} B is {peak / largest:.2f}x the largest layer"


def _sigmoid_where(x):
    """The sigmoid as it was written before its numerator became a maximum."""
    x = np.asarray(x, dtype=np.float64)
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0.0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _sigmoid_inputs():
    """Normal values at several scales, then ±0, ±inf, ±nan, subnormals and
    the edges of exp's range."""
    rng = np.random.default_rng(11)
    nan = np.float64("nan")
    special = np.array([0.0, -0.0, np.inf, -np.inf, nan, -nan, 5e-324, -5e-324,
                        2.2e-308, -2.2e-308, 745.0, -745.0, 746.0, -746.0, 709.8, -709.8])
    return np.concatenate([rng.normal(scale=s, size=50_000) for s in (1e-3, 1, 5, 30, 300, 1e3)]
                          + [special])


def test_sigmoid_keeps_the_bits_of_its_where_form():
    x = _sigmoid_inputs()
    before = x.copy()
    np.testing.assert_array_equal(apply_activation("sigmoid", x).view(np.int64),
                                  _sigmoid_where(x).view(np.int64))
    np.testing.assert_array_equal(x.view(np.int64), before.view(np.int64))


def test_in_place_sigmoid_writes_the_same_bits_into_its_argument():
    x = _sigmoid_inputs()
    z = x.copy()
    assert IN_PLACE["sigmoid"](z) is z
    np.testing.assert_array_equal(z.view(np.int64), _sigmoid_where(x).view(np.int64))


def _lstm_step_allocating(params, x, h, c):
    """lstm.step as it was before its gates were worked out in place."""
    hs = h.shape[1]
    z = x @ params["Wx"] + h @ params["Wh"] + params["b"]
    act = _sigmoid_where(z)
    g = np.tanh(z[:, 2 * hs:3 * hs], out=act[:, 2 * hs:3 * hs])
    c = act[:, hs:2 * hs] * c
    c += act[:, :hs] * g
    tc = np.tanh(c)
    return act[:, 3 * hs:] * tc, c, act, tc


@pytest.mark.parametrize("state_rows, input_rows", [(64, 64), (1, 64), (8, 1)])
def test_lstm_step_keeps_the_bits_of_the_allocating_cell(state_rows, input_rows):
    """A batch, a one-row state against a batch of inputs (the oracle) and
    an (m+1)-row ring against one input row (the stream)."""
    rng = np.random.default_rng(4)
    params = dict(init_params(detector_lstm_spec(17), 3))
    params["b"] = rng.normal(size=params["b"].shape)
    x = rng.uniform(size=(input_rows, 17))
    h, c = rng.normal(scale=2.0, size=(2, state_rows, 17))
    for got, want in zip(lstm.step(params, x, h, c), _lstm_step_allocating(params, x, h, c)):
        assert got.shape == (max(state_rows, input_rows),) + got.shape[1:]
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_predict_equals_training_forward_bit_for_bit():
    rng = np.random.default_rng(2)
    for spec in (detector_dense_spec(5, window=3), detector_lstm_spec(5, window=4),
                 detector_conv_spec(5, window=4, filters=(3, 4), dropout=0.2)):
        params = init_params(spec, 1)
        X = rng.uniform(size=(9, spec.window, 5))
        out, cache = forward(spec, params, X)
        assert cache  # the training pass keeps what backprop needs
        np.testing.assert_array_equal(predict(spec, params, X).view(np.int64),
                                      out.view(np.int64))


def _lstm_forward_monolithic(spec, params, X):
    """The LSTM pass with the cell update written inline, as it was before
    `step` and `readout` were factored out; returns (out, gates, hs)."""
    batch, steps, _ = X.shape
    hs_size = spec.hidden[0]
    h = np.zeros((batch, hs_size))
    c = np.zeros((batch, hs_size))
    gates, hs = [], [h]
    for t in range(steps):
        z = X[:, t, :] @ params["Wx"] + h @ params["Wh"] + params["b"]
        act = apply_activation("sigmoid", z)
        np.tanh(z[:, 2 * hs_size:3 * hs_size], out=act[:, 2 * hs_size:3 * hs_size])
        i, f, g, o = (act[:, k * hs_size:(k + 1) * hs_size] for k in range(4))
        c_prev = c
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        gates.append((act, c_prev, tc))
        hs.append(h)
    return apply_activation("sigmoid", h @ params["Wd"] + params["bd"]), gates, hs


def test_lstm_forward_matches_monolithic_cell_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    spec = detector_lstm_spec(6, window=8)
    params = init_params(spec, 3)
    params["b"] += rng.uniform(-0.5, 0.5, size=params["b"].shape)
    params["bd"] += rng.uniform(-0.5, 0.5, size=params["bd"].shape)
    X = rng.uniform(size=(32, spec.window, 6))
    out, cache = forward(spec, params, X)
    ref_out, ref_gates, ref_hs = _lstm_forward_monolithic(spec, params, X)

    def bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    np.testing.assert_array_equal(bits(out), bits(ref_out))
    for got, ref in zip(cache["gates"], ref_gates):
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(bits(a), bits(b))
    for a, b in zip(cache["hs"], ref_hs):
        np.testing.assert_array_equal(bits(a), bits(b))
