"""Layer-level checks: forward oracles computed by hand, backward vs central
finite differences with parameters restored after every probe."""

from __future__ import annotations

import numpy as np
import pytest

from sasv.core import NumericError
from sasv.neuralnet import (BN_EPS, BN_MOMENTUM, LEAKY_SLOPE, BatchNormLayer,
                            CosineHead, GradientTape, LeakyReluLayer, LinearLayer,
                            xavier_uniform)

_H = 1e-6


def _fd(loss_fn, arr: np.ndarray, h: float = _H) -> np.ndarray:
    out = np.empty(arr.size)
    flat = arr.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        out[i] = (up - down) / (2.0 * h)
    return out.reshape(arr.shape)


def _assert_close(analytic: np.ndarray, numeric: np.ndarray, tol: float = 1e-6):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    assert float(np.max(np.abs(analytic - numeric) / denom)) < tol


def test_xavier_uniform_bounds():
    rng = np.random.default_rng(0)
    w = xavier_uniform(rng, 30, 20)
    limit = np.sqrt(6.0 / 50.0)
    assert w.shape == (20, 30)
    assert float(np.abs(w).max()) <= limit
    # the draw should actually use the range, not collapse near zero
    assert float(np.abs(w).max()) > 0.8 * limit


def test_linear_forward_matches_manual():
    rng = np.random.default_rng(1)
    layer = LinearLayer(rng.normal(size=(3, 4)), rng.normal(size=3))
    x = rng.normal(size=(5, 4))
    assert np.array_equal(layer.forward(x), x @ layer.weight.T + layer.bias)


def test_linear_backward_matches_fd():
    rng = np.random.default_rng(2)
    layer = LinearLayer(rng.normal(size=(2, 3)), rng.normal(size=2), name="lin")
    x = rng.normal(size=(4, 3))
    mix = rng.normal(size=(4, 2))  # fixed weights make the loss a scalar

    def loss_fn():
        return float((layer.forward(x) * mix).sum())

    tape = GradientTape()
    layer.forward(x, tape)
    gx = tape.backward(mix)
    _assert_close(layer.grads["weight"], _fd(loss_fn, layer.weight))
    _assert_close(layer.grads["bias"], _fd(loss_fn, layer.bias))
    _assert_close(gx, _fd(loss_fn, x))


def test_leaky_relu_values_and_grad():
    layer = LeakyReluLayer()
    x = np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]])
    y = layer.forward(x)
    assert np.array_equal(y, [[-2.0 * LEAKY_SLOPE, -0.5 * LEAKY_SLOPE, 0.0, 0.5, 2.0]])
    tape = GradientTape()
    assert np.array_equal(layer.forward(x, tape), y)
    gx = tape.backward(np.ones_like(x))
    assert layer.grads == {}
    # the kink at exactly zero takes the positive branch
    assert np.array_equal(gx, [[LEAKY_SLOPE, LEAKY_SLOPE, 1.0, 1.0, 1.0]])


# the signed zeros, the least subnormals, a larger subnormal and the infinities
LEAKY_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, np.inf, -np.inf]


def _assert_leaky_relu_matches_oracle(layer, x: np.ndarray) -> None:
    """The eval output, the training output and the training factor (read
    back as the input gradient of an all-ones upstream) against the formula
    the layer was first written with, bit for bit; a NaN input gives NaN."""
    factor = np.where(x >= 0.0, 1.0, LEAKY_SLOPE)
    want = x * factor
    tape = GradientTape()
    trained = layer.forward(x, tape)
    got_factor = tape.backward(np.ones_like(x))
    nan = np.isnan(x)
    for got in (layer.forward(x), trained):
        assert np.isnan(got[nan]).all()
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    assert np.array_equal(got_factor.view(np.int64), factor.view(np.int64))


def test_leaky_relu_keeps_the_bits_of_the_where_formula():
    x = np.random.default_rng(12).standard_normal((256, 256))  # the scoring shape
    x[0, :len(LEAKY_EDGES)] = LEAKY_EDGES
    x[1, :3] = [np.nan, -np.nan, 1e308]
    _assert_leaky_relu_matches_oracle(LeakyReluLayer(), x)


class _StrictLeakyRelu(LeakyReluLayer):
    """A planted bug: the kink at zero taken on the negative branch, in the
    forward and in the backward; the tape keeps the input, as the layer's."""

    def forward(self, x, tape=None):
        if tape is not None:
            tape.push(self, x)
        return np.where(x > 0.0, x, LEAKY_SLOPE * x)

    def backward(self, x, gy):
        return gy * np.maximum(x > 0.0, LEAKY_SLOPE)


def test_leaky_relu_oracle_catches_the_kink_on_the_negative_branch():
    with pytest.raises(AssertionError):
        _assert_leaky_relu_matches_oracle(_StrictLeakyRelu(), np.array([[-0.0]]))


def test_batch_norm_train_forward_matches_manual():
    rng = np.random.default_rng(3)
    layer = BatchNormLayer(4)
    layer.gamma[:] = rng.normal(size=4)
    layer.beta[:] = rng.normal(size=4)
    x = rng.normal(size=(6, 4))
    y = layer.forward(x, GradientTape())
    mean = x.mean(axis=0)
    var = x.var(axis=0)  # biased, divisor n
    manual = layer.gamma * (x - mean) / np.sqrt(var + BN_EPS) + layer.beta
    assert np.allclose(y, manual, rtol=1e-15, atol=1e-15)


def test_batch_norm_running_stat_update():
    rng = np.random.default_rng(4)
    layer = BatchNormLayer(3)
    x1 = rng.normal(size=(5, 3))
    layer.forward(x1, GradientTape())
    m = BN_MOMENTUM
    exp_mean = m * x1.mean(axis=0)  # running stats start at (0, 1)
    exp_var = (1.0 - m) * 1.0 + m * x1.var(axis=0)
    assert np.allclose(layer.running_mean, exp_mean, rtol=1e-15, atol=1e-15)
    assert np.allclose(layer.running_var, exp_var, rtol=1e-15, atol=1e-15)
    x2 = rng.normal(size=(7, 3))
    layer.forward(x2, GradientTape())
    exp_mean = (1.0 - m) * exp_mean + m * x2.mean(axis=0)
    assert np.allclose(layer.running_mean, exp_mean, rtol=1e-14, atol=1e-15)


def test_batch_norm_eval_is_pure():
    rng = np.random.default_rng(5)
    layer = BatchNormLayer(3)
    layer.forward(rng.normal(size=(8, 3)), GradientTape())  # give the stats some state
    mean_before = layer.running_mean.copy()
    var_before = layer.running_var.copy()
    x = rng.normal(size=(4, 3))
    y1 = layer.forward(x)
    y2 = layer.forward(x)
    assert np.array_equal(y1, y2)
    assert np.array_equal(layer.running_mean, mean_before)
    assert np.array_equal(layer.running_var, var_before)
    manual = layer.gamma * (x - mean_before) / np.sqrt(var_before + BN_EPS) + layer.beta
    assert np.allclose(y1, manual, rtol=1e-15, atol=1e-15)


def test_batch_norm_single_row_batch_rejected():
    layer = BatchNormLayer(3)
    with pytest.raises(NumericError, match="at least 2 rows"):
        layer.forward(np.ones((1, 3)), GradientTape())
    layer.forward(np.ones((1, 3)))  # eval mode is fine with one row


def test_batch_norm_variance_overflow_is_named():
    layer = BatchNormLayer(2)
    x = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])
    layer.forward(x, GradientTape())
    mean_before, var_before = layer.running_mean.copy(), layer.running_var.copy()
    # finite inputs whose squared deviations overflow
    with pytest.raises(NumericError, match="batch norm variance overflowed"):
        layer.forward(x * 1e160, GradientTape())
    assert np.array_equal(layer.running_mean, mean_before)
    assert np.array_equal(layer.running_var, var_before)


def test_batch_norm_backward_matches_fd():
    rng = np.random.default_rng(6)
    layer = BatchNormLayer(3, name="bn")
    layer.gamma[:] = rng.normal(size=3)
    layer.beta[:] = rng.normal(size=3)
    x = rng.normal(size=(5, 3))
    mix = rng.normal(size=(5, 3))

    def loss_fn():
        return float((layer.forward(x, GradientTape()) * mix).sum())

    tape = GradientTape()
    layer.forward(x, tape)
    gx = tape.backward(mix)
    _assert_close(layer.grads["gamma"], _fd(loss_fn, layer.gamma))
    _assert_close(layer.grads["beta"], _fd(loss_fn, layer.beta))
    # input gradient picks up the batch-statistics terms, the hard part
    _assert_close(gx, _fd(loss_fn, x), tol=1e-5)


def test_cosine_head_forward_matches_core_cosine():
    from sasv.core import cosine

    rng = np.random.default_rng(7)
    head = CosineHead(rng.normal(size=6))
    e = rng.normal(size=(5, 6))
    scores = head.forward(e)
    for i in range(5):
        assert abs(scores[i] - cosine(e[i], head.direction)) < 1e-15


def test_cosine_head_backward_matches_fd():
    rng = np.random.default_rng(8)
    head = CosineHead(rng.normal(size=4), name="head")
    e = rng.normal(size=(6, 4))
    mix = rng.normal(size=6)

    def loss_fn():
        return float((head.forward(e) * mix).sum())

    tape = GradientTape()
    head.forward(e, tape)
    ge = tape.backward(mix)
    _assert_close(head.grads["direction"], _fd(loss_fn, head.direction))
    _assert_close(ge, _fd(loss_fn, e))


def test_cosine_head_zero_norm_raises():
    head = CosineHead(np.zeros(3))
    with pytest.raises(NumericError):
        head.forward(np.ones((2, 3)))
    head = CosineHead(np.ones(3))
    with pytest.raises(NumericError):
        head.forward(np.zeros((2, 3)))


@pytest.mark.parametrize("row", [[1e200, 1.0, 1.0], [np.inf, 1.0, 1.0], [np.nan, 1.0, 1.0],
                                 [1e-200, 0.0, 0.0]],
                         ids=["overflow", "inf", "nan", "underflow"])
def test_cosine_head_refuses_norms_out_of_range(row):
    # e @ e overflows, is not finite or underflows to 0: each would score a
    # silent 0.0 or nan, so the head's one range test refuses it
    head = CosineHead(np.ones(3))
    e = np.array([[0.5, 1.0, -2.0], row])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="zero-norm or overflowing"):
        head.forward(e)


def test_tape_requires_a_recorded_forward():
    tape = GradientTape()
    with pytest.raises(RuntimeError):
        tape.backward(np.ones(3))
    layer = LeakyReluLayer()
    layer.forward(np.ones((2, 3)), tape)
    tape.backward(np.ones((2, 3)))
    with pytest.raises(RuntimeError):  # the stack is consumed, not reusable
        tape.backward(np.ones((2, 3)))
