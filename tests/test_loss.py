from __future__ import annotations

import math

import numpy as np
import pytest

from sasv.core import DataError, NumericError
from sasv.loss import OneClassSoftmaxConfig, one_class_softmax, sigmoid, softplus

CFG = OneClassSoftmaxConfig()  # scale 20, margin_real 0.9, margin_fake 0.2

# frozen against a 40-digit mpmath evaluation of softplus(scale*(margin-s)*sign)
KNOWN_POINTS = [
    # (score, z, loss, grad) for a batch of one
    (0.9, 0, 0.6931471805599453, -10.0),                      # at the real margin, arg 0
    (1.2, 0, 0.0024756851377304495, -0.049452463132695487),   # arg -6, well classified
    (0.2, 1, 0.6931471805599453, 10.0),                       # at the fake margin
    (0.7, 1, 10.000045398899217, 19.999092042625951),         # arg +10, badly classified
]


@pytest.mark.parametrize("score,z,want_loss,want_grad", KNOWN_POINTS)
def test_known_values(score, z, want_loss, want_grad):
    loss, grad = one_class_softmax(CFG, [score], [z])
    assert math.isclose(loss, want_loss, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(float(grad[0]), want_grad, rel_tol=0, abs_tol=1e-12)


def test_batch_is_mean_and_grad_scales():
    l1, g1 = one_class_softmax(CFG, [1.2], [0])
    l2, g2 = one_class_softmax(CFG, [0.7], [1])
    loss, grad = one_class_softmax(CFG, [1.2, 0.7], [0, 1])
    assert math.isclose(loss, 0.5 * (l1 + l2), rel_tol=0, abs_tol=1e-15)
    assert math.isclose(float(grad[0]), 0.5 * float(g1[0]), rel_tol=0, abs_tol=1e-15)
    assert math.isclose(float(grad[1]), 0.5 * float(g2[0]), rel_tol=0, abs_tol=1e-15)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    scores = rng.uniform(-1.5, 1.5, size=40)
    z = rng.integers(0, 2, size=40)
    _, grad = one_class_softmax(CFG, scores, z)
    h = 1e-6
    for i in range(scores.size):
        up = scores.copy()
        down = scores.copy()
        up[i] += h
        down[i] -= h
        fd = (one_class_softmax(CFG, up, z)[0] - one_class_softmax(CFG, down, z)[0]) / (2 * h)
        err = abs(float(grad[i]) - fd)
        # the quotient carries cancellation noise of roughly eps*loss/h,
        # hence the absolute slack for small gradients
        assert err < max(5e-9, 1e-5 * max(abs(float(grad[i])), abs(fd)))


def test_matches_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50

    def oracle(s, z, scale, m_real, m_fake):
        sign = 1 if z == 0 else -1
        margin = m_real if z == 0 else m_fake
        a = mpmath.mpf(scale) * (mpmath.mpf(margin) - mpmath.mpf(s)) * sign
        return float(mpmath.log1p(mpmath.exp(a)) if a <= 0 else a + mpmath.log1p(mpmath.exp(-a)))

    rng = np.random.default_rng(1)
    for _ in range(300):
        z = int(rng.integers(0, 2))
        scale = float(rng.uniform(0.5, 100.0))
        m_real = float(rng.uniform(-2.0, 2.0))
        m_fake = float(rng.uniform(-2.0, 2.0))
        # pick the score from a target argument so |arg| sweeps up to 200
        arg = float(rng.uniform(-200.0, 200.0))
        sign = 1.0 if z == 0 else -1.0
        margin = m_real if z == 0 else m_fake
        s = margin - arg / (scale * sign)
        cfg = OneClassSoftmaxConfig(scale=scale, margin_real=m_real, margin_fake=m_fake)
        loss, _ = one_class_softmax(cfg, [s], [z])
        assert abs(loss - oracle(s, z, scale, m_real, m_fake)) < 1e-9


def test_extreme_arguments_do_not_overflow():
    cfg = OneClassSoftmaxConfig(scale=100.0)
    with np.errstate(over="raise"):
        # arg = -590: loss decays to exp(arg); arg = +510: loss is linear in arg
        loss_low, grad_low = one_class_softmax(cfg, [6.8], [0])
        loss_high, grad_high = one_class_softmax(cfg, [-4.2], [0])
    assert 0.0 <= loss_low < 1e-250 and abs(float(grad_low[0])) < 1e-250
    assert math.isclose(loss_high, 100.0 * (0.9 + 4.2), rel_tol=1e-15)
    assert math.isclose(float(grad_high[0]), -100.0, rel_tol=1e-15)


def test_validation_errors():
    with pytest.raises(DataError, match="non-empty"):
        one_class_softmax(CFG, [], [])
    with pytest.raises(DataError, match="matching shapes"):
        one_class_softmax(CFG, [0.5, 0.5], [0])
    with pytest.raises(DataError, match="class indices"):
        one_class_softmax(CFG, [0.5], [2])
    with pytest.raises(NumericError, match="non-finite"):
        one_class_softmax(CFG, [float("inf")], [0])
    with pytest.raises(DataError, match="scale"):
        OneClassSoftmaxConfig(scale=0.0)


def test_softplus_and_sigmoid_identities():
    a = np.linspace(-30.0, 30.0, 201)
    # softplus(a) - softplus(-a) = a, sigmoid(a) + sigmoid(-a) = 1
    assert np.allclose(softplus(a) - softplus(-a), a, rtol=0, atol=1e-12)
    assert np.allclose(sigmoid(a) + sigmoid(-a), 1.0, rtol=0, atol=1e-15)
    assert np.all(np.diff(sigmoid(a)) > 0.0)
    # softplus' = sigmoid
    h = 1e-6
    fd = (softplus(a + h) - softplus(a - h)) / (2 * h)
    assert np.allclose(fd, sigmoid(a), rtol=0, atol=1e-5)


def _masked_softplus(a):
    """softplus as it was computed before it went branch-free: one formula per sign."""
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    pos = a > 0.0
    out[pos] = a[pos] + np.log1p(np.exp(-a[pos]))
    out[~pos] = np.log1p(np.exp(a[~pos]))
    return out


def _masked_sigmoid(a):
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    pos = a >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def test_branch_free_softplus_and_sigmoid_keep_the_masked_bits():
    rng = np.random.default_rng(4)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 710.0, -745.2,
                        5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, 36.8, -36.8])
    for a in (rng.normal(scale=20.0, size=9600), rng.uniform(-900.0, 900.0, size=999),
              special, special.reshape(3, 5), np.float64(-3.5)):
        for got, want in ((softplus(a), _masked_softplus(a)),
                          (sigmoid(a), _masked_sigmoid(a))):
            assert got.shape == np.shape(a)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
