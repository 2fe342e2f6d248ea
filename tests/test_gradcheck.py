from __future__ import annotations

import numpy as np
import pytest

from sasv import gradcheck
from sasv.model import IntegrationModel
from sasv.neuralnet import BatchNormLayer, CosineHead, LeakyReluLayer, LinearLayer


def test_relative_error_uses_guarded_denominator():
    assert gradcheck.relative_error(2.0, 1.0) == 0.5
    assert gradcheck.relative_error(0.0, 0.0) == 0.0
    # tiny disagreements near zero divide by the 1e-8 floor, not by zero
    assert gradcheck.relative_error(1e-12, 0.0) == 1e-12 / 1e-8


def test_away_from_kink_clears_the_corner():
    x = np.array([-2.0, -1e-6, 0.0, 1e-6, 2.0])
    out = gradcheck._away_from_kink(x)  # KINK_MARGIN is 1e-3
    assert np.array_equal(out, [-2.0, 1e-3, 1e-3, 1e-3, 2.0])
    assert np.all(np.abs(out) >= 1e-3)


def test_check_gradients_flags_a_planted_error():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3,))
    x = rng.normal(size=(3,))

    def loss_fn():
        return float(w @ x)

    good = gradcheck.check_gradients({"w": w}, {"w": x.copy()}, loss_fn)
    assert good < 1e-9
    bad_grad = x.copy()
    bad_grad[1] *= 1.5
    bad = gradcheck.check_gradients({"w": w}, {"w": bad_grad}, loss_fn)
    assert bad > 0.1


def test_check_gradients_restores_parameters():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(4,))
    before = w.copy()
    gradcheck.check_gradients({"w": w}, {"w": np.ones(4)},
                              lambda: float(w.sum()))
    assert np.array_equal(w, before)


def test_sampled_coordinates_are_reproducible():
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    w = np.random.default_rng(2).normal(size=(40,))
    args = ({"w": w}, {"w": np.ones(40)}, lambda: float(w.sum()))
    out_a = gradcheck.check_gradients(*args, coords_per_param=5, rng=rng_a)
    out_b = gradcheck.check_gradients(*args, coords_per_param=5, rng=rng_b)
    assert out_a == out_b


def test_component_checks_pass_individually():
    assert gradcheck.check_linear(0) < gradcheck.REL_TOL
    assert gradcheck.check_batch_norm(0) < gradcheck.REL_TOL
    assert gradcheck.check_leaky_relu(0) < gradcheck.REL_TOL
    assert gradcheck.check_cosine_head(0) < gradcheck.REL_TOL
    assert gradcheck.check_composite(0, coords_per_param=8) < gradcheck.REL_TOL


@pytest.mark.parametrize("component,layer_cls,grad", [
    ("linear", LinearLayer, "weight"),
    ("linear", LinearLayer, "bias"),
    ("linear", LinearLayer, "x"),
    ("batch_norm", BatchNormLayer, "gamma"),
    ("batch_norm", BatchNormLayer, "beta"),
    ("batch_norm", BatchNormLayer, "x"),
    ("leaky_relu", LeakyReluLayer, "x"),
    ("cosine_head", CosineHead, "direction"),
    ("cosine_head", CosineHead, "x"),
])
def test_layer_check_flags_a_planted_backward_error(monkeypatch, component, layer_cls,
                                                    grad):
    # each layer check must compare the layer's own backward: scaling one of
    # its parameter gradients, or its input gradient, must fail that check
    backward = layer_cls.backward

    def scaled(layer, cache, gy):
        gx = backward(layer, cache, gy)
        if grad == "x":
            return gx * 1.5
        layer.grads[grad][...] *= 1.5
        return gx

    monkeypatch.setattr(layer_cls, "backward", scaled)
    assert getattr(gradcheck, f"check_{component}")(0) > gradcheck.REL_TOL


def test_run_gradient_checks_covers_all_components():
    results = gradcheck.run_gradient_checks(seeds=range(2), coords_per_param=8)
    # gradcheck_report.csv writes one row per component, in this order
    assert gradcheck.COMPONENTS == ("linear", "batch_norm", "leaky_relu", "cosine_head",
                                    "composite")
    assert set(results) == set(gradcheck.COMPONENTS)
    for name, worst in results.items():
        assert worst < gradcheck.REL_TOL, name


def test_composite_audits_the_training_step(monkeypatch):
    # the audit must read its analytic gradients from the step `train` runs:
    # a wrong sv_weight gradient there must fail the composite check
    step = IntegrationModel.training_loss

    def sv_weight_negated(model, *args):
        loss = step(model, *args)
        model.params.grads["sv_weight"] *= -1.0
        return loss

    monkeypatch.setattr(IntegrationModel, "training_loss", sv_weight_negated)
    assert gradcheck.check_composite(0, coords_per_param=8) > gradcheck.REL_TOL
