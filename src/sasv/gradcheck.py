"""Central finite-difference verification of the analytic gradients.

Each check builds a scalar loss, takes the hand-written backward pass, then
perturbs parameters one coordinate at a time by +-FD_STEP and compares. Relative
error uses max(|analytic|, |numeric|, 1e-8) in the denominator so near-zero
gradients do not blow up the ratio.
"""

from __future__ import annotations

import numpy as np

from .loss import OneClassSoftmaxConfig, one_class_softmax
from .model import InputMode, IntegrationModel
from .neuralnet import (BatchNormLayer, CosineHead, GradientTape, LeakyReluLayer,
                        LinearLayer)

FD_STEP = 1e-5
REL_TOL = 1e-4
KINK_MARGIN = 1e-3  # a layer check's inputs sit this far from the leaky-relu corner
COMPOSITE_KINK_MARGIN = 1e-4  # and the composite check's pre-activations this far
COMPOSITE_SV_DIM = COMPOSITE_CM_DIM = 8
COMPOSITE_BATCH = 6
COMPOSITE_COORDS = 48  # coordinates sampled per parameter of the composite by default


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def check_gradients(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                    loss_fn, coords_per_param: int | None = None,
                    rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic gradients and central differences.

    coords_per_param=None sweeps every coordinate; otherwise that many are
    sampled per parameter from rng. Parameters are restored exactly after
    each probe.
    """
    worst = 0.0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        gflat = np.asarray(grads[name]).reshape(-1)
        size = flat.size
        if coords_per_param is None or coords_per_param >= size:
            coords = range(size)
        else:
            coords = rng.choice(size, size=coords_per_param, replace=False)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            up = loss_fn()
            flat[idx] = orig - FD_STEP
            down = loss_fn()
            flat[idx] = orig
            numeric = (up - down) / (2.0 * FD_STEP)
            worst = max(worst, relative_error(float(gflat[idx]), numeric))
    return worst


def _away_from_kink(x: np.ndarray) -> np.ndarray:
    # keep finite differencing off the leaky-relu corner
    return np.where(np.abs(x) < KINK_MARGIN, KINK_MARGIN, x)


def _check_layer(layer, x: np.ndarray, upstream: np.ndarray, loss_fn) -> float:
    # the layer's own training-mode backward of `upstream`, against loss_fn's
    # central differences in each of its parameters and in its input x
    tape = GradientTape()
    layer.forward(x, tape)
    gx = tape.backward(upstream)
    return check_gradients({**layer.parameters(), "x": x}, {**layer.grads, "x": gx},
                           loss_fn)


def check_linear(seed: int) -> float:
    rng = np.random.default_rng(seed)
    layer = LinearLayer.init(rng, 5, 7)
    x = rng.normal(size=(4, 5))
    upstream = rng.normal(size=(4, 7))
    return _check_layer(layer, x, upstream,
                        lambda: float((layer.forward(x) * upstream).sum()))


def check_batch_norm(seed: int) -> float:
    rng = np.random.default_rng(seed)
    layer = BatchNormLayer(6)
    layer.gamma[:] = rng.normal(size=6)
    layer.beta[:] = rng.normal(size=6)
    x = rng.normal(size=(5, 6))
    upstream = rng.normal(size=(5, 6))
    return _check_layer(layer, x, upstream,
                        lambda: float((layer.forward(x, GradientTape()) * upstream).sum()))


def check_leaky_relu(seed: int) -> float:
    rng = np.random.default_rng(seed)
    layer = LeakyReluLayer()
    x = _away_from_kink(rng.normal(size=(4, 6)))
    upstream = rng.normal(size=(4, 6))
    return _check_layer(layer, x, upstream,
                        lambda: float((layer.forward(x) * upstream).sum()))


def check_cosine_head(seed: int) -> float:
    rng = np.random.default_rng(seed)
    layer = CosineHead.init(rng, 6)
    e = rng.normal(size=(4, 6))
    upstream = rng.normal(size=4)
    return _check_layer(layer, e, upstream, lambda: float(layer.forward(e) @ upstream))


LAYER_CHECKS = {"linear": check_linear, "batch_norm": check_batch_norm,
                "leaky_relu": check_leaky_relu, "cosine_head": check_cosine_head}
COMPONENTS = (*LAYER_CHECKS, "composite")  # the rows of gradcheck_report.csv, in order


def _composite_inputs(model: IntegrationModel, rng: np.random.Generator):
    # redraw until no pre-activation sits within COMPOSITE_KINK_MARGIN of a
    # leaky-relu kink, otherwise the central difference straddles the corner
    for _ in range(100):
        x = rng.normal(size=(COMPOSITE_BATCH, model.input_dim))
        h = model.bn.forward(x, GradientTape())
        closest = np.inf
        for layer in model.layers[1:]:
            if isinstance(layer, LeakyReluLayer):
                closest = min(closest, float(np.abs(h).min()))
            h = layer.forward(h)
        if closest > COMPOSITE_KINK_MARGIN:
            return x
    raise RuntimeError("could not draw kink-free composite inputs")


def check_composite(seed: int, coords_per_param: int | None = COMPOSITE_COORDS) -> float:
    """Full integration model plus the one-class loss, every parameter checked
    (sampled coordinates by default; the real 256/128/64 stack is ~50k params).
    The analytic gradients come from IntegrationModel.training_loss, the step
    that training runs."""
    rng = np.random.default_rng(seed)
    model = IntegrationModel(InputMode.CONCAT, COMPOSITE_SV_DIM, COMPOSITE_CM_DIM, rng)
    x = _composite_inputs(model, rng)
    s_sv = rng.uniform(-1.0, 1.0, size=COMPOSITE_BATCH)
    z = rng.integers(0, 2, size=COMPOSITE_BATCH)
    loss_cfg = OneClassSoftmaxConfig()

    def loss_fn():
        s_spf = model.spoof_scores(x, GradientTape())
        value, _ = one_class_softmax(loss_cfg, model.fuse(s_sv, s_spf), z)
        return value

    model.training_loss(x, s_sv, z, loss_cfg)
    return check_gradients(model.params.values, model.params.grads, loss_fn,
                           coords_per_param=coords_per_param, rng=rng)


def run_gradient_checks(seeds=range(10),
                        coords_per_param: int | None = COMPOSITE_COORDS) -> dict[str, float]:
    """Worst relative error per component across the given seeds."""
    worst = {name: 0.0 for name in COMPONENTS}
    for seed in seeds:
        for name, fn in LAYER_CHECKS.items():
            worst[name] = max(worst[name], fn(seed))
        worst["composite"] = max(
            worst["composite"], check_composite(seed, coords_per_param))
    return worst
