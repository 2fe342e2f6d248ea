from __future__ import annotations

import csv
import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest

from sasv.baselines import CmScoreSource
from sasv.checkpoint import Checkpoint, checkpoint_from_bytes, checkpoint_to_bytes
from sasv.core import SCORE_FIELDS, DataError, NumericError, Protocol, Trial, TrialLabel
from sasv.loss import OneClassSoftmaxConfig
from sasv.metrics import sasv_report
from sasv.model import InputMode, IntegrationModel, score_protocol
from sasv.neuralnet import GradientTape
from sasv.training import (AdamState, TrainConfig, adam_step,
                           model_from_checkpoint, model_to_checkpoint, train,
                           write_history)


def test_adam_first_step_formula():
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    p = np.array([1.0, -2.0, 0.5])
    g = np.array([0.5, 2.0, -0.1])
    params = p.copy()
    state = AdamState(params)
    adam_step(state, params, g, lr)
    # after one step the bias corrections cancel the decay exactly
    m_hat = (1 - beta1) * g / (1 - beta1)
    v_hat = (1 - beta2) * g**2 / (1 - beta2)
    expected = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert np.array_equal(params, expected)
    assert state.t == 1


def test_adam_matches_pure_python_reference():
    # scalar quadratic 0.5*x^2, gradient x, tracked step by step in plain floats
    lr, beta1, beta2, eps = 0.05, 0.9, 0.999, 1e-8
    x_ref = 3.0
    m = v = 0.0
    params = np.array(3.0)
    state = AdamState(params)
    for t in range(1, 51):
        g = x_ref
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        x_ref -= lr * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + eps)
        adam_step(state, params, np.array(float(params)), lr)
    assert abs(float(params) - x_ref) < 1e-12
    assert abs(x_ref) < 3.0  # it actually descended


def test_adam_rejects_nonfinite_gradient():
    params = np.zeros(2)
    state = AdamState(params)
    # a NaN, either inf, and finite gradients whose squares overflow
    for bad in (float("nan"), float("inf"), -float("inf"), 1e155, -1e155, 1e200):
        with pytest.raises(NumericError, match="non-finite gradient at flat index 1"):
            adam_step(state, params, np.array([1.0, bad]), 0.1)
        # nothing moved: the check runs before the update
        assert state.t == 0 and not params.any() and not state.m.any() and not state.v.any()


def _adam_step_per_array(state, params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The update as it ran once per named array, kept verbatim as the oracle
    (state holds t and dicts m, v of per-array moments)."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def test_flat_adam_equals_the_per_array_update():
    model = IntegrationModel(InputMode.CONCAT_PLUS_ENROLL, 5, 3,
                             np.random.default_rng(0))
    params = model.params.values
    assert len(params) == 12 and params["sv_weight"].shape == ()
    oracle_params = {name: p.copy() for name, p in params.items()}
    oracle = SimpleNamespace(t=0, m={k: np.zeros_like(p) for k, p in params.items()},
                             v={k: np.zeros_like(p) for k, p in params.items()})
    state = AdamState(model.params.data)
    rng = np.random.default_rng(1)
    grads = model.params.grads
    for _ in range(20):
        for name, g in grads.items():
            # mixed scales, exact zeros and signed zeros
            g[...] = rng.normal(size=g.shape) * 10.0 ** rng.integers(-6, 3)
            g[...] = np.where(rng.random(g.shape) < 0.05, -0.0, g)
        _adam_step_per_array(oracle, oracle_params, {k: g.copy() for k, g in grads.items()},
                             1e-3)
        adam_step(state, model.params.data, model.params.grad, 1e-3)
        for name, p in model.params.values.items():
            assert np.array_equal(p, oracle_params[name]), name
            assert np.signbit(p).tolist() == np.signbit(oracle_params[name]).tolist()
    assert state.t == oracle.t == 20


def test_parameters_and_tape_gradients_are_views_of_the_flat_vectors():
    model = IntegrationModel(InputMode.CONCAT, 4, 3, np.random.default_rng(0))
    sizes = 0
    for name, p in model.params.values.items():
        assert np.shares_memory(p, model.params.data), name
        assert np.shares_memory(model.params.grads[name], model.params.grad), name
        sizes += p.size
    assert sizes == model.params.data.size == model.params.grad.size
    assert np.shares_memory(model.sv_weight, model.params.data)
    tape = GradientTape()
    x = np.random.default_rng(1).normal(size=(6, model.input_dim))
    model.spoof_scores(x, tape)
    tape.backward(np.ones(6))
    layer_grads = {f"{layer.name}.{pname}": g
                   for layer in model.layers for pname, g in layer.grads.items()}
    assert set(layer_grads) == set(model.params.values) - {"sv_weight"}
    for name, g in layer_grads.items():
        assert g is model.params.grads[name], name


def _fresh_model(ds, mode=InputMode.CONCAT, seed=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    return IntegrationModel(mode, ds.config.sv_dim, ds.config.cm_dim, rng)


def test_training_reduces_the_loss(tiny_dataset):
    ds = tiny_dataset
    result = train(_fresh_model(ds), ds.sv_store, ds.cm_store,
                   ds.protocols["train"], ds.protocols["dev"],
                   TrainConfig(epochs=5, learning_rate=1e-3, seed=0),
                   OneClassSoftmaxConfig())
    assert result.history[-1].train_loss < result.history[0].train_loss


def _train_tiny(ds, epochs):
    # reaches dev SASV-EER 0.0 first at epoch 4
    return train(_fresh_model(ds), ds.sv_store, ds.cm_store, ds.protocols["train"],
                 ds.protocols["dev"], TrainConfig(epochs=epochs, learning_rate=1e-3, seed=0),
                 OneClassSoftmaxConfig())


def test_training_stops_at_the_first_epoch_of_dev_sasv_eer_zero(tiny_dataset, caplog):
    with caplog.at_level(logging.INFO, logger="sasv.training"):
        result = _train_tiny(tiny_dataset, epochs=5)
    assert [h.epoch for h in result.history] == [1, 2, 3, 4]
    assert [h.dev_sasv_eer == 0.0 for h in result.history] == [False] * 3 + [True]
    assert result.best_epoch == 4 and result.best_dev_sasv_eer == 0.0
    assert ("dev SASV-EER reached 0.0 at epoch 4 of 5: no later epoch can be chosen"
            in caplog.messages)
    # the model kept is, byte for byte, the one a run of exactly 4 epochs keeps
    exact = _train_tiny(tiny_dataset, epochs=4).model.state()
    assert list(result.model.state()) == list(exact)
    for name, a in result.model.state().items():
        assert a.tobytes() == exact[name].tobytes(), name


def test_history_covers_every_epoch(tiny_trained):
    history = tiny_trained.history
    # dev SASV-EER never reaches 0.0 here, so every configured epoch runs
    assert [h.epoch for h in history] == [1, 2]
    assert all(h.dev_sasv_eer > 0.0 for h in history)
    for row in history:
        assert math.isfinite(row.train_loss)
        assert 0.0 <= row.dev_sasv_eer <= 1.0
        assert row.dev_sv_eer is not None and row.dev_spf_eer is not None
    assert tiny_trained.best_epoch in (1, 2)


def test_best_epoch_model_is_restored(tiny_dataset, tiny_trained):
    ds = tiny_dataset
    records = score_protocol(tiny_trained.model, ds.protocols["dev"],
                             ds.sv_store, ds.cm_store)
    assert sasv_report(records).sasv.eer == tiny_trained.best_dev_sasv_eer


def test_zero_learning_rate_freezes_parameters(tiny_dataset):
    ds = tiny_dataset
    model = _fresh_model(ds)
    before = {k: v.copy() for k, v in model.params.values.items()}
    running_before = model.bn.running_mean.copy()
    train(model, ds.sv_store, ds.cm_store, ds.protocols["train"],
          ds.protocols["dev"], TrainConfig(epochs=2, learning_rate=0.0, seed=0),
          OneClassSoftmaxConfig())
    for name, value in model.params.values.items():
        assert np.array_equal(value, before[name]), name
    # running statistics are state, not parameters: they still advance
    assert not np.array_equal(model.bn.running_mean, running_before)


def test_training_frees_the_gradient_vector(tiny_dataset):
    ds = tiny_dataset
    model = _fresh_model(ds)
    train(model, ds.sv_store, ds.cm_store, ds.protocols["train"],
          ds.protocols["dev"], TrainConfig(epochs=1, seed=0), OneClassSoftmaxConfig())
    assert model.params._grad is None
    # the next use gets a zeroed vector of the same layout
    assert model.params.grad.shape == model.params.data.shape
    assert not model.params.grad.any()


def test_training_is_deterministic(tiny_dataset):
    ds = tiny_dataset
    cfg = TrainConfig(epochs=2, seed=9)
    loss_cfg = OneClassSoftmaxConfig()
    blobs = []
    for _ in range(2):
        result = train(_fresh_model(ds, seed=9), ds.sv_store, ds.cm_store,
                       ds.protocols["train"], ds.protocols["dev"], cfg, loss_cfg)
        ckpt = model_to_checkpoint(result.model, cfg, loss_cfg,
                                   result.best_epoch, result.best_dev_sasv_eer)
        blobs.append(checkpoint_to_bytes(ckpt))
    assert blobs[0] == blobs[1]


def test_model_checkpoint_round_trip(tiny_dataset, tiny_trained):
    ds = tiny_dataset
    cfg = TrainConfig(epochs=2, seed=3)
    ckpt = model_to_checkpoint(tiny_trained.model, cfg, OneClassSoftmaxConfig(),
                               tiny_trained.best_epoch,
                               tiny_trained.best_dev_sasv_eer)
    assert ckpt.meta["best_epoch"] == tiny_trained.best_epoch
    assert ckpt.meta["train"]["epochs"] == 2

    revived = model_from_checkpoint(checkpoint_from_bytes(checkpoint_to_bytes(ckpt)))
    assert revived.mode is tiny_trained.model.mode
    assert revived.normalize_embeddings == tiny_trained.model.normalize_embeddings
    original = tiny_trained.model.params.values
    for name, value in revived.params.values.items():
        assert np.array_equal(value, original[name]), name
    assert np.array_equal(revived.bn.running_mean, tiny_trained.model.bn.running_mean)
    assert np.array_equal(revived.bn.running_var, tiny_trained.model.bn.running_var)

    eval_protocol = ds.protocols["eval"]
    r_orig = score_protocol(tiny_trained.model, eval_protocol, ds.sv_store, ds.cm_store)
    r_revived = score_protocol(revived, eval_protocol, ds.sv_store, ds.cm_store)
    for name in SCORE_FIELDS:
        assert getattr(r_orig, name).tobytes() == getattr(r_revived, name).tobytes(), name


def test_checkpoint_records_the_training_constants(tiny_trained):
    ckpt = model_to_checkpoint(tiny_trained.model, TrainConfig(epochs=2, seed=3),
                               OneClassSoftmaxConfig(), 1, 0.5)
    assert ckpt.meta["train"] == {
        "learning_rate": 1e-4, "batch_size": 24, "epochs": 2, "seed": 3,
        "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_epsilon": 1e-8, "shuffle": True,
    }


def test_corrupted_checkpoint_is_rejected(tiny_trained):
    ckpt = model_to_checkpoint(tiny_trained.model, TrainConfig(),
                               OneClassSoftmaxConfig(), 1, 0.5)
    blob = checkpoint_to_bytes(ckpt)
    rng = np.random.default_rng(0)
    for pos in rng.choice(len(blob), size=25, replace=False):
        broken = bytearray(blob)
        broken[pos] ^= 0xFF
        with pytest.raises(DataError):
            checkpoint_from_bytes(bytes(broken))


def test_checkpoint_arrays_that_disagree_with_the_model_are_named_at_once(tiny_trained):
    ckpt = model_to_checkpoint(tiny_trained.model, TrainConfig(),
                               OneClassSoftmaxConfig(), 1, 0.5)
    arrays = dict(ckpt.arrays, extra=np.zeros(3), **{"h2.bias": np.zeros(5)})
    del arrays["head.direction"]
    with pytest.raises(DataError) as exc:
        model_from_checkpoint(Checkpoint("integration", ckpt.meta, arrays))
    assert str(exc.value) == (
        "checkpoint arrays do not match the model: 'h2.bias': stored (5,), expected "
        "(128,); 'head.direction': stored none, expected (64,); 'extra': stored (3,), "
        "expected none")


def test_wrong_kind_checkpoint_rejected():
    with pytest.raises(DataError, match="integration"):
        model_from_checkpoint(Checkpoint(kind="cascade", meta={}, arrays={}))


def test_train_validates_inputs(tiny_dataset):
    ds = tiny_dataset
    single_class = Protocol([Trial("S001_E000", "S001_U001", TrialLabel.TARGET)])
    with pytest.raises(DataError, match="at least one target and one"):
        train(_fresh_model(ds), ds.sv_store, ds.cm_store, single_class,
              ds.protocols["dev"], TrainConfig(epochs=1), OneClassSoftmaxConfig())
    with pytest.raises(DataError, match="batch size"):
        train(_fresh_model(ds), ds.sv_store, ds.cm_store, ds.protocols["train"],
              ds.protocols["dev"], TrainConfig(batch_size=1), OneClassSoftmaxConfig())
    with pytest.raises(DataError, match="epochs"):
        train(_fresh_model(ds), ds.sv_store, ds.cm_store, ds.protocols["train"],
              ds.protocols["dev"], TrainConfig(epochs=0), OneClassSoftmaxConfig())


def test_stores_of_other_dims_are_refused_even_at_the_same_width(tiny_dataset):
    # sv_dim 6 and cm_dim 5 fill the 11 inputs of a model for sv_dim 5 and cm_dim 6
    ds = tiny_dataset
    message = ("the embeddings have sv_dim 6 and cm_dim 5, the model takes sv_dim 5 "
               "and cm_dim 6")
    swapped = IntegrationModel(InputMode.CONCAT, ds.config.cm_dim, ds.config.sv_dim,
                               np.random.default_rng(0))
    with pytest.raises(DataError, match=message):
        train(swapped, ds.sv_store, ds.cm_store, ds.protocols["train"],
              ds.protocols["dev"], TrainConfig(epochs=1), OneClassSoftmaxConfig())
    with pytest.raises(DataError, match=message):
        score_protocol(swapped, ds.protocols["eval"], ds.sv_store, ds.cm_store)
    with pytest.raises(DataError, match=message):
        CmScoreSource.from_model(swapped, ds.sv_store, ds.cm_store).scores_for(
            ds.protocols["eval"])
    # a cm_only model reads no SV embedding, but it still takes only its own dims
    cm_only = IntegrationModel(InputMode.CM_ONLY, 99, ds.config.cm_dim,
                               np.random.default_rng(0))
    with pytest.raises(DataError, match="the model takes sv_dim 99 and cm_dim 5"):
        score_protocol(cm_only, ds.protocols["eval"], ds.sv_store, ds.cm_store)


def test_write_history_round_trips(tmp_path, tiny_trained):
    path = tmp_path / "history.csv"
    write_history(tiny_trained.history, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss", "dev_sv_eer", "dev_spf_eer",
                       "dev_sasv_eer"]
    assert len(rows) == 1 + len(tiny_trained.history)
    assert float(rows[1][1]) == tiny_trained.history[0].train_loss
    assert float(rows[-1][4]) == tiny_trained.history[-1].dev_sasv_eer
