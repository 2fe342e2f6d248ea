"""Joint training of the integration net and the SV fusion weight.

Adam with bias-corrected moments, a seeded reshuffle every epoch, and best-epoch
selection on dev SASV-EER (ties keep the earlier epoch). Training stops after
the first epoch of dev SASV-EER 0.0, since no later epoch can then be chosen.
The SV cosine inputs are computed once up front since the subsystem embeddings
are frozen.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .checkpoint import Checkpoint
from .core import (DataError, EmbeddingStore, NumericError, Protocol,
                   check_protocol_ids, sv_scores, target_mask)
from .loss import OneClassSoftmaxConfig
from .metrics import sasv_report, write_csv
from .model import HIDDEN_SIZES, InputMode, IntegrationModel, score_protocol

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9  # Adam's defaults (Kingma & Ba, arXiv:1412.6980)
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 24
    epochs: int = 40
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise DataError("epochs must be >= 1")
        if self.batch_size < 2:
            raise DataError("batch size must be >= 2 (batch norm needs batch statistics)")
        if not 0.0 <= self.learning_rate < math.inf:
            raise DataError("learning rate must be finite and non-negative")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochStats:
    """One row of history.csv: the fields are its columns, in order."""

    epoch: int
    train_loss: float
    dev_sv_eer: float | None
    dev_spf_eer: float | None
    dev_sasv_eer: float


@dataclass
class TrainResult:
    model: IntegrationModel
    history: list[EpochStats]
    best_epoch: int
    best_dev_sasv_eer: float


class AdamState:
    """Moments and step count of Adam over one parameter array, plus one
    scratch array of its shape."""

    def __init__(self, params: np.ndarray):
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._step = np.empty_like(params)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """One in-place Adam update of `params` from `grads`, the same layout.

    Elementwise, in the order p -= lr * (m / bc1) / (sqrt(v / bc2) + eps),
    so the bits equal those of one update per named array.
    """
    if not np.isfinite(grads).all():
        bad = int(np.flatnonzero(~np.isfinite(grads))[0])
        raise NumericError(f"non-finite gradient at flat index {bad}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    m, v, step = state.m, state.v, state._step
    m *= ADAM_BETA1
    np.multiply(1.0 - ADAM_BETA1, grads, out=step)
    m += step
    v *= ADAM_BETA2
    np.square(grads, out=step)
    step *= 1.0 - ADAM_BETA2
    v += step
    # fresh each step: a second scratch array kept for the whole training
    # raised peak RSS and measured no faster
    denom = np.empty_like(v)
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPSILON
    np.divide(m, bc1, out=step)
    step *= lr
    step /= denom
    params -= step


def train(model: IntegrationModel, sv_store: EmbeddingStore, cm_store: EmbeddingStore,
          train_protocol: Protocol, dev_protocol: Protocol, cfg: TrainConfig,
          loss_cfg: OneClassSoftmaxConfig) -> TrainResult:
    is_target = target_mask([t.label for t in train_protocol.trials], "train protocol")
    target_mask([t.label for t in dev_protocol.trials], "dev protocol")
    rows = check_protocol_ids(train_protocol, sv_store, cm_store)
    check_protocol_ids(dev_protocol, sv_store, cm_store)

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    x_all = model.assemble_batch(rows, sv_store, cm_store)
    s_sv_all = sv_scores(rows, sv_store)
    z_all = (~is_target).astype(np.int64)  # the loss's class index: 0 = target
    n = len(train_protocol)

    params = model.params
    adam = AdamState(params.data)
    history: list[EpochStats] = []
    best_state: dict[str, np.ndarray] = {}
    best_metric = math.inf
    best_epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        used = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if idx.size < 2:
                continue  # a leftover single trial cannot be batch-normalized
            batch_loss = model.training_loss(x_all[idx], s_sv_all[idx], z_all[idx],
                                             loss_cfg)
            if not math.isfinite(batch_loss):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            adam_step(adam, params.data, params.grad, cfg.learning_rate)
            loss_sum += batch_loss * idx.size
            used += idx.size
        train_loss = loss_sum / used
        dev_records = score_protocol(model, dev_protocol, sv_store, cm_store)
        report = sasv_report(dev_records)
        stats = EpochStats(
            epoch=epoch,
            train_loss=train_loss,
            dev_sv_eer=report.sv.eer if report.sv else None,
            dev_spf_eer=report.spf.eer if report.spf else None,
            dev_sasv_eer=report.sasv.eer,
        )
        history.append(stats)
        log.info("epoch %d/%d  loss %.6f  dev sasv-eer %.2f%%",
                 epoch, cfg.epochs, train_loss, 100.0 * report.sasv.eer)
        if report.sasv.eer < best_metric:
            best_metric = report.sasv.eer
            best_epoch = epoch
            best_state = {name: a.copy() for name, a in model.state().items()}
        if best_metric == 0.0:
            # an EER is never below 0.0 and a later tie never replaces the
            # best epoch, so no later epoch can change the result
            log.info("dev SASV-EER reached 0.0 at epoch %d of %d: "
                     "no later epoch can be chosen", epoch, cfg.epochs)
            break

    for name, a in model.state().items():
        np.copyto(a, best_state[name])
    params.free_grad()
    return TrainResult(model=model, history=history, best_epoch=best_epoch,
                       best_dev_sasv_eer=best_metric)


def write_history(history: list[EpochStats], path: str) -> None:
    write_csv(path, [field.name for field in fields(EpochStats)], map(astuple, history))


def model_to_checkpoint(model: IntegrationModel, train_cfg: TrainConfig,
                        loss_cfg: OneClassSoftmaxConfig, best_epoch: int,
                        best_dev_sasv_eer: float) -> Checkpoint:
    meta = {
        "mode": model.mode.value,
        "sv_dim": model.sv_dim,
        "cm_dim": model.cm_dim,
        "normalize_embeddings": model.normalize_embeddings,
        "train": dict(asdict(train_cfg), adam_beta1=ADAM_BETA1, adam_beta2=ADAM_BETA2,
                      adam_epsilon=ADAM_EPSILON, shuffle=True),
        "loss": asdict(loss_cfg),
        "best_epoch": best_epoch,
        "best_dev_sasv_eer": best_dev_sasv_eer,
    }
    return Checkpoint(kind="integration", meta=meta, arrays=model.state())


def model_from_checkpoint(ckpt: Checkpoint) -> IntegrationModel:
    if ckpt.kind != "integration":
        raise DataError(f"expected an integration checkpoint, got kind {ckpt.kind!r}")
    meta = ckpt.meta
    try:
        mode = InputMode(meta["mode"])
        sv_dim, cm_dim = int(meta["sv_dim"]), int(meta["cm_dim"])
        normalize = bool(meta["normalize_embeddings"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"bad integration checkpoint metadata: {exc}") from None
    # the stored arrays bound the dims before any array of that size is made
    d_in = mode.input_dim(sv_dim, cm_dim)
    for name, shape in (("bn.gamma", (d_in,)), ("h1.weight", (HIDDEN_SIZES[0], d_in))):
        stored = ckpt.arrays.get(name)
        if stored is None or stored.shape != shape:
            raise DataError(
                f"checkpoint metadata (mode {mode.value}, sv_dim {sv_dim}, cm_dim "
                f"{cm_dim}) does not match its array {name!r} "
                f"({'missing' if stored is None else f'shape {stored.shape}'})"
            )
    model = IntegrationModel(mode, sv_dim, cm_dim, rng=np.random.default_rng(0),
                             normalize_embeddings=normalize)
    expected = model.state()
    if set(expected) != set(ckpt.arrays):
        missing = sorted(set(expected) ^ set(ckpt.arrays))
        raise DataError(f"checkpoint arrays do not match the model: {missing}")
    for name, target in expected.items():
        src = ckpt.arrays[name]
        if src.shape != target.shape:
            raise DataError(
                f"checkpoint array {name!r} has shape {src.shape}, "
                f"expected {target.shape}"
            )
        np.copyto(target, src)
    return model
