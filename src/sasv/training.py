"""Joint training of the integration net and the SV fusion weight.

Adam with bias-corrected moments, a seeded reshuffle every epoch, and best-epoch
selection on dev SASV-EER (ties keep the earlier epoch). Training stops after
the first epoch of dev SASV-EER 0.0, since no later epoch can then be chosen.
The SV cosine inputs are computed once up front since the subsystem embeddings
are frozen; each batch's net inputs are gathered from the stores as it is
reached, so no [N, input_dim] copy of the training protocol is made.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .checkpoint import Checkpoint
from .core import (DataError, EmbeddingStore, NumericError, Protocol, TrialRows,
                   check_int_fields, check_protocol_ids, is_integer, sv_scores)
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
        check_int_fields(self)
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
    so the bits equal those of one update per named array. A gradient that is
    not finite, or whose square overflows, is refused before any state moves.
    """
    m, v, step = state.m, state.v, state._step
    with np.errstate(over="ignore"):  # an overflowing square is the error below
        np.square(grads, out=step)
    # g**2 >= 0 is finite exactly when g is and it fits, so one max finds a
    # NaN, an inf or an overflow anywhere
    if not step.max() < np.inf:
        bad = int(np.flatnonzero(~np.isfinite(step))[0])
        raise NumericError(f"non-finite gradient at flat index {bad} (or its square)")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    v *= ADAM_BETA2
    step *= 1.0 - ADAM_BETA2
    v += step
    m *= ADAM_BETA1
    np.multiply(1.0 - ADAM_BETA1, grads, out=step)
    m += step
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
    is_target = train_protocol.target_mask("train protocol")
    dev_protocol.target_mask("dev protocol")
    rows = check_protocol_ids(train_protocol, sv_store, cm_store)
    enroll, test, test_cm = rows
    check_protocol_ids(dev_protocol, sv_store, cm_store)

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    s_sv_all = sv_scores(rows, sv_store)
    z_all = (~is_target).astype(np.int64)  # the loss's class index: 0 = target
    n = len(train_protocol)

    params = model.params
    adam = AdamState(params.data)
    history: list[EpochStats] = []
    best_state: dict[str, np.ndarray] = {}
    best_metric = math.inf
    best_epoch = 0

    # an overflow or invalid value is not a warning: it reaches the non-finite
    # loss, score or gradient checks, which end training with a NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n)
            loss_sum = 0.0
            used = 0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                if idx.size < 2:
                    continue  # a leftover single trial cannot be batch-normalized
                x = model.assemble_batch(TrialRows(enroll[idx], test[idx], test_cm[idx]),
                                         sv_store, cm_store)
                batch_loss = model.training_loss(x, s_sv_all[idx], z_all[idx], loss_cfg)
                if not math.isfinite(batch_loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}")
                adam_step(adam, params.data, params.grad, cfg.learning_rate)
                loss_sum += batch_loss * idx.size
                used += idx.size
            train_loss = loss_sum / used
            dev_table = score_protocol(model, dev_protocol, sv_store, cm_store)
            report = sasv_report(dev_table)
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
        sv_dim, cm_dim = meta["sv_dim"], meta["cm_dim"]
        normalize = meta["normalize_embeddings"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad integration checkpoint metadata: {exc}") from None
    if not (is_integer(sv_dim) and is_integer(cm_dim) and isinstance(normalize, bool)):
        raise DataError(f"bad integration checkpoint metadata: sv_dim {sv_dim!r} and cm_dim "
                        f"{cm_dim!r} must be integers and normalize_embeddings "
                        f"{normalize!r} a bool")
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
    state = model.state()
    layout = {name: array.shape for name, array in state.items()}
    found = {name: array.shape for name, array in ckpt.arrays.items()}
    faults = [f"{name!r}: stored {found.get(name, 'none')}, expected {layout.get(name, 'none')}"
              for name in {**layout, **found} if found.get(name) != layout.get(name)]
    if faults:
        raise DataError(f"checkpoint arrays do not match the model: {'; '.join(faults)}")
    for name, target in state.items():
        if not np.isfinite(ckpt.arrays[name]).all():
            raise DataError(f"checkpoint array {name!r} holds a non-finite value")
        np.copyto(target, ckpt.arrays[name])
    if (model.bn.running_var < 0.0).any():
        raise DataError("checkpoint array 'bn.running_var' holds a negative variance")
    return model
