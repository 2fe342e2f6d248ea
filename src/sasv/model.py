"""Score-integration model.

A small dense net consumes stacked subsystem embeddings for a trial and emits
a 64-dim spoofing embedding; its cosine against a trained direction vector is
the spoofing score s_spf. The final score fuses the frozen SV cosine with it:

    s_sasv = sv_weight * s_sv + s_spf

where sv_weight is a trained scalar initialized at 1. The input mode decides
what the net sees: test SV + test CM embeddings (concat), the CM embedding
alone (cm_only), or both plus the enrollment embedding (concat_plus_enroll).
In the first two modes s_spf is by construction a function of the test
utterance only.

A trial's scores depend on that trial alone: the SV cosine is row-wise, and
the net always runs in eval mode on calls of exactly SCORE_BATCH rows, a call
shape at which each output row's bits are independent of its neighbours
(tests/test_properties.py checks this on the BLAS in use).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import (DataError, EmbeddingStore, Protocol, ScoreTable, TrialRows,
                   check_protocol_ids, sv_scores)
from .loss import OneClassSoftmaxConfig, one_class_softmax
from .neuralnet import (BatchNormLayer, CosineHead, GradientTape, LeakyReluLayer,
                        LinearLayer, ParameterBuffer)

HIDDEN_SIZES = (256, 128, 64)
EMBED_DIM = 64
SCORE_BATCH = 256


class InputMode(Enum):
    CONCAT = "concat"
    CM_ONLY = "cm_only"
    CONCAT_PLUS_ENROLL = "concat_plus_enroll"

    def input_dim(self, sv_dim: int, cm_dim: int) -> int:
        if self is InputMode.CONCAT:
            return sv_dim + cm_dim
        if self is InputMode.CM_ONLY:
            return cm_dim
        return 2 * sv_dim + cm_dim

    @property
    def uses_enrollment(self) -> bool:
        return self is InputMode.CONCAT_PLUS_ENROLL


class IntegrationModel:
    def __init__(self, mode: InputMode, sv_dim: int, cm_dim: int,
                 rng: np.random.Generator, normalize_embeddings: bool = False):
        if sv_dim < 1 or cm_dim < 1:
            raise DataError("embedding dimensions must be positive")
        self.mode = mode
        self.sv_dim = sv_dim
        self.cm_dim = cm_dim
        self.normalize_embeddings = normalize_embeddings
        d_in = mode.input_dim(sv_dim, cm_dim)
        self.bn = BatchNormLayer(d_in, name="bn")
        self.h1 = LinearLayer.init(rng, d_in, HIDDEN_SIZES[0], name="h1")
        self.act1 = LeakyReluLayer(name="act1")
        self.h2 = LinearLayer.init(rng, HIDDEN_SIZES[0], HIDDEN_SIZES[1], name="h2")
        self.act2 = LeakyReluLayer(name="act2")
        self.h3 = LinearLayer.init(rng, HIDDEN_SIZES[1], HIDDEN_SIZES[2], name="h3")
        self.act3 = LeakyReluLayer(name="act3")
        self.proj = LinearLayer.init(rng, HIDDEN_SIZES[2], EMBED_DIM, name="proj")
        self.head = CosineHead.init(rng, EMBED_DIM, name="head")
        # the forward order; the layers' parameters in this order, then the
        # fused-score weight on the SV cosine (trained jointly with the net),
        # fill one buffer in the checkpoint's order, and the layers hold views
        self.layers = (self.bn, self.h1, self.act1, self.h2, self.act2, self.h3,
                       self.act3, self.proj, self.head)
        arrays = {f"{layer.name}.{pname}": arr
                  for layer in self.layers for pname, arr in layer.parameters().items()}
        arrays["sv_weight"] = np.array(1.0)
        self.params = ParameterBuffer(arrays)
        for layer in self.layers:
            layer.bind(self.params, prefix=f"{layer.name}.")
        self.sv_weight = self.params.values["sv_weight"]

    @property
    def input_dim(self) -> int:
        return self.mode.input_dim(self.sv_dim, self.cm_dim)

    def state(self) -> dict[str, np.ndarray]:
        """The arrays a checkpoint holds, in its order: every parameter view
        of self.params, then the batch-norm running statistics. They are the
        model's own arrays, so writing into them sets the model's state."""
        return {**self.params.values, "bn.running_mean": self.bn.running_mean,
                "bn.running_var": self.bn.running_var}

    def assemble_batch(self, rows: TrialRows, sv_store: EmbeddingStore,
                       cm_store: EmbeddingStore) -> np.ndarray:
        """Stack the network inputs [N, input_dim] of resolved trials."""
        if (sv_store.dimension, cm_store.dimension) != (self.sv_dim, self.cm_dim):
            raise DataError(f"the embeddings have sv_dim {sv_store.dimension} and cm_dim "
                            f"{cm_store.dimension}, the model takes sv_dim {self.sv_dim} "
                            f"and cm_dim {self.cm_dim}")
        test_cm = cm_store.matrix[rows.test_cm]
        if self.mode is InputMode.CM_ONLY:
            return test_cm
        parts = [sv_store.matrix[rows.test], test_cm]
        if self.mode is InputMode.CONCAT_PLUS_ENROLL:
            parts.append(sv_store.matrix[rows.enroll])
        return np.concatenate(parts, axis=1)

    def spoof_scores(self, x: np.ndarray, tape: GradientTape | None = None) -> np.ndarray:
        """Forward [N, input_dim] -> s_spf [N]. tape=None runs in eval mode."""
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DataError(
                f"expected input of shape [N, {self.input_dim}], got {x.shape}"
            )
        for layer in self.layers:
            x = layer.forward(x, tape)
        return x

    def fuse(self, s_sv: np.ndarray, s_spf: np.ndarray) -> np.ndarray:
        return float(self.sv_weight) * np.asarray(s_sv) + np.asarray(s_spf)

    def training_loss(self, x: np.ndarray, s_sv: np.ndarray, z: np.ndarray,
                      loss_cfg: OneClassSoftmaxConfig) -> float:
        """One training step on a batch: the one-class softmax loss of the fused
        scores, with the gradient of every parameter, sv_weight's included,
        written into self.params.grad."""
        tape = GradientTape()
        s_spf = self.spoof_scores(x, tape)
        loss, g_sasv = one_class_softmax(loss_cfg, self.fuse(s_sv, s_spf), z)
        tape.backward(g_sasv)  # d s_sasv / d s_spf = 1
        self.params.grads["sv_weight"][()] = g_sasv @ s_sv
        return loss


def spoof_scores_for(model: IntegrationModel, rows: TrialRows,
                     sv_store: EmbeddingStore, cm_store: EmbeddingStore) -> np.ndarray:
    """s_spf of each resolved trial, in eval mode.

    The net runs once per distinct input -- per test utterance, or per
    (enrollment, test) pair when the mode uses the enrollment -- on chunks of
    exactly SCORE_BATCH rows, the last one padded by repeating its last row,
    each chunk's inputs gathered from the stores as it is reached, and the
    results are gathered back to the trials.
    """
    if len(rows.test) == 0:
        raise DataError("cannot score an empty protocol")
    keys = (np.stack([rows.enroll, rows.test], axis=1) if model.mode.uses_enrollment
            else rows.test)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    # the trials to run, padded with the last; each chunk's inputs are
    # assembled from its own rows, so no [U, input_dim] matrix is made
    first = np.concatenate([first, np.repeat(first[-1:], -len(first) % SCORE_BATCH)])
    s_spf = np.empty(len(first))
    # as in training: an overflow or invalid value reaches the cosine head's
    # range check, a NumericError, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(first), SCORE_BATCH):
            chunk = first[lo:lo + SCORE_BATCH]
            x = model.assemble_batch(TrialRows(*(r[chunk] for r in rows)),
                                     sv_store, cm_store)
            s_spf[lo:lo + SCORE_BATCH] = model.spoof_scores(x)
    return s_spf[inverse]


def score_protocol(model: IntegrationModel, protocol: Protocol,
                   sv_store: EmbeddingStore, cm_store: EmbeddingStore) -> ScoreTable:
    """Score every trial in eval mode, in protocol order."""
    rows = check_protocol_ids(protocol, sv_store, cm_store)
    s_sv = sv_scores(rows, sv_store)
    s_spf = spoof_scores_for(model, rows, sv_store, cm_store)
    return ScoreTable(protocol, s_sv, s_spf, model.fuse(s_sv, s_spf))
