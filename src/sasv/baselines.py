"""Score-level fusion baselines: plain sum, CM-gated cascade, logistic regression.

All three consume the per-trial SV cosine plus a per-utterance countermeasure
score. The CM score source is either a plain ID<TAB>score file or a trained
integration model whose spoofing score depends only on the test utterance
(concat or cm_only input modes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .core import (DataError, EmbeddingStore, NumericError, Protocol, ScoreRecord,
                   TrialLabel, _data_lines, check_protocol_ids, load_embeddings,
                   sv_scores, target_mask)
from .loss import sigmoid
from .metrics import eer, eer_at_crossing
from .model import IntegrationModel, spoof_scores_for
from .training import AdamState, adam_step

BASELINE_KINDS = ("sum", "cascade", "logreg")
CASCADE_FLOOR = -2.0  # the score of a CM-gated trial, below the cosine range [-1, 1]
LOGREG_STEPS = 1000
LOGREG_LR = 1e-2


def load_cm_scores(path: str) -> EmbeddingStore:
    """Read an ID<TAB>score file: a CM embedding file of one value per line,
    read by `load_embeddings` and never normalized."""
    store = load_embeddings(path, "cm")
    if store.dimension != 1:
        lineno, _ = next(_data_lines(path))
        raise DataError(f"{path}:{lineno}: a CM score table holds one score per "
                        f"line, found {store.dimension}")
    return store


@dataclass
class CmScoreSource:
    """Per-utterance CM scores, from a score table or from a trained model."""

    sv_store: EmbeddingStore
    cm_store: EmbeddingStore
    model: IntegrationModel | None = None

    @classmethod
    def from_table(cls, sv_store: EmbeddingStore, table: EmbeddingStore) -> "CmScoreSource":
        return cls(sv_store, table)

    @classmethod
    def from_model(cls, model: IntegrationModel, sv_store: EmbeddingStore,
                   cm_store: EmbeddingStore) -> "CmScoreSource":
        if model.mode.uses_enrollment:
            raise DataError(
                "a concat_plus_enroll model conditions on the enrollment, its "
                "spoofing score is not a per-utterance CM score"
            )
        return cls(sv_store, cm_store, model)

    def scores_for(self, protocol: Protocol) -> np.ndarray:
        rows = check_protocol_ids(protocol, self.sv_store, self.cm_store)
        if self.model is None:
            return self.cm_store.matrix[rows.test_cm, 0]
        return spoof_scores_for(self.model, rows, self.sv_store, self.cm_store)


def sv_scores_for(protocol: Protocol, sv_store: EmbeddingStore) -> np.ndarray:
    return sv_scores(check_protocol_ids(protocol, sv_store, None), sv_store)


def sum_fusion(s_sv, s_cm) -> np.ndarray:
    return np.asarray(s_sv, dtype=np.float64) + np.asarray(s_cm, dtype=np.float64)


def cascade_scores(s_sv, s_cm, tau: float) -> np.ndarray:
    """CM gate then SV: trials with s_cm below tau get CASCADE_FLOOR, below
    every clamped cosine, everything else passes through with s_sv."""
    s_sv = np.asarray(s_sv, dtype=np.float64)
    s_cm = np.asarray(s_cm, dtype=np.float64)
    return np.where(s_cm < tau, CASCADE_FLOOR, s_sv)


def fit_cascade(s_sv, s_cm, labels: list[TrialLabel]) -> float:
    """Pick the CM gate threshold minimizing dev SASV-EER.

    Candidates are every distinct dev CM score plus the midpoints of adjacent
    distinct values; the first in ascending order with the least EER wins, so
    ties keep the smallest. A candidate gates the trials of the distinct CM
    scores below it, so its EER is that of one gated prefix
    (_gated_prefix_eers).
    """
    s_sv = np.asarray(s_sv, dtype=np.float64)
    s_cm = np.asarray(s_cm, dtype=np.float64)
    is_target = target_mask(labels, "cascade fitting")
    if not (np.all(np.isfinite(s_sv)) and np.all(np.isfinite(s_cm))):
        raise NumericError("non-finite score passed to fit_cascade")
    distinct, group = np.unique(s_cm, return_inverse=True)
    with np.errstate(over="ignore"):  # an overflowing midpoint is inf: it gates all
        midpoints = (distinct[:-1] + distinct[1:]) / 2.0
    # a stable sort, as list.sort, so an endpoint precedes an equal midpoint
    candidates = np.sort(np.concatenate([distinct, midpoints]), kind="stable")
    # by search, not by position: a midpoint can round onto an endpoint
    gated = np.searchsorted(distinct, candidates, side="left")
    prefix_eers = _gated_prefix_eers(s_sv, group, distinct.size, is_target)
    best = int(np.argmin(prefix_eers[gated]))
    tau = float(candidates[best])
    # the chosen gate scored directly, a guard on the sweep's exactness
    scores = cascade_scores(s_sv, s_cm, tau)
    if eer(scores[is_target], scores[~is_target]).eer != prefix_eers[gated[best]]:
        raise NumericError(f"cascade sweep disagrees with eer at tau {tau!r}")
    return tau


def _gated_prefix_eers(s_sv, group, n_groups: int, is_target) -> np.ndarray:
    """metrics.eer of cascade_scores, bit for bit, with the trials of CM
    groups 0..k-1 gated, for k = 0..n_groups.

    Every prefix is scored on one grid: the distinct s_sv and CASCADE_FLOOR,
    then the terminal point. At a grid value no score takes, the rates equal
    those of the next value, so the first grid index with far - frr <= 0 and
    the one before it hold the rates eer interpolates between. Gating a trial
    lowers far - frr above the floor and raises it at and below it, so that
    index moves right while it lies at or below the floor, then only left (it
    never lies there when no s_sv is below the floor): one pointer, moved in
    O(1) steps, finds it for every prefix.
    """
    grid, at = np.unique(np.append(s_sv, CASCADE_FLOOR), return_inverse=True)
    floor, at = int(at[-1]), at[:-1]
    n_pos = int(is_target.sum())
    n_neg = is_target.size - n_pos
    # passing trials per grid value
    pos_at = np.bincount(at[is_target], minlength=grid.size).tolist()
    neg_at = np.bincount(at[~is_target], minlength=grid.size).tolist()
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(np.bincount(group, minlength=n_groups)).tolist()
    gated_at, gated_pos = at[order].tolist(), is_target[order].tolist()

    # the pointer j, the passing targets below grid[j] and the passing
    # negatives at or above it, and the gated trials of each class
    j, below, above, gated_p, gated_n = 0, 0, n_neg, 0, 0

    def rates(j, below, above):
        return ((below + (gated_p if j > floor else 0)) / n_pos,
                (above + (gated_n if j <= floor else 0)) / n_neg)

    eers = []
    start = 0
    for k in range(n_groups + 1):
        while True:
            frr, far = rates(j, below, above)
            if far - frr > 0.0:  # the crossing lies to the right
                below, above, j = below + pos_at[j], above - neg_at[j], j + 1
                continue
            frr_prev, far_prev = rates(j - 1, below - pos_at[j - 1],
                                       above + neg_at[j - 1])
            if far_prev - frr_prev > 0.0:
                break
            below, above, j = below - pos_at[j - 1], above + neg_at[j - 1], j - 1
        eers.append(eer_at_crossing(frr_prev, far_prev, frr, far)[0])
        if k == n_groups:
            break
        for i in range(start, ends[k]):
            s = gated_at[i]
            if gated_pos[i]:
                pos_at[s] -= 1
                gated_p += 1
                below -= s < j
            else:
                neg_at[s] -= 1
                gated_n += 1
                above -= s >= j
        start = ends[k]
    return np.array(eers)


@dataclass
class LogisticFusion:
    weight: np.ndarray  # [w_sv, w_cm]
    bias: float

    def probability(self, s_sv, s_cm) -> np.ndarray:
        u = (self.weight[0] * np.asarray(s_sv, dtype=np.float64)
             + self.weight[1] * np.asarray(s_cm, dtype=np.float64) + self.bias)
        return sigmoid(u)


def fit_logreg(s_sv, s_cm, labels: list[TrialLabel]) -> LogisticFusion:
    """Binary logistic regression (target = 1) on the two scores.

    LOGREG_STEPS full-batch Adam steps at learning rate LOGREG_LR from
    zero-initialized weights; the sigmoid output is the fused score.
    """
    s_sv = np.asarray(s_sv, dtype=np.float64)
    s_cm = np.asarray(s_cm, dtype=np.float64)
    y = target_mask(labels, "logreg fitting").astype(np.float64)
    params = np.zeros(3)  # [w_sv, w_cm, bias]
    grads = np.empty(3)
    adam = AdamState(params)
    n = y.size
    for _ in range(LOGREG_STEPS):
        u = params[0] * s_sv + params[1] * s_cm + params[2]
        r = (sigmoid(u) - y) / n
        grads[0] = r @ s_sv
        grads[1] = r @ s_cm
        grads[2] = r.sum()
        adam_step(adam, params, grads, LOGREG_LR)
    return LogisticFusion(weight=params[:2].copy(), bias=float(params[2]))


def baseline_records(kind: str, protocol: Protocol, s_sv: np.ndarray,
                     s_cm: np.ndarray, fitted=None) -> list[ScoreRecord]:
    """Score records for a fused baseline; the s_spf column carries the CM score."""
    if kind == "sum":
        fused = sum_fusion(s_sv, s_cm)
    elif kind == "cascade":
        fused = cascade_scores(s_sv, s_cm, float(fitted))
    elif kind == "logreg":
        fused = fitted.probability(s_sv, s_cm)
    else:
        raise DataError(f"unknown baseline kind {kind!r}, expected {BASELINE_KINDS}")
    return [ScoreRecord(t, float(a), float(b), float(c))
            for t, a, b, c in zip(protocol.trials, s_sv, s_cm, fused)]


def logreg_to_checkpoint(fitted: LogisticFusion) -> Checkpoint:
    return Checkpoint(kind="logreg", meta={},
                      arrays={"weight": fitted.weight, "bias": np.array(fitted.bias)})


def cascade_to_checkpoint(tau: float) -> Checkpoint:
    return Checkpoint(kind="cascade", meta={}, arrays={"tau": np.array(tau)})
