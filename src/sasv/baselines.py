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
from .core import (DataError, EmbeddingStore, NumericError, Protocol, ScoreTable,
                   TrialLabel, _data_lines, _pow2_exponents, check_protocol_ids,
                   load_embeddings, sv_scores, target_mask)
from .loss import sigmoid
from .metrics import eer, eer_at_crossing
from .model import IntegrationModel, spoof_scores_for

BASELINE_KINDS = ("sum", "cascade", "logreg")
CASCADE_FLOOR = -2.0  # the score of a CM-gated trial, below the cosine range [-1, 1]
LOGREG_L2 = 1e-3  # the penalty on the scaled-score weights; the bias has none
LOGREG_TOL = 1e-10  # the fit stops once max|grad J| is at most this
LOGREG_MAX_STEPS = 50  # Newton steps past which the fit is a NumericError
LOGREG_ARMIJO = 1e-4  # the sufficient decrease, as a share of the slope
LOGREG_HALVINGS = 60  # line-search halvings per step before it gives up


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


def _fit_inputs(s_sv, s_cm, labels: list[TrialLabel], kind: str):
    """The scores as float arrays and the target mask, checked for a fit."""
    s_sv = np.asarray(s_sv, dtype=np.float64)
    s_cm = np.asarray(s_cm, dtype=np.float64)
    is_target = target_mask(labels, f"{kind} fitting")
    if not (np.all(np.isfinite(s_sv)) and np.all(np.isfinite(s_cm))):
        raise NumericError(f"non-finite score passed to fit_{kind}")
    return s_sv, s_cm, is_target


def fit_cascade(s_sv, s_cm, labels: list[TrialLabel]) -> float:
    """Pick the CM gate threshold minimizing dev SASV-EER.

    Candidates are every distinct dev CM score plus the midpoints of adjacent
    distinct values; the first in ascending order with the least EER wins, so
    ties keep the smallest. A candidate gates the trials of the distinct CM
    scores below it, so its EER is that of one gated prefix
    (_gated_prefix_eers).
    """
    s_sv, s_cm, is_target = _fit_inputs(s_sv, s_cm, labels, "cascade")
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
    """Binary logistic regression (target = 1) on the two scores, L2-regularised.

    Each score column is first scaled by the power of two that brings its
    max |value| into [0.5, 1) (exact), giving x_sv and x_cm. The fit minimises

        J(v) = mean_i[softplus(u_i) - y_i * u_i] + (LOGREG_L2 / 2) * (v_sv^2 + v_cm^2),
        u_i = v_sv * x_sv,i + v_cm * x_cm,i + b,

    with the bias unpenalised, by damped Newton from zero: the step solves the
    3x3 Hessian system and an Armijo backtracking search on J damps it. The
    search evaluates J(v + t*d) - J(v) term by term, as
    log1p(expm1(dz_i) * sigmoid(z_i)) with z_i the trial's loss argument, so
    it resolves decreases far below J's own rounding. The fit stops once
    max|grad J| <= LOGREG_TOL and is a NumericError past LOGREG_MAX_STEPS
    steps. The weights are scaled back to the raw scores, so w * s = v * x.

    Every sum over trials is an np.add.reduce of elementwise products, never
    a BLAS dot, so the result does not depend on the BLAS thread count.
    """
    s_sv, s_cm, is_target = _fit_inputs(s_sv, s_cm, labels, "logreg")
    columns = np.stack([s_sv, s_cm])
    shift = _pow2_exponents(columns)[:, 0]
    x = np.ldexp(columns, -shift[:, None])
    # loss_i = softplus(z_i) with z_i = sign_i * u_i: the -y_i * u_i folded in
    sign = np.where(is_target, -1.0, 1.0)
    features = np.vstack([x, np.ones(sign.size)])  # [x_sv, x_cm, 1] per trial
    penalty = np.array([LOGREG_L2, LOGREG_L2, 0.0])
    params = np.zeros(3)  # [v_sv, v_cm, bias]

    def mean(values):
        return np.add.reduce(values, axis=-1) / sign.size

    for step in range(LOGREG_MAX_STEPS + 1):
        z = sign * (params[0] * x[0] + params[1] * x[1] + params[2])
        e = np.exp(-np.abs(z))
        q = np.maximum(e, z >= 0.0) / (1.0 + e)  # sigmoid(z)
        grad = mean(sign * q * features) + penalty * params
        if np.abs(grad).max() <= LOGREG_TOL:
            break
        if step == LOGREG_MAX_STEPS:
            raise NumericError(f"logreg fit did not converge in {LOGREG_MAX_STEPS} "
                               f"Newton steps (max |gradient| {np.abs(grad).max():.3g})")
        curvature = e / ((1.0 + e) * (1.0 + e))  # sigmoid'(u)
        hessian = mean(curvature * features[:, None] * features) + np.diag(penalty)
        # J is strictly convex, so the Hessian is positive definite and the
        # Newton direction descends; a NaN one fails the line search below
        direction = -np.linalg.solve(hessian, grad)
        slope = float(np.add.reduce(grad * direction))
        dz = sign * (direction[0] * x[0] + direction[1] * x[1] + direction[2])
        weights, dw = params[:2], direction[:2]
        t = 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN change is refused
            for _ in range(LOGREG_HALVINGS):
                change = (mean(np.log1p(np.expm1(t * dz) * q))
                          + LOGREG_L2 * t * float(np.add.reduce(weights * dw + t / 2 * dw * dw)))
                if change <= LOGREG_ARMIJO * t * slope:
                    break
                t /= 2.0
            else:
                raise NumericError("logreg line search found no decrease")
        params = params + t * direction
    weight = np.ldexp(params[:2], -shift)
    if not np.all(np.isfinite(weight)):
        raise NumericError("logreg weight overflows at the scale of its scores")
    return LogisticFusion(weight=weight, bias=float(params[2]))


def baseline_records(kind: str, protocol: Protocol, s_sv: np.ndarray,
                     s_cm: np.ndarray, fitted=None) -> ScoreTable:
    """The score table of a fused baseline; the s_spf column carries the CM score."""
    if kind == "sum":
        fused = sum_fusion(s_sv, s_cm)
    elif kind == "cascade":
        fused = cascade_scores(s_sv, s_cm, float(fitted))
    elif kind == "logreg":
        fused = fitted.probability(s_sv, s_cm)
    else:
        raise DataError(f"unknown baseline kind {kind!r}, expected {BASELINE_KINDS}")
    return ScoreTable(protocol, s_sv, s_cm, fused)


# the kinds fitted on dev, each to the `fitted` that baseline_records takes
FITS = {"cascade": fit_cascade, "logreg": fit_logreg}


def fit_outputs(kind: str, fitted) -> tuple[Checkpoint, str]:
    """The baseline.ckpt checkpoint of a fit and the line that reports it."""
    if kind == "cascade":
        arrays, shown = {"tau": np.array(fitted)}, f"threshold {fitted:.6f}"
    else:
        arrays = {"weight": fitted.weight, "bias": np.array(fitted.bias)}
        shown = f"weights {fitted.weight[0]:.4f} {fitted.weight[1]:.4f} bias {fitted.bias:.4f}"
    return Checkpoint(kind=kind, meta={}, arrays=arrays), f"fitted {kind} {shown}"
