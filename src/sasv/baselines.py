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
    if s_sv.ndim != 1 or s_cm.shape != s_sv.shape or len(labels) != s_sv.size:
        raise DataError(f"fit_{kind} needs two 1-D score columns of one score per "
                        f"label, got shapes {s_sv.shape} and {s_cm.shape} for "
                        f"{len(labels)} labels")
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
    those of the next value, so the first grid index j with far - frr <= 0
    and the one before it hold the rates eer interpolates between. Weigh each
    target n_neg and each negative n_pos: far - frr <= 0 at grid[j] exactly
    when the scored trials below grid[j] weigh at least C = n_pos * n_neg.
    The integer test gives the float one's answer while n_pos * n_neg < 2**52,
    as two distinct rates then differ by more than the float spacing in
    [0, 1]. So grid[j - 1] is the weighted quantile C of the prefix's scores:
    the trials of groups >= k at their own s_sv, and the gated trials' weight
    at the floor. A wavelet matrix over the grid indices of the trials in
    group order answers every prefix's query at once, each a range query over
    its passing trials, one bit of the grid index per level from the top;
    each level is built, walked and dropped in turn, so the sweep holds O(N)
    memory and takes O(N log N) time.
    """
    grid, at = np.unique(np.append(s_sv, CASCADE_FLOOR), return_inverse=True)
    floor, at = int(at[-1]), at[:-1]
    n = is_target.size
    n_pos = int(np.count_nonzero(is_target))
    n_neg = n - n_pos
    # in group order, prefix k gates the trials before start[k], gated_pos of
    # them targets, and passes the rest
    order = np.argsort(group, kind="stable")
    value, target = at[order], is_target[order]
    start = np.concatenate(([0], np.cumsum(np.bincount(group, minlength=n_groups))))
    gated, gated_pos = start, np.concatenate(([0], np.cumsum(target)))[start]

    # per prefix: its passing trials' range [lo, hi) in the level's order, the
    # weight still to reach, the targets and trials below the node the walk
    # is at, and whether the floor lies in that node
    lo, hi = start.copy(), np.full(start.size, n)
    rest = np.full(start.size, n_pos * n_neg)
    below_pos, below = np.zeros_like(start), np.zeros_like(start)
    in_floor = np.ones(start.size, bool)
    for bit in reversed(range((grid.size - 1).bit_length())):
        zero = (value >> bit) & 1 == 0
        zeros_to = np.concatenate(([0], np.cumsum(zero)))
        zero_pos_to = np.concatenate(([0], np.cumsum(zero & target)))
        zero_lo, zero_hi = zeros_to[lo], zeros_to[hi]
        # the node's half with this bit 0, the floor's weight in it if there
        left_pos = zero_pos_to[hi] - zero_pos_to[lo]
        left_all = zero_hi - zero_lo
        floor_right = bool((floor >> bit) & 1)
        if not floor_right:
            left_pos += gated_pos * in_floor
            left_all += gated * in_floor
        left_weight = n_neg * left_pos + n_pos * (left_all - left_pos)
        right = left_weight < rest
        rest -= left_weight * right
        below_pos += left_pos * right
        below += left_all * right
        in_floor &= right == floor_right
        n_zero = zeros_to[-1]
        lo = np.where(right, lo - zero_lo + n_zero, zero_lo)
        hi = np.where(right, hi - zero_hi + n_zero, zero_hi)
        # the next level's order: this level's zeros, then its ones, each stable
        perm = np.concatenate((np.flatnonzero(zero), np.flatnonzero(~zero)))
        value, target = value[perm], target[perm]
    # the trials at the answer grid[j - 1]: those left in the range, and the
    # gated ones if it is the floor
    pos_to = np.concatenate(([0], np.cumsum(target)))
    at_pos = pos_to[hi] - pos_to[lo] + gated_pos * in_floor
    at_all = hi - lo + gated * in_floor
    below_neg = below - below_pos
    upto_pos, upto_neg = below_pos + at_pos, below_neg + at_all - at_pos
    return eer_at_crossing(below_pos / n_pos, (n_neg - below_neg) / n_neg,
                           upto_pos / n_pos, (n_neg - upto_neg) / n_neg)[0]


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
