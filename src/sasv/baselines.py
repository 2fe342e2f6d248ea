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
from .core import (DataError, EmbeddingStore, Protocol, ScoreRecord, TrialLabel,
                   check_protocol_ids, sv_scores)
from .loss import sigmoid
from .metrics import eer
from .model import IntegrationModel, spoof_scores_for
from .training import AdamState, adam_step

BASELINE_KINDS = ("sum", "cascade", "logreg")
CASCADE_FLOOR = -2.0  # the score of a CM-gated trial, below the cosine range [-1, 1]


def load_cm_scores(path: str) -> dict[str, float]:
    """Parse an ID<TAB>score file ('#' comments allowed)."""
    from .core import _data_lines

    table: dict[str, float] = {}
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: malformed line, expected ID<TAB>score")
        utt_id, text = parts
        if utt_id in table:
            raise DataError(f"{path}:{lineno}: duplicate id {utt_id!r}")
        try:
            value = float(text)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad score {text!r}") from None
        if not np.isfinite(value):
            raise DataError(f"{path}:{lineno}: non-finite score")
        table[utt_id] = value
    if not table:
        raise DataError(f"{path}: no scores found")
    return table


@dataclass
class CmScoreSource:
    """Per-utterance CM scores, from a score table or from a trained model."""

    table: dict[str, float] | None = None
    model: IntegrationModel | None = None
    stores: tuple[EmbeddingStore, EmbeddingStore] | None = None

    @classmethod
    def from_table(cls, table: dict[str, float]) -> "CmScoreSource":
        return cls(table=table)

    @classmethod
    def from_model(cls, model: IntegrationModel, sv_store: EmbeddingStore,
                   cm_store: EmbeddingStore) -> "CmScoreSource":
        if model.mode.uses_enrollment:
            raise DataError(
                "a concat_plus_enroll model conditions on the enrollment, its "
                "spoofing score is not a per-utterance CM score"
            )
        return cls(model=model, stores=(sv_store, cm_store))

    def scores_for(self, protocol: Protocol) -> np.ndarray:
        if self.model is not None:
            sv_store, cm_store = self.stores
            rows = check_protocol_ids(protocol, sv_store, cm_store)
            return spoof_scores_for(self.model, rows, sv_store, cm_store)
        try:
            return np.array([self.table[t.test_id] for t in protocol.trials])
        except KeyError as exc:
            raise DataError(f"no CM score for test id {exc.args[0]!r}") from None


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


def _sasv_eer_of(scores: np.ndarray, is_target: np.ndarray) -> float:
    return eer(scores[is_target], scores[~is_target]).eer


def fit_cascade(s_sv, s_cm, labels: list[TrialLabel]) -> float:
    """Pick the CM gate threshold minimizing dev SASV-EER.

    Candidates are every distinct dev CM score plus the midpoints of adjacent
    distinct values, scanned in ascending order so ties keep the smallest.
    """
    s_sv = np.asarray(s_sv, dtype=np.float64)
    s_cm = np.asarray(s_cm, dtype=np.float64)
    is_target = np.array([lab is TrialLabel.TARGET for lab in labels])
    if not is_target.any() or is_target.all():
        raise DataError("cascade fitting needs target and nontarget/spoof trials")
    distinct = np.unique(s_cm)
    candidates = list(distinct) + list((distinct[:-1] + distinct[1:]) / 2.0)
    candidates.sort()
    best_tau = candidates[0]
    best_eer = np.inf
    for tau in candidates:
        e = _sasv_eer_of(cascade_scores(s_sv, s_cm, tau), is_target)
        if e < best_eer:
            best_eer = e
            best_tau = tau
    return float(best_tau)


@dataclass
class LogisticFusion:
    weight: np.ndarray  # [w_sv, w_cm]
    bias: float

    def probability(self, s_sv, s_cm) -> np.ndarray:
        u = (self.weight[0] * np.asarray(s_sv, dtype=np.float64)
             + self.weight[1] * np.asarray(s_cm, dtype=np.float64) + self.bias)
        return sigmoid(u)


def fit_logreg(s_sv, s_cm, labels: list[TrialLabel], steps: int = 1000,
               lr: float = 1e-2) -> LogisticFusion:
    """Binary logistic regression (target = 1) on the two scores.

    Full-batch Adam from zero-initialized weights; the sigmoid output is the
    fused score.
    """
    s_sv = np.asarray(s_sv, dtype=np.float64)
    s_cm = np.asarray(s_cm, dtype=np.float64)
    y = np.array([1.0 if lab is TrialLabel.TARGET else 0.0 for lab in labels])
    if y.min() == y.max():
        raise DataError("logreg fitting needs target and nontarget/spoof trials")
    params = {"weight": np.zeros(2), "bias": np.array(0.0)}
    adam = AdamState(params)
    n = y.size
    for _ in range(steps):
        u = params["weight"][0] * s_sv + params["weight"][1] * s_cm + params["bias"]
        r = (sigmoid(u) - y) / n
        grads = {
            "weight": np.array([r @ s_sv, r @ s_cm]),
            "bias": np.array(r.sum()),
        }
        adam_step(adam, params, grads, lr)
    return LogisticFusion(weight=params["weight"].copy(), bias=float(params["bias"]))


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
