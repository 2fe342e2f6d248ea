"""One-class softmax over fused scores.

Target trials are pushed above margin_real, nontarget and spoof trials below
margin_fake; scale sharpens the transition. Per trial with class index z
(0 = target, 1 = other) the loss is

    softplus(scale * (margin - score) * sign),  sign = +1 if z == 0 else -1

averaged over the batch, evaluated through log1p so arguments of magnitude
by the hundreds stay exact instead of overflowing exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DataError, NumericError


@dataclass(frozen=True)
class OneClassSoftmaxConfig:
    scale: float = 20.0
    margin_real: float = 0.9
    margin_fake: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise DataError(f"loss scale must be positive and finite, got {self.scale}")
        if not all(-math.inf < m < math.inf for m in (self.margin_real, self.margin_fake)):
            raise DataError(f"loss margins must be finite, got margin_real "
                            f"{self.margin_real} and margin_fake {self.margin_fake}")


def softplus(a: np.ndarray) -> np.ndarray:
    """log(1 + e^a), stable for large positive and negative a."""
    a = np.asarray(a, dtype=np.float64)
    return np.where(a > 0.0, a, 0.0) + np.log1p(np.exp(-np.abs(a)))


def sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-a), as e^a / (1 + e^a) for negative a: exp never overflows."""
    a = np.asarray(a, dtype=np.float64)
    e = np.exp(-np.abs(a))
    return np.where(a >= 0.0, 1.0, e) / (1.0 + e)


def one_class_softmax(cfg: OneClassSoftmaxConfig, scores, z) -> tuple[float, np.ndarray]:
    """Mean loss over a batch and its exact gradient w.r.t. the scores.

    scores: fused scores, shape [N]
    z:      class indices in {0, 1}, shape [N]
    returns (loss, grad) where grad[i] = d loss / d scores[i]
    """
    s = np.asarray(scores, dtype=np.float64)
    zi = np.asarray(z)
    if s.ndim != 1 or s.size == 0:
        raise DataError("loss needs a non-empty 1-D score batch")
    if zi.shape != s.shape:
        raise DataError("scores and class indices must have matching shapes")
    if not np.all((zi == 0) | (zi == 1)):
        raise DataError("class indices must be 0 (target) or 1 (other)")
    if not np.all(np.isfinite(s)):
        raise NumericError("non-finite score passed to the loss")
    sign = np.where(zi == 0, 1.0, -1.0)
    margin = np.where(zi == 0, cfg.margin_real, cfg.margin_fake)
    arg = cfg.scale * (margin - s) * sign
    per_trial = softplus(arg)
    n = s.size
    loss = float(per_trial.mean())
    grad = sigmoid(arg) * (-sign) * (cfg.scale / n)
    return loss, grad
