"""Equal error rates and the three-way SASV report.

Convention: a trial is rejected when its score falls below the threshold, so
FRR(t) is the fraction of positives strictly below t and FAR(t) the fraction
of negatives at or above t. Thresholds sweep the distinct observed scores plus
a terminal all-rejected point; the FAR/FRR crossing is located by linear
interpolation between adjacent sweep points.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import (SCORE_FIELDS, DataError, NumericError, Protocol, ScoreTable, Trial,
                   TrialLabel)

SCORE_CSV_HEADER = ["enroll_id", "test_id", "label", "s_sv", "s_spf", "s_sasv"]
EER_CSV_HEADER = ["metric", "eer_percent", "threshold"]


@dataclass(frozen=True)
class EerResult:
    eer: float
    threshold: float


@dataclass(frozen=True)
class EerReport:
    """Sub-metrics are None when the protocol has no trials of that negative class."""

    sv: EerResult | None
    spf: EerResult | None
    sasv: EerResult

    def named(self) -> tuple[tuple[str, EerResult | None], ...]:
        """(name, result) of each EER, in report order."""
        return (("SV-EER", self.sv), ("SPF-EER", self.spf), ("SASV-EER", self.sasv))


def eer(positive_scores, negative_scores) -> EerResult:
    """Equal error rate of positives against negatives.

    Args:
      positive_scores: scores that should be accepted (higher = more positive)
      negative_scores: scores that should be rejected

    Returns:
      EerResult with the interpolated rate and its operating threshold. The
      threshold always lies within [min score, max score].
    """
    pos = np.asarray(positive_scores, dtype=np.float64).ravel()
    neg = np.asarray(negative_scores, dtype=np.float64).ravel()
    if pos.size == 0 or neg.size == 0:
        raise DataError("eer needs at least one positive and one negative score")
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))):
        raise NumericError("non-finite score passed to eer")
    pos_sorted = np.sort(pos)
    neg_sorted = np.sort(neg)
    thresholds = np.unique(np.concatenate([pos, neg]))
    frr = np.searchsorted(pos_sorted, thresholds, side="left") / pos.size
    far = (neg.size - np.searchsorted(neg_sorted, thresholds, side="left")) / neg.size
    # terminal all-rejected point, pinned at the max score so the reported
    # threshold stays inside the observed range
    thresholds = np.append(thresholds, thresholds[-1])
    frr = np.append(frr, 1.0)
    far = np.append(far, 0.0)
    diff = far - frr  # monotone non-increasing; diff[0] = 1
    idx = int(np.argmax(diff <= 0.0))
    rate, t = eer_at_crossing(frr[idx - 1], far[idx - 1], frr[idx], far[idx])
    if far[idx] == frr[idx]:  # a sweep point crosses exactly: no interpolation
        return EerResult(float(rate), float(thresholds[idx]))
    threshold = thresholds[idx - 1] + t * (thresholds[idx] - thresholds[idx - 1])
    return EerResult(float(rate), float(threshold))


def eer_at_crossing(frr_prev, far_prev, frr_next, far_next):
    """The EER between two adjacent sweep points, the first with far > frr
    and the next with far <= frr, and the interpolation weight of the next
    point; where that point crosses exactly (far == frr) the EER is its own
    rate and the weight 1. Elementwise over arrays of such pairs."""
    d_prev, d_next = far_prev - frr_prev, far_next - frr_next
    t = d_prev / (d_prev - d_next)
    eer_frr = frr_prev + t * (frr_next - frr_prev)
    eer_far = far_prev + t * (far_next - far_prev)
    return np.where(d_next == 0.0, far_next, 0.5 * (eer_frr + eer_far)), t


def sasv_report(table: ScoreTable, score_field: str = "s_sasv") -> EerReport:
    """The three EERs of a scored protocol, all over the chosen score field.

    SV-EER discriminates target vs nontarget, SPF-EER target vs spoof, and
    SASV-EER target vs both pooled. A sub-metric whose negative class is
    absent comes back as None rather than a made-up zero.
    """
    if score_field not in SCORE_FIELDS:
        raise DataError(f"score field must be one of {SCORE_FIELDS}, got {score_field!r}")
    if not len(table):
        raise DataError("cannot report on an empty score table")
    code = table.protocol.codes  # 0 target, 1 nontarget, 2 spoof
    values = getattr(table, score_field)
    tar, non, spf = (values[code == k] for k in range(3))
    if tar.size == 0:
        raise DataError("protocol has no target trials, no EER is defined")
    if non.size == 0 and spf.size == 0:
        raise DataError("protocol has no nontarget or spoof trials, no EER is defined")
    sv = eer(tar, non) if non.size else None
    sp = eer(tar, spf) if spf.size else None
    sasv = eer(tar, np.concatenate([non, spf]))
    return EerReport(sv=sv, spf=sp, sasv=sasv)


def write_csv(path: str, header, rows) -> None:
    """Write a UTF-8 CSV with LF line ends: each float as `.17g`, enough
    digits to round-trip bit-exactly, and None as an empty field."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:  # csv itself writes None as ""
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def export_scores(table: ScoreTable, path: str) -> None:
    """Write a score table as CSV, every score bit-exact."""
    write_csv(path, SCORE_CSV_HEADER,
              ([t.enroll_id, t.test_id, str(t.label), a, b, c]
               for t, a, b, c in zip(table.protocol.trials, table.s_sv.tolist(),
                                     table.s_spf.tolist(), table.s_sasv.tolist())))


def load_scores(path: str) -> ScoreTable:
    trials: list[Trial] = []
    scores: list[list[float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != SCORE_CSV_HEADER:
                raise DataError(f"{path}:1: bad score CSV header {header!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 6:
                    raise DataError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
                try:
                    label = TrialLabel.parse(row[2])
                    values = [float(v) for v in row[3:6]]
                except (DataError, ValueError) as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                trials.append(Trial(row[0], row[1], label))
                scores.append(values)
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if not trials:
        raise DataError(f"{path}: no score records found")
    return ScoreTable(Protocol(trials, name=path), *np.array(scores).T)


def write_eer_report(report: EerReport, path: str) -> None:
    """CSV form of the report; eer_percent is kept at full precision, display
    rounding happens only in format_eer_report."""
    write_csv(path, EER_CSV_HEADER,
              ([name, result.eer * 100.0, result.threshold]
               for name, result in report.named() if result is not None))


def format_eer_report(report: EerReport) -> str:
    lines = [f"{'metric':<10} {'eer%':>8} {'threshold':>12}"]
    for name, result in report.named():
        if result is None:
            lines.append(f"{name:<10} {'n/a':>8} {'n/a':>12}")
        else:
            lines.append(
                f"{name:<10} {result.eer * 100.0:>8.2f} {result.threshold:>12.6f}"
            )
    return "\n".join(lines)
