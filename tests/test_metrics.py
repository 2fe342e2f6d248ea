"""EER against a brute-force reference plus the report/CSV plumbing.

The reference implementation below counts error rates with explicit Python
loops at every distinct score and interpolates the crossing, sharing no code
with sasv.metrics.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from sasv.core import (SCORE_FIELDS, DataError, NumericError, Protocol, ScoreRecord,
                       ScoreTable, Trial, TrialLabel)
from sasv.metrics import (EerReport, EerResult, eer, export_scores,
                          format_eer_report, load_scores, sasv_report,
                          write_eer_report)


def oracle_eer(pos, neg) -> float:
    pos = [float(v) for v in pos]
    neg = [float(v) for v in neg]
    points = []
    for t in sorted(set(pos) | set(neg)):
        frr = sum(1 for v in pos if v < t) / len(pos)
        far = sum(1 for v in neg if v >= t) / len(neg)
        points.append((frr, far))
    points.append((1.0, 0.0))  # all rejected
    for i, (frr, far) in enumerate(points):
        if far - frr <= 0.0:
            if far - frr == 0.0:
                return far
            pf, pa = points[i - 1]
            w = (pa - pf) / ((pa - pf) - (far - frr))
            return 0.5 * ((pf + w * (frr - pf)) + (pa + w * (far - pa)))
    raise AssertionError("no crossing found")


def _random_pair(rng, tied: bool):
    n_pos = int(rng.integers(2, 200))
    n_neg = int(rng.integers(2, 200))
    if tied:
        pos = rng.integers(-3, 4, n_pos).astype(float)
        neg = rng.integers(-5, 2, n_neg).astype(float)
    else:
        pos = rng.normal(1.0, 1.0, n_pos)
        neg = rng.normal(-1.0, 1.0, n_neg)
    return pos, neg


def test_perfect_separation():
    assert eer([2.0, 3.0], [0.0, 1.0]).eer == 0.0
    assert eer([1.0], [0.0]).eer == 0.0


def test_total_inversion():
    assert eer([0.0, 1.0], [2.0, 3.0]).eer == 1.0


def test_all_tied_is_half():
    res = eer([5.0, 5.0, 5.0], [5.0, 5.0])
    assert res.eer == 0.5
    assert res.threshold == 5.0


def test_interpolated_crossing_hand_case():
    # FRR/FAR cross a third of the way between thresholds 2.5 and 3
    res = eer([2.0, 3.0, 4.0], [1.0, 2.5])
    assert abs(res.eer - 1.0 / 3.0) < 1e-15
    assert abs(res.threshold - (2.5 + 0.5 / 3.0)) < 1e-15


@pytest.mark.parametrize("tied", [False, True])
def test_matches_bruteforce_oracle(tied):
    rng = np.random.default_rng(42 if tied else 43)
    for _ in range(30):
        pos, neg = _random_pair(rng, tied)
        assert abs(eer(pos, neg).eer - oracle_eer(pos, neg)) <= 1e-12


def test_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    pos = np.concatenate([rng.normal(1, 1, 50), rng.integers(0, 3, 20)])
    neg = np.concatenate([rng.normal(-1, 1, 60), rng.integers(-2, 1, 20)])
    base = eer(pos, neg).eer
    assert eer(3.0 * pos + 1.0, 3.0 * neg + 1.0).eer == base
    assert abs(eer(pos**3, neg**3).eer - base) < 1e-12


def test_duplication_invariance():
    rng = np.random.default_rng(3)
    pos = rng.normal(0.5, 1.0, 31)
    neg = rng.normal(-0.5, 1.0, 47)
    base = eer(pos, neg).eer
    assert eer(np.tile(pos, 3), np.tile(neg, 3)).eer == base


def test_swapping_roles_complements():
    rng = np.random.default_rng(4)
    for tied in (False, True):
        for _ in range(15):
            pos, neg = _random_pair(rng, tied)
            assert abs(eer(pos, neg).eer + eer(neg, pos).eer - 1.0) < 1e-12


def test_threshold_stays_in_score_range():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pos, neg = _random_pair(rng, tied=False)
        res = eer(pos, neg)
        lo = min(pos.min(), neg.min())
        hi = max(pos.max(), neg.max())
        assert lo <= res.threshold <= hi


def test_eer_input_validation():
    with pytest.raises(DataError):
        eer([], [1.0])
    with pytest.raises(DataError):
        eer([1.0], [])
    with pytest.raises(NumericError):
        eer([float("nan")], [0.0])


def _table(rows, s_spf=None, s_sasv=None) -> ScoreTable:
    """A table of (enroll, test, label, s_sv) rows; s_spf and s_sasv default
    to -s_sv and 2 * s_sv."""
    s_sv = np.array([s for *_, s in rows], dtype=np.float64)
    return ScoreTable(Protocol([Trial(e, t, lab) for e, t, lab, _ in rows]), s_sv,
                      -s_sv if s_spf is None else s_spf,
                      2 * s_sv if s_sasv is None else s_sasv)


ROWS = [
    ("e1", "t1", TrialLabel.TARGET, 0.9),
    ("e1", "t2", TrialLabel.TARGET, 0.7),
    ("e1", "t3", TrialLabel.NONTARGET, 0.2),
    ("e1", "t4", TrialLabel.NONTARGET, 0.8),
    ("e1", "t5", TrialLabel.SPOOF, 0.5),
    ("e1", "t6", TrialLabel.SPOOF, 0.1),
]


def _without(label):
    return _table([r for r in ROWS if r[2] is not label])


def test_sasv_report_matches_direct_eer_calls():
    report = sasv_report(_table(ROWS))
    tar = [1.8, 1.4]
    non = [0.4, 1.6]
    spf = [1.0, 0.2]
    assert report.sv == eer(tar, non)
    assert report.spf == eer(tar, spf)
    assert report.sasv == eer(tar, non + spf)


def test_sasv_report_score_field_selects_column():
    rows = [("e1", "t1", TrialLabel.TARGET, 0.9), ("e1", "t2", TrialLabel.TARGET, 0.8),
            ("e1", "t3", TrialLabel.NONTARGET, 0.2), ("e1", "t4", TrialLabel.NONTARGET, 0.1)]
    table = _table(rows, s_sasv=np.zeros(4))
    assert sasv_report(table, "s_sv").sv.eer == 0.0
    # s_spf negates everything, so the ranking inverts completely
    assert sasv_report(table, "s_spf").sv.eer == 1.0
    with pytest.raises(DataError, match="score field"):
        sasv_report(_table(ROWS), "s_cm")


def test_sasv_report_absent_classes():
    report = sasv_report(_without(TrialLabel.SPOOF))
    assert report.spf is None
    assert report.sv is not None
    assert sasv_report(_without(TrialLabel.NONTARGET)).sv is None
    with pytest.raises(DataError, match="no target"):
        sasv_report(_without(TrialLabel.TARGET))
    with pytest.raises(DataError, match="empty"):
        sasv_report(_table([]))
    only_targets = _table([r for r in ROWS if r[2] is TrialLabel.TARGET])
    with pytest.raises(DataError, match="no nontarget or spoof"):
        sasv_report(only_targets)


def _report_by_records(records, field):
    """sasv_report over rows: each class's scores gathered record by record."""
    def values(label):
        return np.asarray([getattr(r, field) for r in records if r.trial.label is label],
                          dtype=np.float64)
    tar, non, spf = (values(label) for label in
                     (TrialLabel.TARGET, TrialLabel.NONTARGET, TrialLabel.SPOOF))
    return EerReport(sv=eer(tar, non) if non.size else None,
                     spf=eer(tar, spf) if spf.size else None,
                     sasv=eer(tar, np.concatenate([non, spf])))


T, N, S = TrialLabel.TARGET, TrialLabel.NONTARGET, TrialLabel.SPOOF


@pytest.mark.parametrize("labels", [(T, N, S), (T, S), (T, N), (N, S), (T,)],
                         ids=["all", "no-nontarget", "no-spoof", "no-target", "only-target"])
@pytest.mark.parametrize("field", ["s_sv", "s_spf", "s_sasv"])
def test_sasv_report_matches_a_report_by_records(labels, field):
    rng = np.random.default_rng(11)
    n = 500
    table = ScoreTable(
        Protocol([Trial(f"e{i % 7}", f"t{i}", labels[int(k)])
                  for i, k in enumerate(rng.integers(0, len(labels), n))]),
        rng.normal(size=n), np.round(rng.normal(size=n), 1), rng.normal(size=n) * 1e-300)
    if T in labels and len(labels) > 1:
        assert sasv_report(table, field) == _report_by_records(list(table), field)
    else:  # no EER is defined: both refuse
        with pytest.raises(DataError):
            _report_by_records(list(table), field)
        with pytest.raises(DataError, match="no target" if T not in labels
                           else "no nontarget or spoof"):
            sasv_report(table, field)


def test_score_table_rows_are_records_of_the_columns_bits():
    rng = np.random.default_rng(5)
    n = 300
    labels = list(TrialLabel)
    table = ScoreTable(
        Protocol([Trial(f"e{i % 4}", f"t{i}", labels[i % 3]) for i in range(n)]),
        np.concatenate([[-0.0, 5e-324], rng.normal(size=n - 2)]),
        rng.normal(size=n) * 1e300, rng.normal(size=n) * 1e-300)
    rows = list(table)
    assert rows == list(table)  # a second pass gives the same rows
    assert all(type(r) is ScoreRecord for r in rows)
    assert all(r.trial is t for r, t in zip(rows, table.protocol.trials, strict=True))
    for name in SCORE_FIELDS:
        column = np.array([getattr(r, name) for r in rows])
        assert column.tobytes() == getattr(table, name).tobytes(), name


def test_score_table_rows_and_columns():
    table = _table(ROWS)
    assert len(table) == len(ROWS)
    assert list(table) == [ScoreRecord(Trial(e, t, lab), s, -s, 2 * s)
                           for e, t, lab, s in ROWS]
    assert all(type(r.s_sv) is float for r in table)
    for name in ("s_sv", "s_spf", "s_sasv"):
        column = getattr(table, name)
        assert column.dtype == np.float64 and not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0
    # the table copies what it is given: the caller's array stays writable
    given = np.array([0.9, 0.7, 0.2, 0.8, 0.5, 0.1])
    table = _table(ROWS, s_spf=given)
    given[0] = 5.0
    assert table.s_spf[0] == 0.9
    with pytest.raises(DataError, match=r"s_sasv has shape \(5,\), the protocol has 6"):
        _table(ROWS, s_sasv=np.zeros(5))


def test_score_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    extremes = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e308, -1e308,
                1.7976931348623157e308]
    n = 15 + len(extremes)
    columns = [rng.normal(size=n), rng.normal(size=n) * 1e-15, rng.normal(size=n) * 1e12]
    for k, column in enumerate(columns):
        column[15:] = np.roll(extremes, k)
    labels = [TrialLabel.TARGET, TrialLabel.NONTARGET, TrialLabel.SPOOF]
    table = ScoreTable(Protocol([Trial(f"e{i}", f"t{i}", labels[i % 3]) for i in range(n)]),
                       *columns)
    path = tmp_path / "scores.csv"
    export_scores(table, str(path))
    loaded = load_scores(str(path))
    assert loaded.protocol.trials == table.protocol.trials
    for name in ("s_sv", "s_spf", "s_sasv"):
        assert getattr(loaded, name).tobytes() == getattr(table, name).tobytes(), name


def test_load_scores_rejects_bad_files(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(DataError, match="header"):
        load_scores(str(path))
    path.write_text("enroll_id,test_id,label,s_sv,s_spf,s_sasv\ne1,t1,target,0.5\n")
    with pytest.raises(DataError, match=":2:"):
        load_scores(str(path))
    path.write_text("enroll_id,test_id,label,s_sv,s_spf,s_sasv\ne1,t1,target,a,b,c\n")
    with pytest.raises(DataError, match=":2:"):
        load_scores(str(path))
    path.write_text("enroll_id,test_id,label,s_sv,s_spf,s_sasv\n")
    with pytest.raises(DataError, match="no score records"):
        load_scores(str(path))
    # past the csv module's field size limit: its csv.Error, with the line
    path.write_text("enroll_id,test_id,label,s_sv,s_spf,s_sasv\ne1,t1,target,1,2,3\n"
                    f"e1,{'t' * 131_073},target,1,2,3\n")
    with pytest.raises(DataError, match=":3: field larger than field limit"):
        load_scores(str(path))


def test_written_report_keeps_full_precision(tmp_path):
    report = sasv_report(_table(ROWS))
    path = tmp_path / "eer.csv"
    write_eer_report(report, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "eer_percent", "threshold"]
    parsed = {name: (float(e), float(t)) for name, e, t in rows[1:]}
    assert parsed["SV-EER"][0] == report.sv.eer * 100.0
    assert parsed["SASV-EER"][1] == report.sasv.threshold


def test_format_eer_report():
    report = EerReport(sv=None, spf=EerResult(0.525, 0.125), sasv=EerResult(0.01, 0.5))
    text = format_eer_report(report)
    lines = text.splitlines()
    assert len(lines) == 4
    assert "n/a" in lines[1]
    assert "52.50" in lines[2]
    assert "1.00" in lines[3]
    assert math.isclose(float(lines[2].split()[1]), 52.50)
