"""The benchmark's output checks pass on true outputs and fail on perturbed ones.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import checks  # noqa: E402
import run  # noqa: E402
from sasv import baselines, metrics  # noqa: E402
from sasv.core import EmbeddingStore, TrialLabel, save_embeddings  # noqa: E402


def _nudge(values, index=0):
    out = np.array(values, dtype=np.float64)
    out[index] = np.nextafter(out[index], np.inf)
    return out


@pytest.fixture
def scored():
    rng = np.random.default_rng(5)
    labels = ["target"] * 40 + ["nontarget"] * 40 + ["spoof"] * 40
    scores = np.concatenate([rng.normal(1.0, 1.0, 40), rng.normal(-1.0, 1.0, 80)])
    return labels, scores


def _report(labels, scores):
    labels = np.asarray(labels)
    result = {}
    for key, neg in (("sv", labels == "nontarget"), ("spf", labels == "spoof"),
                     ("sasv", labels != "target")):
        result[key] = SimpleNamespace(
            eer=metrics.eer(scores[labels == "target"], scores[neg]).eer)
    return SimpleNamespace(**result)


def test_counted_eer_matches_hand_count():
    # separated classes give 0; interleaved ones cross exactly at FAR = FRR = 0.5
    assert checks.counted_eer([3.0, 4.0], [1.0, 2.0]) == 0.0
    assert checks.counted_eer([1.0, 3.0], [2.0, 4.0]) == 0.5


def test_report_check_catches_a_moved_score_and_a_wrong_eer(scored):
    labels, scores = scored
    report = _report(labels, scores)
    assert checks.check_report(report, labels, scores, "r") == []
    moved = scores.copy()
    moved[int(np.argmax(scores[:40]))] = scores.min() - 1.0  # best target to the bottom
    assert checks.check_report(report, labels, moved, "r")
    report.spf = SimpleNamespace(eer=report.spf.eer + 1e-9)
    assert checks.check_report(report, labels, scores, "r")


def test_cosine_check_catches_a_nudged_score():
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(6, 4))
    ids = {f"u{i}": i for i in range(6)}
    enroll, test = ["u0", "u1", "u2"], ["u3", "u4", "u5"]
    e, t = matrix[:3], matrix[3:]
    s_sv = (e * t).sum(1) / (np.linalg.norm(e, axis=1) * np.linalg.norm(t, axis=1))
    assert checks.check_cosines(s_sv, enroll, test, ids, matrix, "c") == []
    s_sv[1] += 1e-9
    assert checks.check_cosines(s_sv, enroll, test, ids, matrix, "c")


def test_fusion_identity_is_bit_exact():
    s_sv, s_spf = np.array([0.1, 0.7, -0.3]), np.array([0.5, -0.2, 0.9])
    s_sasv = 1.25 * s_sv + s_spf
    assert checks.check_fusion_identity(s_sasv, s_sv, s_spf, 1.25, "f") == []
    assert checks.check_fusion_identity(_nudge(s_sasv, 2), s_sv, s_spf, 1.25, "f")


def test_shared_test_utterances_need_one_spoof_score():
    test_ids, s_spf = ["a", "b", "a", "b"], np.array([0.3, 0.4, 0.3, 0.4])
    assert checks.check_shared_test_scores(test_ids, s_spf, "s") == []
    assert checks.check_shared_test_scores(test_ids, _nudge(s_spf, 3), "s")


def test_same_rows_catches_one_ulp_and_a_label():
    rows = [("e", "t1", "target", 0.1, 0.2, 0.3), ("e", "t2", "spoof", 0.4, 0.5, 0.6)]
    assert checks.check_same_rows(rows, list(rows), "rows") == []
    bumped = list(rows)
    bumped[1] = rows[1][:5] + (float(np.nextafter(0.6, 1.0)),)
    assert checks.check_same_rows(rows, bumped, "rows")
    relabelled = [rows[0], ("e", "t2", "nontarget") + rows[1][3:]]
    assert checks.check_same_rows(rows, relabelled, "rows")
    assert checks.check_same_rows(rows, rows[:1], "rows")


def test_enrollment_swap_and_bytes_and_sum():
    s_spf = np.array([0.25, -0.5])
    assert checks.check_enrollment_swap(s_spf, s_spf.copy(), "swap") == []
    assert checks.check_enrollment_swap(s_spf, _nudge(s_spf), "swap")
    assert checks.check_equal_bytes(b"SASV\x01", b"SASV\x01", "b") == []
    assert checks.check_equal_bytes(b"SASV\x01", b"SASV\x00", "b")
    s_sv, s_cm = np.array([0.1, 0.2]), np.array([1.0, -2.0])
    assert checks.check_sum(s_sv + s_cm, s_sv, s_cm, "sum") == []
    assert checks.check_sum(_nudge(s_sv + s_cm), s_sv, s_cm, "sum")


def test_best_epoch_must_be_the_first_arg_min():
    history = [0.3, 0.1, 0.2, 0.1]
    assert checks.check_best_epoch(2, history, "e") == []
    assert checks.check_best_epoch(4, history, "e")  # ties keep the earlier epoch
    assert checks.check_best_epoch(3, history, "e")


def _cascade_case(seed=3, n=60):
    rng = np.random.default_rng(seed)
    labels = rng.choice(["target", "nontarget", "spoof"], size=n)
    s_sv = np.where(labels == "nontarget", rng.normal(0.0, 0.3, n), rng.normal(0.8, 0.3, n))
    s_cm = np.where(labels == "spoof", rng.normal(-1.0, 0.8, n), rng.normal(1.0, 0.8, n))
    return s_sv, s_cm, list(labels)


def test_cascade_check_accepts_the_fit_and_rejects_a_worse_tau():
    s_sv, s_cm, labels = _cascade_case()
    tau = baselines.fit_cascade(s_sv, s_cm, [TrialLabel(x) for x in labels])
    assert checks.check_cascade_tau(tau, s_sv, s_cm, labels, seed=0, sample=200) == []
    worst = checks.cascade_candidates(s_cm)[-1]  # gates all but the top trial
    assert checks.check_cascade_tau(worst, s_sv, s_cm, labels, seed=0)
    assert checks.check_cascade_tau(tau + 1e-7, s_sv, s_cm, labels, seed=0)


def test_cascade_check_rejects_a_larger_tied_tau():
    # perfect SV separation: gating the lowest-CM trial (a nontarget) changes
    # nothing, so the two smallest candidates tie and the smaller must win
    s_sv = np.array([0.9, 0.9, 0.1, 0.1])
    s_cm = np.array([2.0, 3.0, 1.0, 4.0])
    labels = ["target", "target", "nontarget", "nontarget"]
    tau = baselines.fit_cascade(s_sv, s_cm, [TrialLabel(x) for x in labels])
    assert tau == 1.0
    assert checks.check_cascade_tau(tau, s_sv, s_cm, labels, seed=0) == []
    assert checks.check_cascade_tau(1.5, s_sv, s_cm, labels, seed=0)


def test_logreg_check_needs_open_interval_and_monotone_scores():
    weight, bias = np.array([2.0, 1.0]), -0.5
    s_sv, s_cm = np.array([0.1, 0.5, 0.9]), np.array([0.0, 0.2, -0.1])
    fused = baselines.LogisticFusion(weight=weight, bias=bias).probability(s_sv, s_cm)
    assert checks.check_logreg(fused, weight, bias, s_sv, s_cm) == []
    assert checks.check_logreg(fused[[1, 0, 2]], weight, bias, s_sv, s_cm)
    clipped = fused.copy()
    clipped[2] = 1.0
    assert checks.check_logreg(clipped, weight, bias, s_sv, s_cm)


def test_parse_reads_back_what_the_program_wrote(tmp_path):
    rng = np.random.default_rng(9)
    store = EmbeddingStore("sv")
    for i in range(5):
        store.add(f"u{i}", rng.normal(size=7))
    path = str(tmp_path / "sv.tsv")
    save_embeddings(store, path)
    ids, matrix = checks.parse_embedding_text(path)
    assert list(ids) == [f"u{i}" for i in range(5)]
    assert matrix.tobytes() == np.stack([store.vector(f"u{i}") for i in range(5)]).tobytes()


def test_tally_counts_a_check_with_any_failure_as_one_failed_operation():
    tally = run.Tally()
    tally.check([])
    tally.check(["first miss", "second miss"])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failures == ["first miss", "second miss"]
