from __future__ import annotations

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import reference_cascade as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sasv import baselines
from sasv.core import (DataError, EmbeddingStore, NumericError, Protocol, Trial,
                       TrialLabel)
from sasv.metrics import eer
from sasv.model import InputMode, IntegrationModel, score_protocol


def test_load_cm_scores(tmp_path):
    path = tmp_path / "cm.tsv"
    path.write_text("# utterance scores\nu1\t0.5\nu2\t-1.25e-1\n")
    table = baselines.load_cm_scores(str(path))
    assert table.kind == "cm" and table.dimension == 1
    assert table.index == {"u1": 0, "u2": 1}
    assert table.matrix[:, 0].tolist() == [0.5, -0.125]


@pytest.mark.parametrize("line,fragment", [
    ("u1 0.5", "ID<TAB>values"),
    ("u1\tabc", "bad float"),
    ("u1\tinf", "non-finite"),
])
def test_load_cm_scores_errors(tmp_path, line, fragment):
    path = tmp_path / "cm.tsv"
    path.write_text(f"{line}\n")
    with pytest.raises(DataError, match=fragment) as err:
        baselines.load_cm_scores(str(path))
    assert ":1:" in str(err.value)


def test_load_cm_scores_duplicate_and_empty(tmp_path):
    path = tmp_path / "cm.tsv"
    path.write_text("u1\t0.5\nu1\t0.7\n")
    with pytest.raises(DataError, match=r"cm\.tsv:2: duplicate embedding id 'u1'"):
        baselines.load_cm_scores(str(path))
    path.write_text("# none\n")
    with pytest.raises(DataError, match="no embeddings found"):
        baselines.load_cm_scores(str(path))


@pytest.mark.parametrize("text,fragment", [
    ("u1\t0.5\n\t0.7\n", "empty embedding id"),
    ("# scores\nu1\t0.5 0.7\nu2\t0.1 0.2\n", "one score per line, found 2"),
], ids=["empty-id", "two-values"])
def test_load_cm_scores_refuses_what_the_embedding_rules_refuse(tmp_path, text, fragment):
    path = tmp_path / "cm.tsv"
    path.write_text(text)
    with pytest.raises(DataError, match=fragment) as err:
        baselines.load_cm_scores(str(path))
    assert str(err.value).startswith(f"{path}:2: ")


def _two_trial_protocol():
    return Protocol([Trial("e1", "u1", TrialLabel.TARGET),
                     Trial("e1", "u2", TrialLabel.SPOOF)])


def test_table_source_lookup_order_and_missing():
    sv = EmbeddingStore("sv", ["e1", "u1", "u2", "u9"], np.eye(4))
    # table rows in another order than the trials ask for them
    source = baselines.CmScoreSource(
        sv, EmbeddingStore("cm", ["u2", "u1"], [[-1.0], [1.0]]))
    scores = source.scores_for(_two_trial_protocol())
    assert np.array_equal(scores, [1.0, -1.0])
    missing = Protocol([Trial("e1", "u1", TrialLabel.TARGET),
                        Trial("e1", "u9", TrialLabel.TARGET)])
    with pytest.raises(DataError, match="^trial 2: test id 'u9' missing from cm store$"):
        source.scores_for(missing)


def test_model_source_matches_protocol_scoring(tiny_dataset):
    ds = tiny_dataset
    rng = np.random.Generator(np.random.PCG64(5))
    model = IntegrationModel(InputMode.CM_ONLY, ds.config.sv_dim,
                             ds.config.cm_dim, rng)
    protocol = ds.protocols["eval"]
    source = baselines.CmScoreSource.from_model(model, ds.sv_store, ds.cm_store)
    from_source = source.scores_for(protocol)
    table = score_protocol(model, protocol, ds.sv_store, ds.cm_store)
    assert from_source.tobytes() == table.s_spf.tobytes()


def test_model_source_rejects_enrollment_conditioning(tiny_dataset):
    ds = tiny_dataset
    rng = np.random.Generator(np.random.PCG64(5))
    model = IntegrationModel(InputMode.CONCAT_PLUS_ENROLL, ds.config.sv_dim,
                             ds.config.cm_dim, rng)
    with pytest.raises(DataError, match="enrollment"):
        baselines.CmScoreSource.from_model(model, ds.sv_store, ds.cm_store)


def test_sv_scores_for():
    sv = EmbeddingStore("sv", ["e1", "u1", "u2"], [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    scores = baselines.sv_scores_for(_two_trial_protocol(), sv)
    assert scores[0] == 0.7071067811865475
    assert scores[1] == 0.0


def test_sum_fusion():
    assert np.array_equal(baselines.sum_fusion([1.0, 2.0], [0.5, -2.0]),
                          [1.5, 0.0])


def test_cascade_scores_gate_and_floor():
    s_sv = np.array([0.9, 0.2, 0.8])
    s_cm = np.array([1.0, -1.0, 0.0])
    out = baselines.cascade_scores(s_sv, s_cm, tau=0.0)
    # s_cm < tau is rejected to a constant floor below every clamped cosine
    assert out[0] == 0.9
    assert out[1] == baselines.CASCADE_FLOOR == -2.0
    assert out[2] == 0.8  # ties with tau pass through
    # a gated trial scores the same whatever other trials share the set
    beside_high = baselines.cascade_scores([0.1, 0.5, 0.9], [-1.0, 1.0, 1.0], 0.0)
    beside_low = baselines.cascade_scores([0.1, -0.5], [-1.0, 1.0], 0.0)
    assert beside_high[0] == beside_low[0] == baselines.CASCADE_FLOOR


def test_fit_cascade_finds_the_exhaustive_minimum():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = 40
        labels = [TrialLabel.TARGET if i < n // 2 else TrialLabel.SPOOF
                  for i in range(n)]
        is_target = np.array([lab is TrialLabel.TARGET for lab in labels])
        s_sv = rng.normal(0.5, 0.5, n) * np.where(is_target, 1.0, 0.2)
        s_cm = rng.normal(0.0, 1.0, n) + np.where(is_target, 1.0, -1.0)
        tau = baselines.fit_cascade(s_sv, s_cm, labels)

        def eer_at(t):
            fused = baselines.cascade_scores(s_sv, s_cm, t)
            return eer(fused[is_target], fused[~is_target]).eer

        distinct = np.unique(s_cm)
        candidates = sorted(list(distinct) + list((distinct[:-1] + distinct[1:]) / 2))
        best = min(eer_at(t) for t in candidates)
        assert eer_at(tau) == best


def test_fit_cascade_tie_takes_smallest_candidate():
    # gating at 0 or at 5 both reach EER 0; the scan keeps the smaller tau
    s_sv = np.array([0.9, 0.95, 0.8, 0.3])
    s_cm = np.array([5.0, -5.0, 5.0, -5.0])
    labels = [TrialLabel.TARGET, TrialLabel.SPOOF, TrialLabel.TARGET,
              TrialLabel.SPOOF]
    tau = baselines.fit_cascade(s_sv, s_cm, labels)
    assert tau == 0.0


def test_fit_cascade_needs_both_classes():
    with pytest.raises(DataError):
        baselines.fit_cascade([1.0], [1.0], [TrialLabel.TARGET])


def test_fit_cascade_rejects_non_finite_scores():
    # a NaN CM score would sort nowhere among the candidates and never gate;
    # both fits share the one check, before any arithmetic on the scores
    labels = [TrialLabel.TARGET, TrialLabel.SPOOF, TrialLabel.TARGET,
              TrialLabel.NONTARGET]
    for fit in (baselines.fit_cascade, baselines.fit_logreg):
        message = f"non-finite score passed to {fit.__name__}"
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NumericError, match=message):
                fit([0.9, 0.2, 0.8, 0.1], [bad, 1.0, 0.3, -1.0], labels)
            with pytest.raises(NumericError, match=message):
                fit([bad, 0.2, 0.8, 0.1], [0.5, 1.0, 0.3, -1.0], labels)


def test_fits_refuse_score_columns_that_do_not_match_the_labels():
    labels = [TrialLabel.TARGET, TrialLabel.SPOOF]
    for fit in (baselines.fit_cascade, baselines.fit_logreg):
        for s_sv, s_cm, fit_labels in (([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], labels),
                                       ([0.1, 0.2], [1.0, 2.0, 3.0], labels),
                                       ([0.1, 0.2, 0.3], [1.0, 2.0], labels + labels[:1]),
                                       ([[0.1, 0.2]], [[1.0, 2.0]], labels),
                                       (0.1, 1.0, labels[:1])):
            with pytest.raises(DataError, match=f"^fit_{fit.__name__[4:]} needs two 1-D"):
                fit(s_sv, s_cm, fit_labels)


def _sweep_case(rng, n, n_groups, s_sv):
    """Trials in n_groups CM groups, each drawn by some trial; the trials of
    the lowest third of the groups are spoofs, the rest a target or a
    nontarget each. The sweep's arguments, as fit_cascade makes them."""
    group = rng.permutation(np.concatenate(
        [np.arange(n_groups), rng.integers(0, n_groups, n - n_groups)]))
    s_cm = np.sort(rng.normal(size=n_groups))[group]
    code = np.where(group < n_groups // 3, 2, rng.integers(0, 2, n))  # 0 is a target
    distinct, group = np.unique(s_cm, return_inverse=True)
    return s_sv(rng, code), group, distinct.size, code == 0


@pytest.mark.parametrize("n,n_groups,s_sv", [
    # the fusion dev set's shape, every s_sv distinct: 14 levels
    (9600, 6400, lambda rng, code: rng.normal(np.where(code == 1, 0.0, 0.6), 0.25)),
    # a coarse grid: scores tie across labels and groups
    (3000, 700, lambda rng, code: rng.integers(-4, 9, code.size) / 8.0),
    # at and below CASCADE_FLOOR, where gating moves the crossing right
    (2000, 1500, lambda rng, code: np.where(
        rng.random(code.size) < 0.2, baselines.CASCADE_FLOOR,
        rng.normal(np.where(code == 0, -1.0, -2.5), 1.0))),
    # one CM group: the only prefixes gate nothing or everything
    (1000, 1, lambda rng, code: rng.normal(np.where(code == 0, 0.5, 0.0), 0.3)),
])
def test_gated_prefix_eers_equal_the_pointer_walk(n, n_groups, s_sv):
    s_sv, group, n_groups, is_target = _sweep_case(np.random.default_rng(n), n, n_groups,
                                                   s_sv)
    if n == 9600:
        assert np.unique(s_sv).size == n and n_groups == 6400
    swept = baselines._gated_prefix_eers(s_sv, group, n_groups, is_target)
    walked = reference.gated_prefix_eers(s_sv, group, n_groups, is_target)
    assert swept.dtype == walked.dtype and swept.tobytes() == walked.tobytes()


def test_logreg_separates_and_orients():
    rng = np.random.default_rng(8)
    n = 60
    labels = [TrialLabel.TARGET if i < n // 2 else TrialLabel.SPOOF
              for i in range(n)]
    y = np.array([lab is TrialLabel.TARGET for lab in labels])
    s_sv = rng.normal(0, 0.1, n)
    s_cm = np.where(y, 2.0, -2.0) + rng.normal(0, 0.2, n)
    fitted = baselines.fit_logreg(s_sv, s_cm, labels)
    assert fitted.weight[1] > 0.0  # CM score carries the signal
    prob = fitted.probability(s_sv, s_cm)
    assert prob[y].min() > prob[~y].max()
    assert np.all((prob > 0.0) & (prob < 1.0))


MAGNITUDES = [1e-300, 1e-8, 1e-2, 1.0, 30.0, 1e4, 1e100, 1e160, 1e300]
LOGREG_ROWS = st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
                                 st.sampled_from(list(TrialLabel))),
                       min_size=0, max_size=200)


def _fit_data(rows, scale_sv, scale_cm):
    # a target and a spoof first, so that both classes are present
    rows = [(0.5, 1.0, TrialLabel.TARGET), (-0.5, -1.0, TrialLabel.SPOOF)] + rows
    return (np.array([r[0] for r in rows]) * scale_sv,
            np.array([r[1] for r in rows]) * scale_cm, [r[2] for r in rows])


LAMBDA = mpmath.mpf(baselines.LOGREG_L2)


def _mp_objective(x, y, v):
    """J at v = [v_sv, v_cm, bias] on the scaled columns x, and its gradient,
    in mpmath."""
    n = len(y)
    u = [v[0] * a + v[1] * b + v[2] for a, b in zip(*x)]
    loss = mpmath.fsum(mpmath.log1p(mpmath.exp(ui)) - yi * ui for ui, yi in zip(u, y)) / n
    residual = [1 / (1 + mpmath.exp(-ui)) - yi for ui, yi in zip(u, y)]
    grad = [mpmath.fsum(r * a for r, a in zip(residual, x[0])) / n + LAMBDA * v[0],
            mpmath.fsum(r * b for r, b in zip(residual, x[1])) / n + LAMBDA * v[1],
            mpmath.fsum(residual) / n]
    return loss + LAMBDA / 2 * (v[0] ** 2 + v[1] ** 2), grad


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(rows=LOGREG_ROWS, scale_sv=st.sampled_from(MAGNITUDES),
       scale_cm=st.sampled_from(MAGNITUDES))
@example(rows=[(0.25, 0.5 + i % 7, TrialLabel(("target", "spoof")[i % 2]))
               for i in range(200)], scale_sv=1.0, scale_cm=1.0)
def test_fit_logreg_reaches_the_optimum_of_its_objective(rows, scale_sv, scale_cm):
    s_sv, s_cm, labels = _fit_data(rows, scale_sv, scale_cm)
    fitted = baselines.fit_logreg(s_sv, s_cm, labels)
    # the objective's columns: each scaled by the power of two that brings
    # its max |value| into [0.5, 1), its weight by the inverse
    shift = [math.frexp(float(np.abs(col).max()))[1] for col in (s_sv, s_cm)]
    with mpmath.workdps(50):
        x = [[mpmath.ldexp(mpmath.mpf(float(value)), -k) for value in col]
             for col, k in zip((s_sv, s_cm), shift)]
        y = [int(lab is TrialLabel.TARGET) for lab in labels]
        v = [mpmath.ldexp(mpmath.mpf(float(w)), k) for w, k in zip(fitted.weight, shift)]
        v.append(mpmath.mpf(fitted.bias))
        at_fit, grad = _mp_objective(x, y, v)
        assert max(abs(g) for g in grad) <= baselines.LOGREG_TOL + 1e-14
        # no move of one coordinate lowers J
        for k in range(3):
            for h in (-1e-3, 1e-3):
                moved = list(v)
                moved[k] += h
                assert _mp_objective(x, y, moved)[0] >= at_fit, (k, h)


def _outcome(s_sv, s_cm, labels):
    """A fit's weights and bias, or the NumericError it raised."""
    try:
        fitted = baselines.fit_logreg(s_sv, s_cm, labels)
    except NumericError as exc:
        return str(exc)
    return fitted.weight, fitted.bias


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rows=LOGREG_ROWS, scale_sv=st.sampled_from(MAGNITUDES),
       scale_cm=st.sampled_from(MAGNITUDES), a=st.integers(-64, 64),
       b=st.integers(-64, 64))
def test_fit_logreg_scales_its_weights_with_a_power_of_two_scaling_of_a_score(
        rows, scale_sv, scale_cm, a, b):
    s_sv, s_cm, labels = _fit_data(rows, scale_sv, scale_cm)
    with np.errstate(over="ignore"):
        scaled_sv, scaled_cm = np.ldexp(s_sv, a), np.ldexp(s_cm, b)
    if not (np.array_equal(np.ldexp(scaled_sv, -a), s_sv)
            and np.array_equal(np.ldexp(scaled_cm, -b), s_cm)):
        return  # the scaling over- or underflowed somewhere: it is not exact
    plain = _outcome(s_sv, s_cm, labels)
    scaled = _outcome(scaled_sv, scaled_cm, labels)
    if isinstance(plain, str):
        assert scaled == plain
        return
    with np.errstate(over="ignore"):
        weight = np.ldexp(plain[0], [-a, -b])
    if not np.all(np.isfinite(weight)):
        assert scaled == "logreg weight overflows at the scale of its scores"
        return
    assert scaled[0].tobytes() == weight.tobytes()
    assert np.float64(scaled[1]).tobytes() == np.float64(plain[1]).tobytes()


_THREADS_FIT = """
import numpy as np
from sasv.baselines import fit_logreg
from sasv.core import TrialLabel
rng = np.random.default_rng(0)
n = 10_001  # above the length at which OpenBLAS splits a dot between threads
k = rng.integers(0, 3, n)
labels = [list(TrialLabel)[i] for i in k]
s_sv = rng.normal(0.0, 0.3, n) + 0.5 * (k == 0)
s_cm = rng.normal(0.0, 2.0, n) + 4.0 * (k != 2)
fitted = fit_logreg(s_sv, s_cm, labels)
print(fitted.weight.tobytes().hex(), np.float64(fitted.bias).tobytes().hex())
"""


def test_fit_logreg_bits_do_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(os.path.abspath(baselines.__file__)))
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _THREADS_FIT], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        bits.append(run.stdout)
    assert bits[0] == bits[1]


def test_logreg_needs_both_classes():
    with pytest.raises(DataError):
        baselines.fit_logreg([1.0, 2.0], [1.0, 2.0],
                             [TrialLabel.TARGET, TrialLabel.TARGET])


def test_fit_outputs_save_and_show_each_fit():
    assert set(baselines.FITS) == {"cascade", "logreg"} < set(baselines.BASELINE_KINDS)
    ckpt, line = baselines.fit_outputs("cascade", 0.375)
    assert (ckpt.kind, ckpt.meta, list(ckpt.arrays)) == ("cascade", {}, ["tau"])
    assert ckpt.arrays["tau"] == 0.375 and line == "fitted cascade threshold 0.375000"
    fitted = baselines.LogisticFusion(weight=np.array([0.8, -0.3]), bias=0.1)
    ckpt, line = baselines.fit_outputs("logreg", fitted)
    assert (ckpt.kind, ckpt.meta, list(ckpt.arrays)) == ("logreg", {}, ["weight", "bias"])
    assert ckpt.arrays["weight"].tolist() == [0.8, -0.3] and ckpt.arrays["bias"] == 0.1
    assert line == "fitted logreg weights 0.8000 -0.3000 bias 0.1000"


def test_baseline_records_columns():
    protocol = _two_trial_protocol()
    s_sv = np.array([0.8, 0.6])
    s_cm = np.array([0.5, -0.5])
    table = baselines.baseline_records("sum", protocol, s_sv, s_cm)
    assert table.protocol is protocol
    assert table.s_sv.tolist() == [0.8, 0.6]
    assert table.s_spf.tolist() == [0.5, -0.5]  # CM score rides along
    assert table.s_sasv.tolist() == [1.3, 0.6 - 0.5]

    casc = baselines.baseline_records("cascade", protocol, s_sv, s_cm, 0.0)
    assert casc.s_sasv.tolist() == [0.8, baselines.CASCADE_FLOOR]

    fitted = baselines.LogisticFusion(weight=np.array([1.0, 1.0]), bias=0.0)
    lr = baselines.baseline_records("logreg", protocol, s_sv, s_cm, fitted)
    assert abs(lr.s_sasv[0] - 1.0 / (1.0 + np.exp(-1.3))) < 1e-15

    with pytest.raises(DataError, match="unknown baseline"):
        baselines.baseline_records("mean", protocol, s_sv, s_cm)
