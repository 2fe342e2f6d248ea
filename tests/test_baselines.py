from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sasv import baselines
from sasv.core import (DataError, EmbeddingStore, NumericError, Protocol, Trial,
                       TrialLabel)
from sasv.loss import sigmoid
from sasv.metrics import eer
from sasv.model import InputMode, IntegrationModel, score_protocol
from sasv.training import AdamState, adam_step


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


def _fit_logreg_reference(s_sv, s_cm, labels):
    """fit_logreg's loop as first written: numpy temporaries and adam_step on
    one [w_sv, w_cm, bias] array."""
    s_sv = np.asarray(s_sv, dtype=np.float64)
    s_cm = np.asarray(s_cm, dtype=np.float64)
    y = np.array([lab is TrialLabel.TARGET for lab in labels], dtype=np.float64)
    params = np.zeros(3)
    grads = np.empty(3)
    adam = AdamState(params)
    n = y.size
    for _ in range(baselines.LOGREG_STEPS):
        u = params[0] * s_sv + params[1] * s_cm + params[2]
        r = (sigmoid(u) - y) / n
        grads[0] = r @ s_sv
        grads[1] = r @ s_cm
        grads[2] = r.sum()
        adam_step(adam, params, grads, baselines.LOGREG_LR)
    return params[:2].copy(), float(params[2])


def _outcome(fit, s_sv, s_cm, labels):
    """The bits of a fit's weights and bias, or the NumericError it raised."""
    try:
        weight, bias = fit(s_sv, s_cm, labels)
    except NumericError as exc:
        return str(exc)
    return weight.tobytes(), np.float64(bias).tobytes()


MAGNITUDES = [1e-300, 1e-8, 1e-2, 1.0, 30.0, 1e4, 1e100, 1e160, 1e300]
# at CM scale 1e300, rows whose first CM gradient's square overflows
OVERFLOWING = [(0.25, 0.5, TrialLabel.NONTARGET)] * 40


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
                               st.sampled_from(list(TrialLabel))),
                     min_size=0, max_size=300),
       scale_sv=st.sampled_from(MAGNITUDES), scale_cm=st.sampled_from(MAGNITUDES))
@example(rows=OVERFLOWING, scale_sv=1.0, scale_cm=1e300)
@example(rows=[(0.25, 0.5 + i % 7, TrialLabel(("target", "spoof")[i % 2]))
               for i in range(2049)], scale_sv=1.0, scale_cm=1.0)
def test_fit_logreg_matches_the_temporaries_loop(rows, scale_sv, scale_cm):
    overflows = (rows, scale_cm) == (OVERFLOWING, 1e300)
    # a target and a spoof first, so that both classes are present
    rows = [(0.5, 1.0, TrialLabel.TARGET), (-0.5, -1.0, TrialLabel.SPOOF)] + rows
    s_sv = np.array([r[0] for r in rows]) * scale_sv
    s_cm = np.array([r[1] for r in rows]) * scale_cm
    labels = [r[2] for r in rows]

    def fit(*args):
        fitted = baselines.fit_logreg(*args)
        return fitted.weight, fitted.bias

    got = _outcome(fit, s_sv, s_cm, labels)
    assert got == _outcome(_fit_logreg_reference, s_sv, s_cm, labels)
    if overflows:
        assert got == "non-finite gradient at flat index 1 (or its square)"


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
