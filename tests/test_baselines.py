from __future__ import annotations

import numpy as np
import pytest

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
    from_records = [r.s_spf for r in score_protocol(model, protocol,
                                                    ds.sv_store, ds.cm_store)]
    assert np.array_equal(from_source, from_records)


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
    records = baselines.baseline_records("sum", protocol, s_sv, s_cm)
    assert [r.trial for r in records] == protocol.trials
    assert [r.s_sv for r in records] == [0.8, 0.6]
    assert [r.s_spf for r in records] == [0.5, -0.5]  # CM score rides along
    assert [r.s_sasv for r in records] == [1.3, 0.6 - 0.5]

    casc = baselines.baseline_records("cascade", protocol, s_sv, s_cm, 0.0)
    assert casc[0].s_sasv == 0.8
    assert casc[1].s_sasv == baselines.CASCADE_FLOOR

    fitted = baselines.LogisticFusion(weight=np.array([1.0, 1.0]), bias=0.0)
    lr = baselines.baseline_records("logreg", protocol, s_sv, s_cm, fitted)
    assert abs(lr[0].s_sasv - 1.0 / (1.0 + np.exp(-1.3))) < 1e-15

    with pytest.raises(DataError, match="unknown baseline"):
        baselines.baseline_records("mean", protocol, s_sv, s_cm)
