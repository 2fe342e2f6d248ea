from __future__ import annotations

import numpy as np
import pytest

from sasv.core import (SCORE_FIELDS, DataError, EmbeddingStore, NumericError, Protocol,
                       Trial, TrialLabel, check_protocol_ids, cosine, sv_scores)
from sasv.model import (EMBED_DIM, HIDDEN_SIZES, InputMode, IntegrationModel,
                        score_protocol)
from sasv.neuralnet import GradientTape

SV_DIM, CM_DIM = 6, 5


def _model(mode: InputMode = InputMode.CONCAT, seed: int = 0) -> IntegrationModel:
    rng = np.random.Generator(np.random.PCG64(seed))
    return IntegrationModel(mode, SV_DIM, CM_DIM, rng)


def _stores(n_utts: int = 12, seed: int = 1):
    rng = np.random.default_rng(seed)
    rows = [(rng.normal(size=SV_DIM), rng.normal(size=CM_DIM)) for _ in range(n_utts)]
    ids = [f"u{i}" for i in range(n_utts)]
    return (EmbeddingStore("sv", ids, [sv for sv, _ in rows]),
            EmbeddingStore("cm", ids, [cm for _, cm in rows]))


def _protocol(n_trials: int, n_utts: int = 12, seed: int = 2) -> Protocol:
    rng = np.random.default_rng(seed)
    labels = [TrialLabel.TARGET, TrialLabel.NONTARGET, TrialLabel.SPOOF]
    trials = [Trial(f"u{rng.integers(n_utts)}", f"u{rng.integers(n_utts)}",
                    labels[i % 3]) for i in range(n_trials)]
    return Protocol(trials, "random")


def test_input_mode_dimensions():
    assert InputMode.CONCAT.input_dim(6, 5) == 11
    assert InputMode.CM_ONLY.input_dim(6, 5) == 5
    assert InputMode.CONCAT_PLUS_ENROLL.input_dim(6, 5) == 17
    assert InputMode.CONCAT_PLUS_ENROLL.uses_enrollment
    assert not InputMode.CONCAT.uses_enrollment


def test_assemble_input_layouts():
    enroll = np.arange(SV_DIM) + 100.0
    test_sv = np.arange(SV_DIM) * 1.0
    test_cm = np.arange(CM_DIM) + 50.0
    sv = EmbeddingStore("sv", ["e", "t"], [enroll, test_sv])
    cm = EmbeddingStore("cm", ["t"], [test_cm])
    rows = check_protocol_ids(Protocol([Trial("e", "t", TrialLabel.TARGET)]), sv, cm)

    def layout(mode):
        x = _model(mode).assemble_batch(rows, sv, cm)
        assert x.shape == (1, mode.input_dim(SV_DIM, CM_DIM))
        return x[0]

    assert np.array_equal(layout(InputMode.CONCAT), np.concatenate([test_sv, test_cm]))
    assert np.array_equal(layout(InputMode.CM_ONLY), test_cm)
    assert np.array_equal(layout(InputMode.CONCAT_PLUS_ENROLL),
                          np.concatenate([test_sv, test_cm, enroll]))


def test_assemble_batch_sv_cosines():
    model = _model()
    sv, cm = _stores()
    protocol = _protocol(20)
    rows = check_protocol_ids(protocol, sv, cm)
    x = model.assemble_batch(rows, sv, cm)
    s_sv = sv_scores(rows, sv)
    assert x.shape == (20, SV_DIM + CM_DIM)
    for i, t in enumerate(protocol.trials):
        assert s_sv[i] == cosine(sv.vector(t.enroll_id), sv.vector(t.test_id))
        assert np.array_equal(x[i, :SV_DIM], sv.vector(t.test_id))
        assert np.array_equal(x[i, SV_DIM:], cm.vector(t.test_id))


def test_scores_recompose_from_the_layers():
    model = _model()
    sv, cm = _stores()
    protocol = _protocol(20)
    records = score_protocol(model, protocol, sv, cm)

    rows = check_protocol_ids(protocol, sv, cm)
    x, s_sv = model.assemble_batch(rows, sv, cm), sv_scores(rows, sv)
    h = model.bn.forward(x)
    h = model.act1.forward(model.h1.forward(h))
    h = model.act2.forward(model.h2.forward(h))
    h = model.act3.forward(model.h3.forward(h))
    e_spf = model.proj.forward(h)
    assert e_spf.shape == (20, EMBED_DIM)
    s_spf = model.head.forward(e_spf)

    for i, r in enumerate(records):
        assert r.s_sv == s_sv[i]
        assert r.s_spf == s_spf[i]
        assert r.s_sasv == float(model.sv_weight) * s_sv[i] + s_spf[i]
        # the head is a plain cosine against the trained direction
        assert abs(r.s_spf - cosine(e_spf[i], model.head.direction)) < 1e-15


def test_enrollment_swap_leaves_spoof_score_untouched():
    model = _model()
    sv, cm = _stores()
    base = Protocol([Trial("u0", "u1", TrialLabel.TARGET),
                     Trial("u2", "u3", TrialLabel.SPOOF)])
    swapped = Protocol([Trial("u4", "u1", TrialLabel.TARGET),
                        Trial("u5", "u3", TrialLabel.SPOOF)])
    r1 = score_protocol(model, base, sv, cm)
    r2 = score_protocol(model, swapped, sv, cm)
    for a, b in zip(r1, r2):
        assert a.s_spf == b.s_spf  # bit-identical
        assert a.s_sv != b.s_sv


def test_cm_only_ignores_the_sv_embedding():
    model = _model(InputMode.CM_ONLY)
    rng = np.random.default_rng(3)
    rows = [(rng.normal(size=SV_DIM), rng.normal(size=SV_DIM), rng.normal(size=CM_DIM))
            for _ in range(4)]
    ids = [f"u{i}" for i in range(4)]
    sv_a = EmbeddingStore("sv", ids, [a for a, _, _ in rows])
    sv_b = EmbeddingStore("sv", ids, [b for _, b, _ in rows])
    cm = EmbeddingStore("cm", ids, [c for _, _, c in rows])
    protocol = Protocol([Trial("u0", "u1", TrialLabel.TARGET),
                         Trial("u2", "u3", TrialLabel.NONTARGET)])
    r_a = score_protocol(model, protocol, sv_a, cm)
    r_b = score_protocol(model, protocol, sv_b, cm)
    for a, b in zip(r_a, r_b):
        assert a.s_spf == b.s_spf
        assert a.s_sv != b.s_sv


def test_direction_rescaling_leaves_scores_invariant():
    model = _model()
    sv, cm = _stores()
    protocol = _protocol(10)
    before = [r.s_spf for r in score_protocol(model, protocol, sv, cm)]
    model.head.direction *= 7.25
    after = [r.s_spf for r in score_protocol(model, protocol, sv, cm)]
    assert np.allclose(before, after, rtol=0, atol=1e-12)


def test_sv_weight_scales_the_fusion():
    model = _model()
    model.sv_weight[()] = 2.5
    s_sv = np.array([0.5, -0.25])
    s_spf = np.array([0.125, 0.75])
    assert np.array_equal(model.fuse(s_sv, s_spf), 2.5 * s_sv + s_spf)


def test_spoof_scores_rejects_bad_shapes():
    model = _model()
    with pytest.raises(DataError, match="shape"):
        model.spoof_scores(np.ones(SV_DIM + CM_DIM))
    with pytest.raises(DataError, match="shape"):
        model.spoof_scores(np.ones((3, SV_DIM + CM_DIM + 1)))


def test_parameter_registry_and_state():
    model = _model()
    params = model.params.values
    expected = {"bn.gamma", "bn.beta", "sv_weight", "head.direction"}
    for name in ("h1", "h2", "h3", "proj"):
        expected |= {f"{name}.weight", f"{name}.bias"}
    assert set(params) == expected
    assert params["h1.weight"].shape == (HIDDEN_SIZES[0], SV_DIM + CM_DIM)
    assert params["proj.weight"].shape == (EMBED_DIM, HIDDEN_SIZES[2])
    assert float(params["sv_weight"]) == 1.0
    # live references, not copies: the optimizer updates these in place
    params["h1.bias"][0] = 123.0
    assert model.h1.bias[0] == 123.0
    # the checkpoint's arrays: the parameters in buffer order, then the
    # running statistics, each the model's own array
    state = model.state()
    assert list(state) == [*params, "bn.running_mean", "bn.running_var"]
    assert state["bn.running_var"] is model.bn.running_var
    state["bn.running_mean"][0] = 7.0
    state["sv_weight"][()] = 2.5
    assert model.bn.running_mean[0] == 7.0 and float(model.sv_weight) == 2.5


def _bits(table, rows=slice(None)) -> list[bytes]:
    return [getattr(table, name)[rows].tobytes() for name in SCORE_FIELDS]


def test_score_protocol_is_deterministic_and_batch_invariant():
    model = _model(InputMode.CONCAT_PLUS_ENROLL)
    sv, cm = _stores(n_utts=30)
    protocol = _protocol(600, n_utts=30)  # more distinct pairs than one chunk
    r1 = score_protocol(model, protocol, sv, cm)
    assert r1.protocol is protocol
    assert _bits(score_protocol(model, protocol, sv, cm)) == _bits(r1)
    # each trial scores the same alone, and in the reversed second half
    for i in (0, 299, 599):
        alone = score_protocol(model, Protocol([protocol.trials[i]]), sv, cm)
        assert _bits(alone) == _bits(r1, slice(i, i + 1))
    tail = Protocol(protocol.trials[:299:-1])
    assert _bits(score_protocol(model, tail, sv, cm)) == _bits(r1, slice(None, 299, -1))


def test_score_protocol_checks_ids():
    model = _model()
    sv, cm = _stores(n_utts=4)
    protocol = Protocol([Trial("u0", "missing", TrialLabel.TARGET)])
    with pytest.raises(DataError, match="missing"):
        score_protocol(model, protocol, sv, cm)


def test_training_forward_names_a_batch_variance_overflow():
    model = IntegrationModel(InputMode.CM_ONLY, 2, 2, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(6, 2))
    assert np.all(np.isfinite(model.spoof_scores(x, GradientTape())))
    # batch norm is scale-invariant, but squaring entries near 1e160 overflows
    with pytest.raises(NumericError, match="batch norm variance overflowed"):
        model.spoof_scores(x * 1e160, GradientTape())
