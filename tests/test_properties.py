"""Property-based checks of the scoring path and the embedding files.

A trial's scores must depend on that trial alone, whatever other trials share
its protocol; the CM scores of a model source must equal the spoofing scores
of protocol scoring; ids must resolve to the rows, or fail at the first
missing id, that a per-trial loop gives, a protocol's label codes and
factorized id columns must give back each trial, and the target mask and the
label counts must be those of per-trial loops; any id a store accepts must survive
a save and load; a store built from all of its rows must hold what the
per-row reference store holds after adding them one by one, or fail where it
first fails; and the bulk embedding loader must load what the line-by-line
reference loads, or fail with the same error class at the same first faulty
line.
Inputs are drawn as seeds and sizes, then built with NumPy, so one example
can hold several scoring chunks' worth of trials. The metrics are checked
against brute force: the cascade fit against one full EER per candidate
threshold, and the EER against strictly increasing maps of the scores; the
EER also stays in [0, 1] with a clear sign bit, and the cosine of two rows is
unchanged by scaling either of them by a positive factor. Any
file given to a text parser (embeddings, protocol, scores, CM scores) must
give a result or a DataError, as must any damaged checkpoint, and the
command line must end in a documented exit code whatever input file it reads.
Each setting of a config either constructs or is a DataError, whatever number
it is given, and a float setting that constructs is finite.
"""

from __future__ import annotations

import dataclasses
import math
import re
import struct
import typing
import zlib

import numpy as np
import pytest
import reference_embeddings as reference
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sasv import cli
from sasv.baselines import (CmScoreSource, _gated_prefix_eers, cascade_scores,
                            fit_cascade, load_cm_scores)
from sasv.checkpoint import Checkpoint, checkpoint_from_bytes, checkpoint_to_bytes
from sasv.core import (DataError, EmbeddingStore, NumericError, Protocol, Trial, TrialLabel,
                       TrialRows, check_protocol_ids, cosine_rows, load_embeddings,
                       load_protocol, save_embeddings, target_mask)
from sasv.loss import OneClassSoftmaxConfig
from sasv.metrics import SCORE_CSV_HEADER, eer, load_scores
from sasv.model import InputMode, IntegrationModel, score_protocol
from sasv.synthgen import SynthConfig
from sasv.training import TrainConfig, model_from_checkpoint, model_to_checkpoint

# derandomized and without an example database: the same examples every run
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
LABELS = list(TrialLabel)
# any character, weighted towards those that end or comment out a line
ID_CHARS = st.one_of(st.sampled_from("#\t\n\r \x0b\x0c\x1c\x85\u2028a"), st.characters())


def _case(seed: int, mode: InputMode, n_utts: int, n_trials: int):
    rng = np.random.default_rng(seed)
    sv_dim, cm_dim = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    rows = [(rng.normal(size=sv_dim) * rng.uniform(0.1, 10.0),
             rng.normal(size=cm_dim) * rng.uniform(0.1, 10.0)) for _ in range(n_utts)]
    ids = [f"u{i}" for i in range(n_utts)]
    sv = EmbeddingStore("sv", ids, [sv_row for sv_row, _ in rows])
    cm = EmbeddingStore("cm", ids, [cm_row for _, cm_row in rows])
    model = IntegrationModel(mode, sv_dim, cm_dim, np.random.default_rng(seed + 1))
    # running statistics away from their initial values, as after training
    model.bn.running_mean[:] = rng.normal(size=model.input_dim)
    model.bn.running_var[:] = rng.uniform(0.5, 2.0, size=model.input_dim)
    pairs = rng.integers(n_utts, size=(n_trials, 2))
    trials = [Trial(f"u{e}", f"u{t}", LABELS[int(k)])
              for (e, t), k in zip(pairs, rng.integers(3, size=n_trials))]
    return rng, model, sv, cm, Protocol(trials)


def _bits(table) -> list[bytes]:
    """Each trial's three scores, as bytes."""
    return [row.tobytes() for row in np.column_stack([table.s_sv, table.s_spf, table.s_sasv])]


@PROPERTY
@given(seed=st.integers(0, 2**31), mode=st.sampled_from(list(InputMode)),
       n_utts=st.integers(1, 400), n_trials=st.integers(1, 700))
@example(seed=1, mode=InputMode.CONCAT, n_utts=400, n_trials=700)  # > 1 chunk
@example(seed=2, mode=InputMode.CM_ONLY, n_utts=400, n_trials=700)
def test_trial_scores_ignore_the_other_trials(seed, mode, n_utts, n_trials):
    rng, model, sv, cm, protocol = _case(seed, mode, n_utts, n_trials)
    full = _bits(score_protocol(model, protocol, sv, cm))

    subset = rng.permutation(n_trials)[:int(rng.integers(1, n_trials + 1))]
    shuffled = Protocol([protocol.trials[i] for i in subset])
    assert _bits(score_protocol(model, shuffled, sv, cm)) == [full[i] for i in subset]

    for i in rng.choice(n_trials, size=min(3, n_trials), replace=False):
        alone = Protocol([protocol.trials[i]])
        assert _bits(score_protocol(model, alone, sv, cm)) == [full[i]]


@PROPERTY
@given(seed=st.integers(0, 2**31),
       mode=st.sampled_from([InputMode.CONCAT, InputMode.CM_ONLY]),
       n_utts=st.integers(1, 400), n_trials=st.integers(1, 700))
@example(seed=3, mode=InputMode.CONCAT, n_utts=400, n_trials=700)
def test_model_cm_source_equals_protocol_spoof_scores(seed, mode, n_utts, n_trials):
    _, model, sv, cm, protocol = _case(seed, mode, n_utts, n_trials)
    from_source = CmScoreSource.from_model(model, sv, cm).scores_for(protocol)
    s_spf = score_protocol(model, protocol, sv, cm).s_spf
    assert from_source.tobytes() == s_spf.tobytes()


def _per_trial_check_protocol_ids(protocol, sv_store, cm_store) -> TrialRows:
    """`check_protocol_ids` as it was before it resolved ids in one pass: a
    membership test per id of each trial in turn, then the rows."""
    for idx, t in enumerate(protocol.trials, start=1):
        if t.enroll_id not in sv_store:
            raise DataError(
                f"trial {idx}: enroll id {t.enroll_id!r} missing from sv store"
            )
        if t.test_id not in sv_store:
            raise DataError(f"trial {idx}: test id {t.test_id!r} missing from sv store")
        if cm_store is not None and t.test_id not in cm_store:
            raise DataError(f"trial {idx}: test id {t.test_id!r} missing from cm store")
    sv, trials = sv_store.index, protocol.trials
    test_cm = None if cm_store is None else [cm_store.index[t.test_id] for t in trials]
    return TrialRows(np.array([sv[t.enroll_id] for t in trials], dtype=np.intp),
                     np.array([sv[t.test_id] for t in trials], dtype=np.intp),
                     None if test_cm is None else np.array(test_cm, dtype=np.intp))


def _resolution(resolve, protocol, sv_store, cm_store):
    """The rows `resolve` gives, or its DataError's message."""
    try:
        return resolve(protocol, sv_store, cm_store)
    except DataError as exc:
        return str(exc)


UTTERANCES = ["a", "b", "c", "d", "e"]
STORE_IDS = st.lists(st.sampled_from(UTTERANCES), min_size=1, max_size=5, unique=True)


@settings(PROPERTY, max_examples=300)
@given(pairs=st.lists(st.tuples(st.sampled_from(UTTERANCES), st.sampled_from(UTTERANCES)),
                      max_size=12),
       sv_ids=STORE_IDS, cm_ids=st.none() | STORE_IDS)
# trial 1 lacks its test id in the CM store only, trial 2 its enrollment id
@example(pairs=[("a", "b"), ("c", "a")], sv_ids=["a", "b"], cm_ids=["a"])
def test_check_protocol_ids_equals_the_per_trial_loop(pairs, sv_ids, cm_ids):
    """Rows of the same dtype and values, or the same first missing id."""
    protocol = Protocol([Trial(e, t, TrialLabel.TARGET) for e, t in pairs])
    sv = EmbeddingStore("sv", sv_ids, np.ones((len(sv_ids), 2)))
    cm = None if cm_ids is None else EmbeddingStore("cm", cm_ids, np.ones((len(cm_ids), 1)))
    got = _resolution(check_protocol_ids, protocol, sv, cm)
    want = _resolution(_per_trial_check_protocol_ids, protocol, sv, cm)
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, TrialRows) and (got.test_cm is None) == (want.test_cm is None)
    for a, b in zip(got, want):
        if b is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(PROPERTY, max_examples=300)
@given(trials=st.lists(st.tuples(st.sampled_from(UTTERANCES), st.sampled_from(UTTERANCES),
                                 st.sampled_from(LABELS)), max_size=12),
       sv_ids=STORE_IDS, cm_ids=st.none() | STORE_IDS)
# a test id missing in trials 5 and 2: trial 2 is named
@example(trials=[("a", "a", LABELS[0]), ("a", "e", LABELS[1]), ("b", "a", LABELS[2]),
                 ("a", "b", LABELS[0]), ("b", "e", LABELS[0])],
         sv_ids=["a", "b"], cm_ids=None)
# an enrollment id missing in trial 3, a test id in trial 1: trial 1 is named
@example(trials=[("a", "c", LABELS[0]), ("a", "a", LABELS[1]), ("c", "a", LABELS[0])],
         sv_ids=["a", "b"], cm_ids=["a", "b"])
# a test id in the SV store but not the CM store: the cm store is named
@example(trials=[("a", "a", LABELS[2]), ("a", "b", LABELS[1])],
         sv_ids=["a", "b"], cm_ids=["a"])
def test_protocol_columns_reproduce_every_trial(trials, sv_ids, cm_ids):
    """The label codes and the factorized id columns give back each trial, the
    distinct ids in order of first appearance; resolving ids through them
    fails, if at all, with the per-trial loop's message."""
    protocol = Protocol([Trial(*t) for t in trials])
    assert protocol.codes.dtype == np.int8
    assert protocol.codes.tolist() == [LABELS.index(t[2]) for t in trials]
    for column, ids in ((protocol.enroll, [t[0] for t in trials]),
                        (protocol.test, [t[1] for t in trials])):
        assert column.at.dtype == np.int32 and column.at.shape == (len(trials),)
        assert column.ids == sorted(set(ids), key=ids.index)
        assert [column.ids[i] for i in column.at.tolist()] == ids
    sv = EmbeddingStore("sv", sv_ids, np.ones((len(sv_ids), 2)))
    cm = None if cm_ids is None else EmbeddingStore("cm", cm_ids, np.ones((len(cm_ids), 1)))
    got = _resolution(check_protocol_ids, protocol, sv, cm)
    want = _resolution(_per_trial_check_protocol_ids, protocol, sv, cm)
    assert got == want if isinstance(want, str) else isinstance(got, TrialRows)


def _per_trial_target_mask(labels) -> np.ndarray:
    """`target_mask`'s mask as it was made before: one comparison per label."""
    return np.array([lab is TrialLabel.TARGET for lab in labels], dtype=bool)


def _per_trial_counts(protocol) -> dict[TrialLabel, int]:
    """`Protocol.counts` as it was before: one dict update per trial."""
    out = {label: 0 for label in TrialLabel}
    for t in protocol.trials:
        out[t.label] += 1
    return out


@settings(PROPERTY, max_examples=200)
@given(labels=st.lists(st.sampled_from(LABELS), max_size=40))
@example(labels=[])
def test_target_mask_and_counts_equal_the_per_trial_loops(labels):
    """The same counts, in label order, and the same mask or the same refusal,
    from the labels and from the protocol's codes."""
    protocol = Protocol([Trial("e", "t", label) for label in labels])
    got, want = protocol.counts(), _per_trial_counts(protocol)
    assert list(got.items()) == list(want.items())
    mask = _per_trial_target_mask(labels)
    for masked in (lambda: target_mask(labels, "x"), lambda: protocol.target_mask("x")):
        if mask.all() or not mask.any():
            with pytest.raises(DataError, match="^x needs at least one target"):
                masked()
        else:
            got_mask = masked()
            assert got_mask.dtype == mask.dtype and np.array_equal(got_mask, mask)


@PROPERTY
@given(ids=st.lists(st.text(ID_CHARS, max_size=6), min_size=1, max_size=8, unique=True),
       values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=2, max_size=2))
def test_accepted_ids_round_trip_through_files(tmp_path, ids, values):
    accepted = []
    for utt_id in ids:
        try:
            EmbeddingStore("sv", [utt_id], [values])
        except DataError:
            continue
        accepted.append(utt_id)
    if not accepted:
        return
    store = EmbeddingStore("sv", accepted, [values] * len(accepted))
    path = tmp_path / "emb.tsv"
    save_embeddings(store, str(path))
    loaded = load_embeddings(str(path), "sv")
    assert list(loaded.index) == list(store.index)
    assert loaded.matrix.tobytes() == store.matrix.tobytes()


ROW_VALUES = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([np.nan, np.inf, -np.inf, 1e300]))


@settings(PROPERTY, max_examples=300)
@given(ids=st.lists(st.text(ID_CHARS, max_size=3), min_size=1, max_size=6),
       width=st.sampled_from([2, 2, 2, 1, 3]), data=st.data())
# a repeated id after the rows that are fine, in a row that is also non-finite
@example(ids=["a", "b", "a"], width=2, data=[0.5, -0.5, 1.0, 1.0, np.nan, 1.0])
# a non-finite value before a later repeated id
@example(ids=["b", "a", "b"], width=3, data=[1.0] * 3 + [np.inf, 1.0, 1.0] + [1.0] * 3)
def test_embedding_store_fails_where_the_reference_add_would(ids, width, data):
    """The constructor against the reference adding the same rows one by one:
    the same index, matrix and dimension, or a DataError with the first
    message `add` gives, naming the row `add` failed on, and `rows` untouched."""
    values = (data if isinstance(data, list) else
              data.draw(st.lists(ROW_VALUES, min_size=len(ids) * width,
                                 max_size=len(ids) * width)))
    rows = np.array(values).reshape(len(ids), width)
    one_by_one = reference.EmbeddingStore("cm")
    want = None
    for utt_id, row in zip(ids, rows):
        try:
            one_by_one.add(utt_id, row)
        except DataError as exc:
            want = str(exc)
            break
    if want is None:
        store = EmbeddingStore("cm", ids, rows)
        assert list(store.index.items()) == list(one_by_one.index.items())
        assert store.matrix.tobytes() == one_by_one.matrix.tobytes()
        assert store.dimension == one_by_one.dimension
    else:
        before = rows.tobytes()
        with pytest.raises(DataError) as exc:
            EmbeddingStore("cm", ids, rows)
        assert str(exc.value) == want and exc.value.row == len(one_by_one)
        assert rows.flags.writeable and rows.tobytes() == before


# the lines of a small embedding file, faulty ones among them: repeated and
# empty ids, non-finite and all-zero rows, bad floats, missing tabs, no
# values and rows of the wrong width, beside comments and blank lines
EMBEDDING_ID = st.sampled_from(["u1", "u2", "u3", " u4", "u1", "u2", "u3", ""])
FINITE_VALUE = st.sampled_from(["0.5", "-3", "1e-3", "2.5e300", "1e-310", "7", "0", "-0"])
ANY_VALUE = st.one_of(FINITE_VALUE, st.sampled_from(["inf", "-inf", "nan", "1e999",
                                                     "1.5x", "--1"]))


def _embedding_line(values):
    return st.tuples(EMBEDDING_ID, values).map(lambda line: f"{line[0]}\t{' '.join(line[1])}")


GOOD_LINE = _embedding_line(st.lists(FINITE_VALUE, min_size=2, max_size=2))
EMBEDDING_LINE = st.one_of(
    GOOD_LINE, GOOD_LINE, GOOD_LINE,
    _embedding_line(st.lists(ANY_VALUE, min_size=2, max_size=2)),
    _embedding_line(st.sampled_from([["0", "0"], ["-0", "0.0"]])),
    _embedding_line(st.lists(ANY_VALUE, min_size=0, max_size=3)),
    st.sampled_from(["# comment", "  # indented", "", "   ", "u5 1 2", "u5\t1\t2"]),
)


def _load_outcome(load, path: str, normalize: bool):
    """The store `load` makes, or its error's class and message."""
    try:
        return load(path, "sv", normalize=normalize)
    except (DataError, NumericError) as exc:
        return type(exc), str(exc)


def _first_faulty_line(path: str, lines: list[str], normalize: bool) -> int | None:
    """The line the reference loader first fails on: the shortest head of
    the file it fails on, short of finding no embeddings."""
    for n in range(1, len(lines) + 1):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:n]) + "\n")
        outcome = _load_outcome(reference.load_embeddings, path, normalize)
        if isinstance(outcome, tuple) and "no embeddings found" not in outcome[1]:
            return n
    return None


@settings(PROPERTY, max_examples=300)
@given(lines=st.lists(EMBEDDING_LINE, min_size=1, max_size=10), normalize=st.booleans())
# a repeated id before a non-finite row
@example(lines=["u1\t1 2", "u1\t3 4", "u2\tinf 1"], normalize=False)
# a zero-norm row (exit 3) and a repeated id (exit 2), each first in turn
@example(lines=["u1\t1 2", "u2\t0 0", "u1\t3 4"], normalize=True)
@example(lines=["u1\t1 2", "u1\t3 4", "u2\t0 0"], normalize=True)
# under normalization: a zero-norm row with an empty id; a zero-norm row,
# and a non-finite one, of the wrong width
@example(lines=["u1\t1 2", "\t0 0"], normalize=True)
@example(lines=["u1\t1 2", "u2\t0 0 0"], normalize=True)
@example(lines=["u1\t1 2", "u2\tinf 0 0"], normalize=True)
def test_load_embeddings_matches_the_line_by_line_reference(tmp_path, lines, normalize):
    """The bulk loader against the line-by-line one: the same index and
    matrix bits, or the same error class raised at the same first faulty
    line, a DataError with the same `path:lineno`."""
    path = str(tmp_path / "emb.tsv")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    got = _load_outcome(load_embeddings, path, normalize)
    want = _load_outcome(reference.load_embeddings, path, normalize)
    if not isinstance(want, tuple):
        assert not isinstance(got, tuple), got
        assert list(got.index.items()) == list(want.index.items())
        assert got.matrix.tobytes() == want.matrix.tobytes()
        return
    assert isinstance(got, tuple) and got[0] is want[0], (got, want)
    location = re.compile(re.escape(path) + r"(:\d+)?: ")
    if want[0] is DataError:
        assert location.match(got[1])[0] == location.match(want[1])[0], (got, want)
    else:  # the reference's NumericError names no line: find it by truncation
        line = _first_faulty_line(path, lines, normalize)
        assert location.match(got[1])[0] == f"{path}:{line}: ", (got, line)


def _fit_cascade_oracle(s_sv, s_cm, labels) -> float:
    """The cascade fit as one full EER per candidate threshold."""
    s_sv = np.asarray(s_sv, dtype=np.float64)
    s_cm = np.asarray(s_cm, dtype=np.float64)
    is_target = np.array([lab is TrialLabel.TARGET for lab in labels])
    distinct = np.unique(s_cm)
    candidates = list(distinct) + list((distinct[:-1] + distinct[1:]) / 2.0)
    candidates.sort()
    best_tau = candidates[0]
    best_eer = np.inf
    for tau in candidates:
        scores = cascade_scores(s_sv, s_cm, tau)
        e = eer(scores[is_target], scores[~is_target]).eer
        if e < best_eer:
            best_eer = e
            best_tau = tau
    return float(best_tau)


def _f64(x) -> bytes:
    return np.float64(x).tobytes()


# a coarse grid for ties, reaching below the cascade floor of -2
SCORES = st.one_of(st.integers(-6, 6).map(lambda i: i / 2.0), st.floats(-3.0, 3.0))
TRIALS = st.lists(st.tuples(SCORES, SCORES, st.sampled_from(LABELS)),
                  min_size=2, max_size=40)
ONE_ULP = float(np.nextafter(1.0, 2.0))  # the midpoint of 1.0 and ONE_ULP is 1.0


@settings(PROPERTY, max_examples=150)
@given(trials=TRIALS)
@example(trials=[(0.9, 1.0, TrialLabel.TARGET), (0.3, ONE_ULP, TrialLabel.SPOOF),
                 (0.5, 1.0, TrialLabel.NONTARGET)])
@example(trials=[(0.9, ONE_ULP, TrialLabel.TARGET), (0.3, 1.0, TrialLabel.SPOOF)])
# the midpoint of the two CM scores overflows to inf and gates every trial
@example(trials=[(0.2, 1e308, TrialLabel.TARGET), (0.3, 1.7e308, TrialLabel.SPOOF),
                 (0.1, 1.7e308, TrialLabel.TARGET)])
def test_fit_cascade_equals_the_per_candidate_scan(trials):
    s_sv = np.array([t[0] for t in trials])
    s_cm = np.array([t[1] for t in trials])
    labels = [t[2] for t in trials]
    if TrialLabel.TARGET not in labels:
        labels[0] = TrialLabel.TARGET
    if all(lab is TrialLabel.TARGET for lab in labels):
        labels[-1] = TrialLabel.SPOOF
    with np.errstate(over="ignore"):
        oracle = _fit_cascade_oracle(s_sv, s_cm, labels)
    assert _f64(fit_cascade(s_sv, s_cm, labels)) == _f64(oracle)

    is_target = np.array([lab is TrialLabel.TARGET for lab in labels])
    distinct, group = np.unique(s_cm, return_inverse=True)
    swept = _gated_prefix_eers(s_sv, group, distinct.size, is_target)
    for k, tau in enumerate(list(distinct) + [np.inf]):
        scores = cascade_scores(s_sv, s_cm, tau)
        assert _f64(swept[k]) == _f64(eer(scores[is_target], scores[~is_target]).eer)


GRID = st.lists(st.integers(-30, 30).map(lambda i: i / 10.0), min_size=1, max_size=30)


@PROPERTY
@given(pos=GRID, neg=GRID)
def test_eer_is_invariant_under_increasing_maps(pos, neg):
    # maps that keep these distinct scores distinct; the rate depends only on
    # the order, so it stays bit for bit (the threshold moves with the map)
    pos, neg = np.array(pos), np.array(neg)
    base = _f64(eer(pos, neg).eer)
    for f in (lambda x: 3.0 * x + 1.0, np.exp):
        assert _f64(eer(f(pos), f(neg)).eer) == base


# any finite score, or one of a few values so that many tie
SCORES = st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                            st.integers(-2, 2).map(float)), min_size=1, max_size=30)


@settings(PROPERTY, max_examples=150)
@given(pos=SCORES, neg=SCORES, repeat=st.integers(1, 3), shared=st.booleans())
@example(pos=[1.0], neg=[0.0], repeat=1, shared=False)  # separated: 0.0
@example(pos=[-0.0], neg=[1.0], repeat=2, shared=False)  # reversed: 1.0
def test_eer_lies_in_the_unit_interval_with_a_clear_sign_bit(pos, neg, repeat, shared):
    # training stops at the first epoch of dev SASV-EER 0.0; that is exact only
    # because no EER is below +0.0
    pos = np.repeat(pos, repeat)  # duplicated scores
    neg = np.concatenate([neg, pos]) if shared else np.array(neg)  # tied across classes
    rate = eer(pos, neg).eer
    assert 0.0 <= rate <= 1.0
    assert not np.signbit(rate)


# components either 0 or of a size that stays a normal float after any scaling
# in [1e-300, 1e300]
COMPONENT = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))
VECTOR_PAIR = st.integers(1, 6).flatmap(
    lambda d: st.tuples(*[st.lists(COMPONENT, min_size=d, max_size=d)] * 2))


@PROPERTY
@given(pair=VECTOR_PAIR, scale_a=st.floats(1e-300, 1e300), scale_b=st.floats(1e-300, 1e300),
       k=st.sampled_from([-1000, -530, -3, 0, 5, 530, 1000]))
@example(pair=([1.0, 1.0], [1.0, 1.0]), scale_a=1e200, scale_b=1.0, k=1000)
@example(pair=([1.0, 1.0], [1.0, 1.0]), scale_a=1e-170, scale_b=1.0, k=-530)
def test_cosine_is_unchanged_by_positive_scaling(pair, scale_a, scale_b, k):
    a, b = (np.array([v]) for v in pair)
    assume(a.any() and b.any())
    base = cosine_rows(a, b)[0]
    assert abs(cosine_rows(a * scale_a, b * scale_b)[0] - base) <= 1e-12
    # a power of two scales exactly: not one bit moves, also where the plain
    # squared norm would be subnormal (k = -530) or overflow
    assert _f64(cosine_rows(a * 2.0**k, b)[0]) == _f64(base)
    assert _f64(cosine_rows(a * 2.0**k, b * 2.0**-k)[0]) == _f64(base)


def _valid_checkpoint() -> Checkpoint:
    model = IntegrationModel(InputMode.CM_ONLY, 3, 2, np.random.default_rng(0))
    return model_to_checkpoint(model, TrainConfig(), OneClassSoftmaxConfig(), 1, 0.0)


VALID = _valid_checkpoint()
VALID_BLOB = checkpoint_to_bytes(VALID)
HEADER = VALID_BLOB.index(b"bn.gamma") + 40  # the meta and the first array header


def _loads_or_data_error(blob: bytes) -> None:
    try:
        model_from_checkpoint(checkpoint_from_bytes(blob))
    except DataError:
        pass


def _reseal(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@settings(PROPERTY, max_examples=150)
@given(pos=st.one_of(st.integers(0, HEADER), st.integers(0, len(VALID_BLOB) - 1)),
       xor=st.integers(1, 255), reseal=st.booleans(), cut=st.booleans())
def test_a_damaged_checkpoint_loads_or_raises_data_error(pos, xor, reseal, cut):
    if cut:
        blob = VALID_BLOB[:pos]
    else:
        blob = bytearray(VALID_BLOB)
        blob[pos] ^= xor
        blob = bytes(blob)
    if reseal:  # a valid CRC over the damaged body reaches the parser
        blob = _reseal(blob[:-4])
    _loads_or_data_error(blob)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**60, 2**60) | st.floats()
    | st.text(max_size=8) | st.sampled_from([m.value for m in InputMode]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(PROPERTY, max_examples=60)
@given(changes=st.dictionaries(st.sampled_from(sorted(VALID.meta) + ["x"]), JSON_VALUES,
                               max_size=4),
       replace_all=st.booleans(), whole=JSON_VALUES)
@example(changes={"sv_dim": 2**60}, replace_all=False, whole=None)
@example(changes={"cm_dim": float("inf")}, replace_all=False, whole=None)
@example(changes={"mode": ["cm_only"]}, replace_all=False, whole=None)
@example(changes={"normalize_embeddings": "false"}, replace_all=False, whole=None)
@example(changes={"sv_dim": 6.9}, replace_all=False, whole=None)
def test_checkpoint_meta_loads_or_raises_data_error(changes, replace_all, whole):
    meta = whole if replace_all else dict(VALID.meta, **changes)
    try:
        ckpt = checkpoint_from_bytes(
            checkpoint_to_bytes(Checkpoint("integration", meta, VALID.arrays)))
        model_from_checkpoint(ckpt)
    except DataError:
        return
    # a checkpoint that loads holds its metadata with these exact types
    meta = ckpt.meta
    assert meta["mode"] in [m.value for m in InputMode]
    assert type(meta["sv_dim"]) is int and type(meta["cm_dim"]) is int
    assert type(meta["normalize_embeddings"]) is bool


@pytest.mark.parametrize("meta_json", [
    b"[" * 100_000 + b"]" * 100_000,  # nested past the parser's recursion limit
    b"1" * 5_000,  # an integer past int()'s digit limit
], ids=["deep", "long_int"])
def test_checkpoint_meta_the_json_parser_refuses_is_a_data_error(meta_json):
    body = VALID_BLOB[:-4]
    meta_at = 4 + 8
    (meta_len,) = struct.unpack("<I", body[meta_at:meta_at + 4])
    body = (body[:meta_at] + struct.pack("<I", len(meta_json)) + meta_json
            + body[meta_at + 4 + meta_len:])
    with pytest.raises(DataError, match="bad checkpoint metadata"):
        checkpoint_from_bytes(_reseal(body))


def test_an_overflowing_array_shape_is_a_data_error():
    # four 2**16 dims: their product is 2**64, which an int64 wraps to 0
    header = struct.pack("<B", 4) + struct.pack("<4I", *[2**16] * 4)
    body = checkpoint_to_bytes(Checkpoint("integration", {}, {}))[:-8]
    body += struct.pack("<I", 1) + struct.pack("<H", 1) + b"a" + header
    with pytest.raises(DataError, match="truncated"):
        checkpoint_from_bytes(_reseal(body))


PARSERS = {
    "embeddings": lambda path: load_embeddings(path, "sv"),
    "protocol": load_protocol,
    "scores": load_scores,
    "cm_scores": load_cm_scores,
}
ID = st.sampled_from(["u1", "u2", "u3"])
NUMBER = st.sampled_from(["0.5", "-1e-3", "-0", "1_0", "1e999", "nan", "inf"])
LABEL = st.sampled_from(["target", "nontarget", " Spoof", "fake"])
# each format's separator and fields, in order
FORMATS = {
    "embeddings": ("\t", (ID, st.lists(NUMBER, min_size=1, max_size=3).map(" ".join))),
    "protocol": ("\t", (ID, ID, LABEL)),
    "scores": (",", (ID, ID, LABEL, NUMBER, NUMBER, NUMBER)),
    "cm_scores": ("\t", (ID, NUMBER)),
}
ANY_FIELD = st.one_of(st.sampled_from(["", " ", "#", '"', "'", "\t", ","]),
                      st.text(st.characters(codec="utf-8"), max_size=8))


@st.composite
def parser_inputs(draw):
    """A parser's name and a file for it: lines of its format, of its format
    with fields swapped for any text, or of any text; or any bytes."""
    name = draw(st.sampled_from(sorted(PARSERS)))
    if draw(st.integers(0, 5)) == 0:
        return name, draw(st.binary(max_size=40))
    sep, fields = FORMATS[name]
    lines = draw(st.lists(st.one_of(
        st.tuples(*fields).map(sep.join),
        st.tuples(*(st.one_of(f, ANY_FIELD) for f in fields)).map(sep.join),
        st.lists(ANY_FIELD, max_size=4).map(sep.join)), max_size=5))
    if name == "scores" and draw(st.booleans()):
        lines.insert(0, ",".join(SCORE_CSV_HEADER))
    return name, draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode()


@settings(PROPERTY, max_examples=300)
@given(case=parser_inputs())
@example(case=("scores", (",".join(SCORE_CSV_HEADER) + "\ne1,t1,target,1,2,3\ne1,"
                          + "t" * 131_073 + ",target,1,2,3\n").encode()))
def test_any_file_parses_or_raises_data_error(tmp_path, case):
    name, blob = case
    path = tmp_path / "input"
    path.write_bytes(blob)
    try:
        PARSERS[name](str(path))
    except DataError:
        pass


# each command's input files, by flag, and its fixed flags
CLI_RUNS = {
    "train": (["train", "--epochs", "1"],
              ("--sv-emb", "--cm-emb", "--train-protocol", "--dev-protocol")),
    "eval": (["eval"], ("--scores",)),
    "score": (["score"], ("--model", "--sv-emb", "--cm-emb", "--eval-protocol")),
    "baseline": (["baseline", "--kind", "cascade"],
                 ("--sv-emb", "--cm-scores", "--dev-protocol", "--eval-protocol")),
}

EXTREME_NUMBERS = ["0", "-0", "1e-320", "1e308", "-1e308", "nan", "inf"]
NUMBER_FIELD = re.compile(r"(?<=[\t ,])[-+]?[0-9][0-9.e+-]*(?=[ ,]|$)")


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse's own exit on bad usage
        return exc.code


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A tiny valid workspace: every input file of CLI_RUNS, by flag."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    data, run = root / "data", root / "run"
    assert cli.main(["synth", "--out", str(data), "--seed", "7", "--speakers", "6",
                     "--utts", "2", "--spoofs", "2", "--sv-dim", "3", "--cm-dim", "2"]) == 0
    files = {"--sv-emb": data / "sv_embeddings.tsv", "--cm-emb": data / "cm_embeddings.tsv",
             "--train-protocol": data / "train_protocol.tsv",
             "--dev-protocol": data / "dev_protocol.tsv",
             "--eval-protocol": data / "eval_protocol.tsv",
             "--model": run / "model.ckpt", "--scores": run / "scores.csv",
             "--cm-scores": root / "cm_scores.tsv"}
    stores = ["--sv-emb", str(files["--sv-emb"]), "--cm-emb", str(files["--cm-emb"])]
    assert cli.main(["train", *stores, "--epochs", "1", "--out", str(run),
                     "--train-protocol", str(files["--train-protocol"]),
                     "--dev-protocol", str(files["--dev-protocol"])]) == 0
    assert cli.main(["score", "--model", str(files["--model"]), *stores, "--out", str(run),
                     "--eval-protocol", str(files["--eval-protocol"])]) == 0
    ids = [line.split("\t")[0] for line in files["--cm-emb"].read_text().splitlines()]
    files["--cm-scores"].write_text("".join(f"{u}\t{i % 3 - 1}\n" for i, u in enumerate(ids)))
    return root, files


@settings(PROPERTY, max_examples=80)
@given(run=st.sampled_from(sorted(CLI_RUNS)), data=st.data())
def test_any_input_file_ends_in_a_documented_exit_code(cli_files, run, data):
    root, files = cli_files
    fixed, inputs = CLI_RUNS[run]
    target = data.draw(st.sampled_from(inputs), label="input")
    valid = files[target].read_bytes()
    lines = [line for path in files.values() if path.suffix != ".ckpt"
             for line in path.read_text().splitlines()]
    any_line = st.one_of(st.text(max_size=24), st.sampled_from(lines))
    kinds = [st.binary(max_size=64),
             st.integers(0, len(valid)).map(lambda n: valid[:n]),
             st.lists(any_line, max_size=6).map(lambda chosen: "\n".join(chosen).encode())]
    if target != "--model":
        own = valid.decode().splitlines()
        i = data.draw(st.integers(0, len(own) - 1), label="line")
        # the valid file with one line swapped, or with its numbers all set to one value
        swapped = st.one_of(any_line, st.sampled_from(EXTREME_NUMBERS).map(
            lambda v: NUMBER_FIELD.sub(v, own[i])))
        kinds.append(swapped.map(lambda new: "\n".join(own[:i] + [new] + own[i + 1:]).encode()))
    blob = data.draw(st.one_of(kinds), label="contents")
    garbage = root / "garbage"
    garbage.write_bytes(blob)
    argv = list(fixed)
    for flag in inputs:
        argv += [flag, str(garbage if flag == target else files[flag])]
    assert _exit_code(argv + ["--out", str(root / "out")]) in (0, 1, 2, 3)


CONFIG_FIELDS = [(config, field.name)
                 for config in (SynthConfig, TrainConfig, OneClassSoftmaxConfig)
                 for field in dataclasses.fields(config)]


@settings(PROPERTY, max_examples=200)
@given(setting=st.sampled_from(CONFIG_FIELDS),
       value=st.one_of(st.integers(), st.sampled_from(EXTREME_NUMBERS).map(float),
                       st.floats(-100.0, 100.0), st.booleans()))
@example(setting=(OneClassSoftmaxConfig, "scale"), value=10**400)
@example(setting=(OneClassSoftmaxConfig, "margin_fake"), value=-10**400)
@example(setting=(SynthConfig, "cm_noise"), value=10**400)
@example(setting=(TrainConfig, "learning_rate"), value=10**400)
@example(setting=(SynthConfig, "sv_dim"), value=float("nan"))
@example(setting=(SynthConfig, "n_speakers"), value=8.5)
@example(setting=(SynthConfig, "seed"), value=1.5)
@example(setting=(TrainConfig, "epochs"), value=float("nan"))
@example(setting=(TrainConfig, "batch_size"), value=2.5)
@example(setting=(TrainConfig, "seed"), value=True)
def test_a_config_setting_constructs_or_raises_data_error(setting, value):
    config, name = setting
    try:
        config(**{name: value})
    except DataError:
        return
    # a float setting that constructs is finite, an int setting an integer
    if typing.get_type_hints(config)[name] is float:
        assert -math.inf < value < math.inf
    else:
        assert type(value) is int
