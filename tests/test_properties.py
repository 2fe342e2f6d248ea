"""Property-based checks of the scoring path and the embedding files.

A trial's scores must depend on that trial alone, whatever other trials share
its protocol; the CM scores of a model source must equal the spoofing scores
of protocol scoring; and any id a store accepts must survive a save and load.
Inputs are drawn as seeds and sizes, then built with NumPy, so one example
can hold several scoring chunks' worth of trials.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sasv.baselines import CmScoreSource
from sasv.core import (DataError, EmbeddingStore, Protocol, Trial, TrialLabel,
                       load_embeddings, save_embeddings)
from sasv.model import InputMode, IntegrationModel, score_protocol

# derandomized and without an example database: the same examples every run
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
LABELS = list(TrialLabel)
# any character, weighted towards those that end or comment out a line
ID_CHARS = st.one_of(st.sampled_from("#\t\n\r \x0b\x0c\x1c\x85\u2028a"), st.characters())


def _case(seed: int, mode: InputMode, n_utts: int, n_trials: int):
    rng = np.random.default_rng(seed)
    sv_dim, cm_dim = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    sv, cm = EmbeddingStore("sv"), EmbeddingStore("cm")
    for i in range(n_utts):
        sv.add(f"u{i}", rng.normal(size=sv_dim) * rng.uniform(0.1, 10.0))
        cm.add(f"u{i}", rng.normal(size=cm_dim) * rng.uniform(0.1, 10.0))
    model = IntegrationModel(mode, sv_dim, cm_dim, np.random.default_rng(seed + 1))
    # running statistics away from their initial values, as after training
    model.bn.running_mean[:] = rng.normal(size=model.input_dim)
    model.bn.running_var[:] = rng.uniform(0.5, 2.0, size=model.input_dim)
    pairs = rng.integers(n_utts, size=(n_trials, 2))
    trials = [Trial(f"u{e}", f"u{t}", LABELS[int(k)])
              for (e, t), k in zip(pairs, rng.integers(3, size=n_trials))]
    return rng, model, sv, cm, Protocol(trials)


def _bits(records) -> list[bytes]:
    return [np.array([r.s_sv, r.s_spf, r.s_sasv]).tobytes() for r in records]


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
    s_spf = np.array([r.s_spf for r in score_protocol(model, protocol, sv, cm)])
    assert from_source.tobytes() == s_spf.tobytes()


@PROPERTY
@given(ids=st.lists(st.text(ID_CHARS, max_size=6), min_size=1, max_size=8, unique=True),
       values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=2, max_size=2))
def test_accepted_ids_round_trip_through_files(tmp_path, ids, values):
    store = EmbeddingStore("sv")
    for utt_id in ids:
        try:
            store.add(utt_id, values)
        except DataError:
            continue
    if len(store) == 0:
        return
    path = tmp_path / "emb.tsv"
    save_embeddings(store, str(path))
    loaded = load_embeddings(str(path), "sv")
    assert list(loaded.index) == list(store.index)
    assert loaded.matrix.tobytes() == store.matrix.tobytes()

