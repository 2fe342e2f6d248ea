from __future__ import annotations

import filecmp
import math

import numpy as np
import pytest
import reference_embeddings as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from sasv.core import (DataError, NumericError, Protocol, Trial, TrialLabel,
                       check_protocol_ids, sv_scores)
from sasv.synthgen import (DATASET_FILES, SPLIT_NAMES, SynthConfig, SynthDataset,
                           _split_sizes, gaussians, generate, write_dataset)

SMALL = SynthConfig(n_speakers=10, utts_per_speaker=4, spoofs_per_speaker=3,
                    sv_dim=8, cm_dim=6, seed=5)


def test_split_sizes():
    assert _split_sizes(30) == (18, 6, 6)
    assert _split_sizes(10) == (6, 2, 2)
    assert _split_sizes(6) == (2, 2, 2)


def test_config_validation():
    with pytest.raises(DataError, match="at least 6"):
        SynthConfig(n_speakers=5)
    with pytest.raises(DataError, match="counts"):
        SynthConfig(utts_per_speaker=0)
    with pytest.raises(DataError, match="sv_dim"):
        SynthConfig(sv_dim=1)
    with pytest.raises(DataError, match="non-negative"):
        SynthConfig(cm_noise=-0.1)
    with pytest.raises(DataError, match="spoof_sv_offset"):
        SynthConfig(spoof_sv_offset=-1.0)


def test_gaussians_are_deterministic_standard_normals():
    rng1 = np.random.Generator(np.random.PCG64(1))
    rng2 = np.random.Generator(np.random.PCG64(1))
    a = gaussians(rng1, 20001)  # odd length exercises the trim
    b = gaussians(rng2, 20001)
    assert np.array_equal(a, b)
    assert a.shape == (20001,)
    assert abs(float(a.mean())) < 0.02
    assert abs(float(a.var()) - 1.0) < 0.03
    # Box-Muller over PCG64 uniforms, nothing degenerate
    assert np.all(np.isfinite(a))


def test_generated_dataset_shape():
    ds = generate(SMALL)
    assert set(ds.protocols) == set(SPLIT_NAMES)
    train_spk, dev_spk, eval_spk = (ds.split_speakers[s] for s in SPLIT_NAMES)
    assert (len(train_spk), len(dev_spk), len(eval_spk)) == (6, 2, 2)
    # splits are disjoint speaker sets
    assert not (set(train_spk) & set(dev_spk))
    assert not (set(train_spk) & set(eval_spk))
    assert not (set(dev_spk) & set(eval_spk))

    for split in SPLIT_NAMES:
        protocol = ds.protocols[split]
        counts = protocol.counts()
        n_spk = len(ds.split_speakers[split])
        assert counts[TrialLabel.TARGET] == n_spk * SMALL.utts_per_speaker
        assert counts[TrialLabel.NONTARGET] == n_spk * SMALL.utts_per_speaker
        assert counts[TrialLabel.SPOOF] == n_spk * SMALL.spoofs_per_speaker
        check_protocol_ids(protocol, ds.sv_store, ds.cm_store)
        # nontarget impostors come from inside the split, never across
        allowed = set(ds.split_speakers[split])
        for t in protocol.trials:
            assert t.enroll_id.split("_")[0] in allowed
            assert t.test_id.split("_")[0] in allowed


def test_embedding_dimensions_and_ids():
    ds = generate(SMALL)
    assert ds.sv_store.dimension == SMALL.sv_dim
    assert ds.cm_store.dimension == SMALL.cm_dim
    assert "S001_E000" in ds.sv_store       # enrollment
    assert "S001_U001" in ds.sv_store       # bonafide utterance
    assert "S001_A001" in ds.sv_store       # spoof attack
    # CM embeddings exist for test utterances but not for enrollments
    assert "S001_U001" in ds.cm_store
    assert "S001_E000" not in ds.cm_store


def test_geometry_separates_cm_but_not_sv():
    cfg = SynthConfig(seed=2)
    ds = generate(cfg)
    for split in SPLIT_NAMES:
        protocol = ds.protocols[split]
        labels = np.array([t.label for t in protocol.trials])
        s_sv = sv_scores(check_protocol_ids(protocol, ds.sv_store, None), ds.sv_store)
        # speaker structure: same-speaker cosines far above cross-speaker ones
        assert float(np.mean(s_sv[labels == TrialLabel.TARGET])) > 0.8
        assert abs(float(np.mean(s_sv[labels == TrialLabel.NONTARGET]))) < 0.5
        # the bona fide and spoof CM clusters sit cm_separation apart
        spoofed = {t.test_id: t.label is TrialLabel.SPOOF for t in protocol.trials}
        bona = [ds.cm_store.vector(u) for u, is_spoof in spoofed.items() if not is_spoof]
        spoof = [ds.cm_store.vector(u) for u, is_spoof in spoofed.items() if is_spoof]
        distance = np.linalg.norm(np.mean(bona, axis=0) - np.mean(spoof, axis=0))
        assert abs(distance - cfg.cm_separation) < 0.3


def test_spoofs_attack_their_victim():
    cfg = SynthConfig(seed=3, spoof_sv_offset=0.0)
    ds = generate(cfg)
    from sasv.core import cosine

    spoof_cos = []
    nontarget_cos = []
    for t in ds.protocols["eval"].trials:
        c = cosine(ds.sv_store.vector(t.enroll_id), ds.sv_store.vector(t.test_id))
        if t.label is TrialLabel.SPOOF:
            spoof_cos.append(c)
        elif t.label is TrialLabel.NONTARGET:
            nontarget_cos.append(c)
    # with zero offset a spoof mimics the victim in SV space
    assert float(np.mean(spoof_cos)) > 0.8
    assert float(np.mean(spoof_cos)) > float(np.mean(nontarget_cos)) + 0.3


def test_generation_is_deterministic_on_disk(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    paths1 = write_dataset(generate(SMALL), str(out1))
    paths2 = write_dataset(generate(SMALL), str(out2))
    assert set(paths1) == set(DATASET_FILES)
    for key in paths1:
        assert filecmp.cmp(paths1[key], paths2[key], shallow=False), key


def test_different_seeds_differ(tmp_path):
    ds1 = generate(SMALL)
    ds2 = generate(SynthConfig(n_speakers=10, utts_per_speaker=4,
                               spoofs_per_speaker=3, sv_dim=8, cm_dim=6, seed=6))
    v1 = ds1.sv_store.vector("S001_E000")
    v2 = ds2.sv_store.vector("S001_E000")
    assert not np.array_equal(v1, v2)


def test_written_dataset_loads_back(tmp_path):
    from sasv.core import load_embeddings, load_protocol

    ds = generate(SMALL)
    paths = write_dataset(ds, str(tmp_path / "out"))
    sv = load_embeddings(paths["sv_emb"], "sv")
    cm = load_embeddings(paths["cm_emb"], "cm")
    for utt_id, vec in ds.sv_store.items():
        assert np.array_equal(sv.vector(utt_id), vec)
    assert len(cm) == len(ds.cm_store)
    for split in SPLIT_NAMES:
        assert load_protocol(paths[split]).trials == ds.protocols[split].trials


def test_sv_embeddings_live_on_the_unit_sphere():
    ds = generate(SMALL)
    for _, vec in ds.sv_store.items():
        assert math.isclose(float(np.linalg.norm(vec)), 1.0, abs_tol=1e-12)
    # CM embeddings are cluster points, not directions: no normalization
    norms = [float(np.linalg.norm(v)) for _, v in ds.cm_store.items()]
    assert max(norms) - min(norms) > 0.1


# The generator as it was written before it drew per speaker block: one
# Box-Muller draw, one length normalization and one store append per vector.
# Kept as the oracle that the block generator must match bit for bit.

def _reference_gaussians(rng: np.random.Generator, n: int) -> np.ndarray:
    pairs = (n + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], no log(0)
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:n]


def _reference_length_normalize(values: np.ndarray) -> np.ndarray:
    vec = np.asarray(values, dtype=np.float64)
    vec = np.ldexp(vec, -math.frexp(np.abs(vec).max(initial=0.0))[1])
    norm = float(np.linalg.norm(vec))
    if norm == 0.0 or not math.isfinite(norm):
        raise NumericError("cannot length-normalize a zero-norm or non-finite vector")
    return vec / norm


def _reference_generate(cfg: SynthConfig) -> SynthDataset:
    gaussians, length_normalize = _reference_gaussians, _reference_length_normalize
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    spoof_dir = length_normalize(gaussians(rng, cfg.sv_dim))
    cm_dir = length_normalize(gaussians(rng, cfg.cm_dim))

    speakers = [f"S{i + 1:03d}" for i in range(cfg.n_speakers)]
    centroids = {
        spk: length_normalize(gaussians(rng, cfg.sv_dim)) for spk in speakers
    }

    sv_store = reference.EmbeddingStore("sv")
    cm_store = reference.EmbeddingStore("cm")
    bona_utts: dict[str, list[str]] = {spk: [] for spk in speakers}
    spoof_utts: dict[str, list[str]] = {spk: [] for spk in speakers}
    half_sep = 0.5 * cfg.cm_separation

    for spk in speakers:
        c = centroids[spk]
        enroll_id = f"{spk}_E000"
        sv_store.add(enroll_id, length_normalize(c + cfg.sv_noise * gaussians(rng, cfg.sv_dim)))
        for j in range(cfg.utts_per_speaker):
            utt_id = f"{spk}_U{j + 1:03d}"
            sv_store.add(utt_id, length_normalize(c + cfg.sv_noise * gaussians(rng, cfg.sv_dim)))
            cm_store.add(utt_id, half_sep * cm_dir + cfg.cm_noise * gaussians(rng, cfg.cm_dim))
            bona_utts[spk].append(utt_id)
        for j in range(cfg.spoofs_per_speaker):
            utt_id = f"{spk}_A{j + 1:03d}"
            target = c + cfg.spoof_sv_offset * spoof_dir
            sv_store.add(utt_id, length_normalize(target + cfg.sv_noise * gaussians(rng, cfg.sv_dim)))
            cm_store.add(utt_id, -half_sep * cm_dir + cfg.cm_noise * gaussians(rng, cfg.cm_dim))
            spoof_utts[spk].append(utt_id)

    n_train, n_dev, n_eval = _split_sizes(cfg.n_speakers)
    split_speakers = {
        "train": speakers[:n_train],
        "dev": speakers[n_train:n_train + n_dev],
        "eval": speakers[n_train + n_dev:],
    }

    protocols: dict[str, Protocol] = {}
    for split in SPLIT_NAMES:
        members = split_speakers[split]
        trials: list[Trial] = []
        for spk in members:
            enroll_id = f"{spk}_E000"
            for utt_id in bona_utts[spk]:
                trials.append(Trial(enroll_id, utt_id, TrialLabel.TARGET))
        for spk in members:
            enroll_id = f"{spk}_E000"
            pool = [u for other in members if other != spk for u in bona_utts[other]]
            picks = rng.choice(len(pool), size=cfg.utts_per_speaker, replace=False)
            for k in np.sort(picks):
                trials.append(Trial(enroll_id, pool[int(k)], TrialLabel.NONTARGET))
        for spk in members:
            enroll_id = f"{spk}_E000"
            for utt_id in spoof_utts[spk]:
                trials.append(Trial(enroll_id, utt_id, TrialLabel.SPOOF))
        protocols[split] = Protocol(trials, name=split)

    return SynthDataset(
        config=cfg,
        sv_store=sv_store,
        cm_store=cm_store,
        protocols=protocols,
        split_speakers=split_speakers,
    )


def _assert_same_dataset(got: SynthDataset, want: SynthDataset) -> None:
    assert got.split_speakers == want.split_speakers
    for got_store, want_store in ((got.sv_store, want.sv_store),
                                  (got.cm_store, want.cm_store)):
        assert list(got_store.index.items()) == list(want_store.index.items())
        assert got_store.matrix.shape == want_store.matrix.shape
        assert np.array_equal(got_store.matrix.view(np.uint64),
                              want_store.matrix.view(np.uint64)), got_store.kind
    assert list(got.protocols) == list(want.protocols)
    for split, protocol in want.protocols.items():
        assert got.protocols[split].name == protocol.name
        assert got.protocols[split].trials == protocol.trials, split


@pytest.mark.parametrize("cfg", [
    SynthConfig(n_speakers=30, utts_per_speaker=20, spoofs_per_speaker=20,
                sv_dim=16, cm_dim=16, seed=1),                     # the acceptance config
    SynthConfig(n_speakers=10, utts_per_speaker=4, spoofs_per_speaker=3,
                sv_dim=7, cm_dim=1, seed=2),                       # odd dims: the pair trim
    SynthConfig(n_speakers=12, utts_per_speaker=5, spoofs_per_speaker=3,
                sv_dim=7, cm_dim=5, spoof_sv_offset=0.3, seed=4),
    SynthConfig(n_speakers=7, utts_per_speaker=6, spoofs_per_speaker=5,
                sv_dim=192, cm_dim=160, seed=3),                   # the large config's dims
    SynthConfig(n_speakers=8, utts_per_speaker=3, spoofs_per_speaker=4,
                sv_dim=193, cm_dim=161, spoof_sv_offset=0.3, seed=9),
    SynthConfig(n_speakers=6, utts_per_speaker=1, spoofs_per_speaker=1,
                sv_dim=2, cm_dim=1, seed=0),                       # the smallest config
], ids=["acceptance", "dims-7-1", "dims-7-5-offset", "dims-192-160", "dims-193-161-offset",
        "minimum"])
def test_block_generator_matches_the_per_utterance_oracle(cfg):
    _assert_same_dataset(generate(cfg), _reference_generate(cfg))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n_speakers=st.integers(6, 12), utts=st.integers(1, 4), spoofs=st.integers(1, 4),
       sv_dim=st.integers(2, 9), cm_dim=st.integers(1, 9),
       offset=st.sampled_from([0.0, 0.3, 2.5]), noise=st.sampled_from([0.0, 0.1, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_block_generator_matches_the_oracle_on_random_configs(n_speakers, utts, spoofs,
                                                              sv_dim, cm_dim, offset,
                                                              noise, seed):
    cfg = SynthConfig(n_speakers=n_speakers, utts_per_speaker=utts,
                      spoofs_per_speaker=spoofs, sv_dim=sv_dim, cm_dim=cm_dim,
                      sv_noise=noise, cm_noise=noise, spoof_sv_offset=offset, seed=seed)
    _assert_same_dataset(generate(cfg), _reference_generate(cfg))
