"""Synthetic embedding benchmark with a controllable spoof-mimicry failure mode.

Speaker centroids live on the SV unit sphere. Bonafide utterances are noisy
copies of their speaker's centroid; spoof utterances target a victim speaker's
centroid shifted by spoof_sv_offset along one fixed direction, so offset 0
makes spoofs indistinguishable from genuine speech in SV space. CM embeddings
form two clusters (bonafide vs spoof) cm_separation apart along one fixed
direction with isotropic cm_noise.

All randomness flows from a single PCG64 stream; gaussians come from an
explicit Box-Muller transform rather than the generator's ziggurat sampler so
the draw sequence is pinned down exactly. A draw of n gaussians takes
2 * ceil(n / 2) uniforms: the first half as u1, the second as u2. Draw order:
spoof direction, CM direction, speaker centroids, then per speaker the
enrollment / bonafide / spoof utterance noise (SV then CM per utterance),
then nontarget trial sampling per split in train, dev, eval order. Each
speaker's utterance noise is drawn as one block of uniforms in that order;
the stream is consumed in order, so block draws give the same numbers as one
draw per utterance would.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (DataError, EmbeddingStore, Protocol, Trial, TrialLabel,
                   check_int_fields, length_normalize, length_normalize_rows,
                   save_embeddings, save_protocol)

SPLIT_NAMES = ("train", "dev", "eval")


@dataclass(frozen=True)
class SynthConfig:
    n_speakers: int = 30
    utts_per_speaker: int = 10
    spoofs_per_speaker: int = 10
    sv_dim: int = 16
    cm_dim: int = 16
    sv_noise: float = 0.1
    spoof_sv_offset: float = 0.0
    cm_separation: float = 4.0
    cm_noise: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_int_fields(self)
        if self.n_speakers < 6:
            raise DataError("need at least 6 speakers for three disjoint splits of >= 2")
        if self.utts_per_speaker < 1 or self.spoofs_per_speaker < 1:
            raise DataError("utterance counts must be >= 1")
        if self.sv_dim < 2 or self.cm_dim < 1:
            raise DataError("sv_dim must be >= 2 and cm_dim >= 1")
        # a comparison, not math.isfinite: NaN fails it, and an int too large
        # for a float is compared exactly rather than overflowing
        if not all(0.0 <= v < math.inf
                   for v in (self.sv_noise, self.cm_noise, self.cm_separation)):
            raise DataError("noise and separation parameters must be finite and non-negative")
        if not 0.0 <= self.spoof_sv_offset < math.inf:
            raise DataError("spoof_sv_offset must be finite and non-negative")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SynthDataset:
    config: SynthConfig
    sv_store: EmbeddingStore
    cm_store: EmbeddingStore
    protocols: dict[str, Protocol]
    split_speakers: dict[str, list[str]]


def _box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """n standard normals from each row of uniforms [..., 2 * pairs], pairs >= n / 2."""
    pairs = u.shape[-1] // 2
    u1, u2 = u[..., :pairs], u[..., pairs:]
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], no log(0)
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    return z[..., :n]


def _uniforms_per_draw(n: int) -> int:
    return 2 * ((n + 1) // 2)


def gaussians(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller over PCG64 uniforms."""
    return _box_muller(rng.random(_uniforms_per_draw(n)), n)


def _split_sizes(n_speakers: int) -> tuple[int, int, int]:
    side = max(2, n_speakers // 5)
    return n_speakers - 2 * side, side, side


def generate(cfg: SynthConfig) -> SynthDataset:
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    spoof_dir = length_normalize(gaussians(rng, cfg.sv_dim))
    cm_dir = length_normalize(gaussians(rng, cfg.cm_dim))

    n_spk, n_bona, n_spoof = cfg.n_speakers, cfg.utts_per_speaker, cfg.spoofs_per_speaker
    sv_draw, cm_draw = _uniforms_per_draw(cfg.sv_dim), _uniforms_per_draw(cfg.cm_dim)
    speakers = [f"S{i + 1:03d}" for i in range(n_spk)]
    centroids = length_normalize_rows(
        _box_muller(rng.random(n_spk * sv_draw).reshape(n_spk, sv_draw), cfg.sv_dim))

    # the stores' matrices at their exact size, which each store takes without a
    # copy: per speaker, SV rows enrollment, bonafide, spoof; CM rows bonafide, spoof
    n_utts = n_bona + n_spoof
    sv_rows = np.empty((n_spk * (1 + n_utts), cfg.sv_dim))
    cm_rows = np.empty((n_spk * n_utts, cfg.cm_dim))
    half_sep = 0.5 * cfg.cm_separation
    spoof_shift = cfg.spoof_sv_offset * spoof_dir
    cm_centres = np.repeat([half_sep * cm_dir, -half_sep * cm_dir], [n_bona, n_spoof], axis=0)
    for i, c in enumerate(centroids):
        block = rng.random(sv_draw + n_utts * (sv_draw + cm_draw))
        utts = block[sv_draw:].reshape(n_utts, sv_draw + cm_draw)
        noise = _box_muller(np.vstack([block[:sv_draw], utts[:, :sv_draw]]), cfg.sv_dim)
        sv = sv_rows[i * (1 + n_utts):(i + 1) * (1 + n_utts)]
        sv[:1 + n_bona] = c + cfg.sv_noise * noise[:1 + n_bona]
        sv[1 + n_bona:] = (c + spoof_shift) + cfg.sv_noise * noise[1 + n_bona:]
        sv[:] = length_normalize_rows(sv)
        cm_rows[i * n_utts:(i + 1) * n_utts] = (
            cm_centres + cfg.cm_noise * _box_muller(utts[:, sv_draw:], cfg.cm_dim))

    bona_utts = {spk: [f"{spk}_U{j + 1:03d}" for j in range(n_bona)] for spk in speakers}
    spoof_utts = {spk: [f"{spk}_A{j + 1:03d}" for j in range(n_spoof)] for spk in speakers}
    sv_store = EmbeddingStore("sv", [u for spk in speakers for u in
                                     (f"{spk}_E000", *bona_utts[spk], *spoof_utts[spk])],
                              sv_rows)
    cm_store = EmbeddingStore("cm", [u for spk in speakers
                                     for u in (*bona_utts[spk], *spoof_utts[spk])], cm_rows)

    n_train, n_dev, n_eval = _split_sizes(n_spk)
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
        for i, spk in enumerate(members):
            enroll_id = f"{spk}_E000"
            # a pick k indexes the bonafide utterances of the other members in
            # member order: utterance j of member m, counting past spk itself
            picks = rng.choice((len(members) - 1) * n_bona, size=n_bona, replace=False)
            for k in np.sort(picks).tolist():
                m, j = divmod(k, n_bona)
                other = members[m + (m >= i)]
                trials.append(Trial(enroll_id, bona_utts[other][j], TrialLabel.NONTARGET))
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


DATASET_FILES = {
    "sv_emb": "sv_embeddings.tsv",
    "cm_emb": "cm_embeddings.tsv",
    "train": "train_protocol.tsv",
    "dev": "dev_protocol.tsv",
    "eval": "eval_protocol.tsv",
}


def write_dataset(ds: SynthDataset, out_dir: str) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = {key: os.path.join(out_dir, name) for key, name in DATASET_FILES.items()}
    save_embeddings(ds.sv_store, paths["sv_emb"])
    save_embeddings(ds.cm_store, paths["cm_emb"])
    for split in SPLIT_NAMES:
        save_protocol(ds.protocols[split], paths[split])
    return paths
