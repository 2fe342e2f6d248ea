"""Synthetic embedding benchmark with a controllable spoof-mimicry failure mode.

Speaker centroids live on the SV unit sphere. Bonafide utterances are noisy
copies of their speaker's centroid; spoof utterances target a victim speaker's
centroid shifted by spoof_sv_offset along one fixed direction, so offset 0
makes spoofs indistinguishable from genuine speech in SV space. CM embeddings
form two clusters (bonafide vs spoof) cm_separation apart along one fixed
direction with isotropic cm_noise.

All randomness flows from a single PCG64 stream; gaussians come from an
explicit Box-Muller transform rather than the generator's ziggurat sampler so
the draw sequence is pinned down exactly. Draw order: spoof direction, CM
direction, speaker centroids, then per speaker the enrollment / bonafide /
spoof utterance noise (SV then CM per utterance), then nontarget trial
sampling per split in train, dev, eval order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (DataError, EmbeddingStore, Protocol, Trial, TrialLabel,
                   check_protocol_ids, length_normalize, save_embeddings,
                   save_protocol, sv_scores)

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
        if self.n_speakers < 6:
            raise DataError("need at least 6 speakers for three disjoint splits of >= 2")
        if self.utts_per_speaker < 1 or self.spoofs_per_speaker < 1:
            raise DataError("utterance counts must be >= 1")
        if self.sv_dim < 2 or self.cm_dim < 1:
            raise DataError("sv_dim must be >= 2 and cm_dim >= 1")
        if min(self.sv_noise, self.cm_noise, self.cm_separation) < 0.0:
            raise DataError("noise and separation parameters must be non-negative")
        if self.spoof_sv_offset < 0.0:
            raise DataError("spoof_sv_offset must be non-negative")


@dataclass
class SynthDataset:
    config: SynthConfig
    sv_store: EmbeddingStore
    cm_store: EmbeddingStore
    protocols: dict[str, Protocol]
    split_speakers: dict[str, list[str]]
    cm_direction: np.ndarray = field(repr=False, default=None)
    spoof_direction: np.ndarray = field(repr=False, default=None)


def gaussians(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller over PCG64 uniforms."""
    pairs = (n + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], no log(0)
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:n]


def _split_sizes(n_speakers: int) -> tuple[int, int, int]:
    side = max(2, n_speakers // 5)
    return n_speakers - 2 * side, side, side


def generate(cfg: SynthConfig) -> SynthDataset:
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    spoof_dir = length_normalize(gaussians(rng, cfg.sv_dim))
    cm_dir = length_normalize(gaussians(rng, cfg.cm_dim))

    speakers = [f"S{i + 1:03d}" for i in range(cfg.n_speakers)]
    centroids = {
        spk: length_normalize(gaussians(rng, cfg.sv_dim)) for spk in speakers
    }

    sv_store = EmbeddingStore("sv")
    cm_store = EmbeddingStore("cm")
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
        cm_direction=cm_dir,
        spoof_direction=spoof_dir,
    )


def describe(ds: SynthDataset) -> dict:
    """Per-split trial counts and separation statistics, for sanity checks."""
    out = {"seed": ds.config.seed, "splits": {}}
    for split, protocol in ds.protocols.items():
        counts = protocol.counts()
        s_sv = sv_scores(check_protocol_ids(protocol, ds.sv_store, None), ds.sv_store)
        labels = np.array([t.label for t in protocol.trials])
        tar_cos = s_sv[labels == TrialLabel.TARGET]
        non_cos = s_sv[labels == TrialLabel.NONTARGET]
        test_ids = {t.test_id: t.label for t in protocol.trials}
        bona_proj = [float(ds.cm_store.vector(u) @ ds.cm_direction)
                     for u, lab in test_ids.items() if lab is not TrialLabel.SPOOF]
        spoof_proj = [float(ds.cm_store.vector(u) @ ds.cm_direction)
                      for u, lab in test_ids.items() if lab is TrialLabel.SPOOF]
        out["splits"][split] = {
            "speakers": len(ds.split_speakers[split]),
            "target": counts[TrialLabel.TARGET],
            "nontarget": counts[TrialLabel.NONTARGET],
            "spoof": counts[TrialLabel.SPOOF],
            "mean_target_sv_cosine": float(np.mean(tar_cos)),
            "mean_nontarget_sv_cosine": float(np.mean(non_cos)),
            "mean_bona_cm_projection": float(np.mean(bona_proj)) if bona_proj else None,
            "mean_spoof_cm_projection": float(np.mean(spoof_proj)) if spoof_proj else None,
        }
    return out


DATASET_FILES = {
    "sv_emb": "sv_embeddings.tsv",
    "cm_emb": "cm_embeddings.tsv",
    "train": "train_protocol.tsv",
    "dev": "dev_protocol.tsv",
    "eval": "eval_protocol.tsv",
}


def write_dataset(ds: SynthDataset, out_dir: str) -> dict[str, str]:
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {key: os.path.join(out_dir, name) for key, name in DATASET_FILES.items()}
    save_embeddings(ds.sv_store, paths["sv_emb"])
    save_embeddings(ds.cm_store, paths["cm_emb"])
    for split in SPLIT_NAMES:
        save_protocol(ds.protocols[split], paths[split])
    return paths
