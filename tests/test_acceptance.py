"""Release acceptance gate.

Each test here audits one shipping requirement end to end and prints a
single PASS/FAIL line with the measured numbers. Budgets are wall-clock
seconds on a single core; oracles are written against independent
implementations (mpmath, pure-Python counting) rather than the library
code they audit.
"""

from __future__ import annotations

import filecmp
import struct
import time
from bisect import bisect_left

import numpy as np
import pytest

from sasv import baselines, gradcheck, metrics, training
from sasv.checkpoint import (Checkpoint, checkpoint_from_bytes,
                             checkpoint_to_bytes, load_checkpoint,
                             save_checkpoint)
from sasv.core import DataError, EmbeddingStore, Protocol, Trial, TrialLabel
from sasv.loss import OneClassSoftmaxConfig, one_class_softmax
from sasv.metrics import eer, sasv_report
from sasv.model import InputMode, IntegrationModel, score_protocol
from sasv.synthgen import SynthConfig, generate, write_dataset
from sasv.training import TrainConfig, train

# the pinned end-to-end benchmark: geometry makes spoofs wear the victim's
# voice (sv offset 0) while the cm embedding still separates them
BENCH_SYNTH = SynthConfig(n_speakers=30, utts_per_speaker=20,
                          spoofs_per_speaker=20, sv_dim=16, cm_dim=16, seed=1)
BENCH_TRAIN = TrainConfig(epochs=120, seed=0)

SMALL_SYNTH = SynthConfig(n_speakers=8, utts_per_speaker=3,
                          spoofs_per_speaker=3, sv_dim=6, cm_dim=5, seed=7)


def _verdict(ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {text}")
    assert ok, text


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_gradients_match_finite_differences():
    start = time.perf_counter()
    results = gradcheck.run_gradient_checks(seeds=range(10))
    elapsed = time.perf_counter() - start
    worst = max(results.values())
    _verdict(worst < 1e-4 and elapsed < 30.0,
             f"gradients: max rel err {worst:.3e} over 10 seeds x "
             f"{len(results)} components in {elapsed:.1f}s (budget 30s)")


def test_loss_matches_high_precision_oracle():
    import mpmath
    mpmath.mp.dps = 50

    def oracle(s: float, z: int, scale: float, m_real: float, m_fake: float) -> float:
        sign = 1 if z == 0 else -1
        margin = m_real if z == 0 else m_fake
        a = mpmath.mpf(scale) * (mpmath.mpf(margin) - mpmath.mpf(s)) * sign
        if a <= 0:
            return float(mpmath.log1p(mpmath.exp(a)))
        return float(a + mpmath.log1p(mpmath.exp(-a)))

    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        z = int(rng.integers(0, 2))
        scale = float(rng.uniform(0.5, 100.0))
        m_real = float(rng.uniform(-2.0, 2.0))
        m_fake = float(rng.uniform(-2.0, 2.0))
        arg = float(rng.uniform(-200.0, 200.0))
        sign = 1.0 if z == 0 else -1.0
        margin = m_real if z == 0 else m_fake
        s = margin - arg / (scale * sign)
        cfg = OneClassSoftmaxConfig(scale=scale, margin_real=m_real,
                                    margin_fake=m_fake)
        loss, _ = one_class_softmax(cfg, [s], [z])
        worst = max(worst, abs(loss - oracle(s, z, scale, m_real, m_fake)))
    elapsed = time.perf_counter() - start
    _verdict(worst <= 1e-9 and elapsed < 5.0,
             f"loss: max abs err {worst:.3e} over 1000 tuples, |arg| up to 200, "
             f"in {elapsed:.1f}s (budget 5s)")


def _counting_eer(pos, neg) -> float:
    # independent of metrics.eer: sorted counting via bisect
    pos = sorted(float(v) for v in pos)
    neg = sorted(float(v) for v in neg)
    points = []
    for t in sorted(set(pos) | set(neg)):
        frr = bisect_left(pos, t) / len(pos)
        far = (len(neg) - bisect_left(neg, t)) / len(neg)
        points.append((frr, far))
    points.append((1.0, 0.0))
    for i, (frr, far) in enumerate(points):
        if far - frr <= 0.0:
            if far - frr == 0.0:
                return far
            pf, pa = points[i - 1]
            w = (pa - pf) / ((pa - pf) - (far - frr))
            return 0.5 * ((pf + w * (frr - pf)) + (pa + w * (far - pa)))
    raise AssertionError("no crossing found")


def test_eer_matches_brute_force_counting():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(200):
        n_pos = int(rng.integers(2, 201))
        n_neg = int(rng.integers(2, 201))
        if case % 2:
            # coarse grid forces heavy ties within and across classes
            pos = rng.integers(0, 9, size=n_pos) / 4.0
            neg = rng.integers(-2, 7, size=n_neg) / 4.0
        else:
            pos = rng.normal(1.0, 1.0, size=n_pos)
            neg = rng.normal(-1.0, 1.0, size=n_neg)
        worst = max(worst, abs(eer(pos, neg).eer - _counting_eer(pos, neg)))
    elapsed = time.perf_counter() - start
    _verdict(worst <= 1e-12 and elapsed < 10.0,
             f"eer: max abs err {worst:.3e} over 200 pair sets, sizes 2-200, "
             f"tied and untied, in {elapsed:.1f}s (budget 10s)")


def _train_benchmark_model(ds, mode: InputMode):
    rng = np.random.Generator(np.random.PCG64(0))
    model = IntegrationModel(mode, ds.config.sv_dim, ds.config.cm_dim, rng)
    return train(model, ds.sv_store, ds.cm_store, ds.protocols["train"],
                 ds.protocols["dev"], BENCH_TRAIN, OneClassSoftmaxConfig())


def test_end_to_end_synthetic_benchmark():
    start = time.perf_counter()
    ds = generate(BENCH_SYNTH)
    concat = _train_benchmark_model(ds, InputMode.CONCAT)
    cm_only = _train_benchmark_model(ds, InputMode.CM_ONLY)

    records = score_protocol(concat.model, ds.protocols["eval"],
                             ds.sv_store, ds.cm_store)
    proposed = sasv_report(records)
    sv_only = sasv_report(records, "s_sv")

    dev, ev = ds.protocols["dev"], ds.protocols["eval"]
    source = baselines.CmScoreSource.from_model(cm_only.model,
                                                ds.sv_store, ds.cm_store)
    dev_sv = baselines.sv_scores_for(dev, ds.sv_store)
    dev_cm = source.scores_for(dev)
    ev_sv = baselines.sv_scores_for(ev, ds.sv_store)
    ev_cm = source.scores_for(ev)
    dev_labels = [t.label for t in dev.trials]

    sum_eer = sasv_report(
        baselines.baseline_records("sum", ev, ev_sv, ev_cm, None)).sasv.eer
    logreg = baselines.fit_logreg(dev_sv, dev_cm, dev_labels)
    logreg_eer = sasv_report(
        baselines.baseline_records("logreg", ev, ev_sv, ev_cm, logreg)).sasv.eer
    elapsed = time.perf_counter() - start

    spoof_blind = 0.40 <= sv_only.spf.eer <= 0.60
    absolute = proposed.sasv.eer <= 0.02
    no_sv_harm = proposed.sv.eer <= sv_only.sv.eer + 0.02
    beats = proposed.sasv.eer < sum_eer and proposed.sasv.eer < logreg_eer
    # both reach dev SASV-EER 0.0 and train no epoch past it
    stopped = all(len(r.history) == r.best_epoch and r.best_dev_sasv_eer == 0.0
                  for r in (concat, cm_only))
    _verdict(
        spoof_blind and absolute and no_sv_harm and beats and stopped
        and elapsed < 180.0,
        "benchmark: sv-only spf-eer "
        f"{sv_only.spf.eer:.4f} (wanted 0.40..0.60), fused sasv-eer "
        f"{proposed.sasv.eer:.4f} <= 0.02, sv-eer {proposed.sv.eer:.4f} vs "
        f"sv-only {sv_only.sv.eer:.4f}+0.02, sum {sum_eer:.4f}, logreg "
        f"{logreg_eer:.4f}, stopped at epochs {len(concat.history)} and "
        f"{len(cm_only.history)} of {BENCH_TRAIN.epochs} (wanted the dev-EER-0.0 "
        f"epochs {concat.best_epoch} and {cm_only.best_epoch}), "
        f"in {elapsed:.0f}s (budget 180s)",
    )


def test_byte_identical_determinism(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    paths_a = write_dataset(generate(SMALL_SYNTH), str(dir_a))
    paths_b = write_dataset(generate(SMALL_SYNTH), str(dir_b))
    datasets_equal = all(
        filecmp.cmp(paths_a[k], paths_b[k], shallow=False) for k in paths_a
    )

    def train_once():
        ds = generate(SMALL_SYNTH)
        rng = np.random.Generator(np.random.PCG64(3))
        model = IntegrationModel(InputMode.CONCAT, ds.config.sv_dim,
                                 ds.config.cm_dim, rng)
        result = train(model, ds.sv_store, ds.cm_store, ds.protocols["train"],
                       ds.protocols["dev"], TrainConfig(epochs=2, seed=3),
                       OneClassSoftmaxConfig())
        return ds, result

    ds, first = train_once()
    _, second = train_once()
    cfg = TrainConfig(epochs=2, seed=3)
    blob_a = checkpoint_to_bytes(training.model_to_checkpoint(
        first.model, cfg, OneClassSoftmaxConfig(), first.best_epoch,
        first.best_dev_sasv_eer))
    blob_b = checkpoint_to_bytes(training.model_to_checkpoint(
        second.model, cfg, OneClassSoftmaxConfig(), second.best_epoch,
        second.best_dev_sasv_eer))
    checkpoints_equal = blob_a == blob_b

    records = score_protocol(first.model, ds.protocols["eval"],
                             ds.sv_store, ds.cm_store)
    again = score_protocol(second.model, ds.protocols["eval"],
                           ds.sv_store, ds.cm_store)
    csv_a = tmp_path / "scores_a.csv"
    csv_b = tmp_path / "scores_b.csv"
    metrics.export_scores(records, str(csv_a))
    metrics.export_scores(again, str(csv_b))
    csvs_equal = csv_a.read_bytes() == csv_b.read_bytes()

    _verdict(datasets_equal and checkpoints_equal and csvs_equal,
             f"determinism: datasets {datasets_equal}, checkpoints "
             f"{checkpoints_equal}, score CSVs {csvs_equal}")


def test_spoof_score_ignores_enrollment():
    rng = np.random.default_rng(11)
    enrolls = [rng.normal(size=8), rng.normal(size=8)]
    tests = [f"t{i:03d}" for i in range(100)]
    rows = [(rng.normal(size=8), rng.normal(size=6)) for _ in tests]
    sv = EmbeddingStore("sv", ["eA", "eB", *tests], [*enrolls, *(s for s, _ in rows)])
    cm = EmbeddingStore("cm", tests, [c for _, c in rows])
    model = IntegrationModel(InputMode.CONCAT, 8, 6,
                             np.random.Generator(np.random.PCG64(11)))
    proto_a = Protocol([Trial("eA", t, TrialLabel.TARGET) for t in tests], "a")
    proto_b = Protocol([Trial("eB", t, TrialLabel.TARGET) for t in tests], "b")
    rec_a = score_protocol(model, proto_a, sv, cm)
    rec_b = score_protocol(model, proto_b, sv, cm)
    spf_stable = all(_bits(a.s_spf) == _bits(b.s_spf)
                     for a, b in zip(rec_a, rec_b))
    sv_moved = all(a.s_sv != b.s_sv for a, b in zip(rec_a, rec_b))
    _verdict(spf_stable and sv_moved,
             f"enrollment swap over 100 trials: s_spf bit-identical "
             f"{spf_stable}, s_sv changed {sv_moved}")


def _cascade_oracle(s_sv, s_cm, labels):
    """Smallest candidate threshold achieving the minimum pooled EER,
    candidates re-enumerated in pure Python."""
    is_target = [lab is TrialLabel.TARGET for lab in labels]
    distinct = sorted(set(float(v) for v in s_cm))
    candidates = sorted(distinct + [(a + b) / 2.0
                                    for a, b in zip(distinct, distinct[1:])])

    def eer_at(tau: float) -> float:
        scores = baselines.cascade_scores(s_sv, s_cm, tau)
        pos = [s for s, t in zip(scores, is_target) if t]
        neg = [s for s, t in zip(scores, is_target) if not t]
        return eer(pos, neg).eer

    best = min(eer_at(tau) for tau in candidates)
    smallest = next(tau for tau in candidates if eer_at(tau) == best)
    return best, smallest


def test_cascade_fit_is_globally_optimal():
    rng = np.random.default_rng(23)
    checked = 0
    for case in range(20):
        n = int(rng.integers(10, 61))
        labels = [TrialLabel.parse(str(rng.choice(["target", "nontarget", "spoof"])))
                  for _ in range(n)]
        if all(l is TrialLabel.TARGET for l in labels) or \
                not any(l is TrialLabel.TARGET for l in labels):
            labels[0] = TrialLabel.TARGET
            labels[1] = TrialLabel.SPOOF
        s_sv = rng.normal(size=n)
        if case % 2:
            s_cm = rng.integers(-3, 4, size=n) / 2.0  # tie-heavy
        else:
            s_cm = rng.normal(size=n)
        fitted = baselines.fit_cascade(s_sv, s_cm, labels)
        is_target = np.array([l is TrialLabel.TARGET for l in labels])
        scores = baselines.cascade_scores(s_sv, s_cm, fitted)
        achieved = eer(scores[is_target], scores[~is_target]).eer
        best, smallest = _cascade_oracle(s_sv, s_cm, labels)
        assert achieved == best, f"set {case}: {achieved} != optimum {best}"
        assert fitted == smallest, f"set {case}: tie not broken downward"
        checked += 1
    _verdict(checked == 20,
             "cascade fit: threshold achieves the exhaustive-candidate "
             f"minimum on {checked}/20 random dev sets, ties broken downward")


def _flip_detected(blob: bytes, pos: int, mask: int) -> bool:
    mutated = bytearray(blob)
    mutated[pos] ^= mask
    try:
        checkpoint_from_bytes(bytes(mutated))
    except DataError:
        return True
    return False


def test_checkpoints_round_trip_and_reject_corruption(tmp_path, tiny_trained):
    small_blobs = {
        "cascade": checkpoint_to_bytes(baselines.fit_outputs("cascade", 0.375)[0]),
        "logreg": checkpoint_to_bytes(baselines.fit_outputs("logreg", baselines.LogisticFusion(
            weight=np.array([0.8, -0.3]), bias=0.1))[0]),
        "integration": checkpoint_to_bytes(Checkpoint(
            kind="integration", meta={"mode": "concat"},
            arrays={"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)})),
    }
    result = tiny_trained
    real = checkpoint_to_bytes(training.model_to_checkpoint(
        result.model, TrainConfig(epochs=2, seed=3), OneClassSoftmaxConfig(),
        result.best_epoch, result.best_dev_sasv_eer))

    # save -> load -> save reproduces every blob byte for byte
    round_trips = True
    for name, blob in {**small_blobs, "trained": real}.items():
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(blob)
        again = tmp_path / f"{name}_again.ckpt"
        save_checkpoint(load_checkpoint(str(path)), str(again))
        round_trips &= again.read_bytes() == blob

    # every single-byte flip in the small blobs must be rejected
    rng = np.random.default_rng(31)
    flips = 0
    detected = True
    for blob in small_blobs.values():
        for pos in range(len(blob)):
            masks = (0xFF, int(rng.integers(1, 256)))
            for mask in masks:
                detected &= _flip_detected(blob, pos, mask)
                flips += 1
    # the full-size trained checkpoint gets a 400-position random sample
    positions = rng.choice(len(real), size=400, replace=False)
    for pos in positions:
        detected &= _flip_detected(real, int(pos), 0xFF)
        flips += 1

    _verdict(round_trips and detected,
             f"checkpoints: round trips byte-identical {round_trips}, "
             f"{flips} single-byte corruptions all rejected {detected}")
