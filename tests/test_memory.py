"""Peak memory of the stages that read a whole protocol: none of them copies
the protocol's embeddings into an [N, D] matrix.

Each stage gathers only the rows of the block, chunk or batch it computes,
so its peak stays near its result plus a few of those. The peak is measured
with `tracemalloc`, started after the inputs are built; NumPy reports its
array buffers to it. Each bound lies between the peak measured with the
whole-protocol copies (the first figure in its comment) and without them
(the second), on NumPy 2.4 with OpenBLAS. A block of `sv_scores` holds a
fixed count of values, not of rows, so a wide store's blocks are no larger.
The cascade fit's sweep holds O(N) memory: each level of its wavelet matrix
is built, walked and dropped in turn.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from sasv.baselines import fit_cascade
from sasv.core import EmbeddingStore, Protocol, Trial, TrialLabel, TrialRows, sv_scores
from sasv.loss import OneClassSoftmaxConfig
from sasv.model import InputMode, IntegrationModel, spoof_scores_for
from sasv.training import TrainConfig, train

MIB = 2**20


def _peak(fn):
    """fn's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stores(n_utts: int, dim: int, rng):
    ids = [f"u{i}" for i in range(n_utts)]
    return (ids, EmbeddingStore("sv", ids, rng.normal(size=(n_utts, dim))),
            EmbeddingStore("cm", ids, rng.normal(size=(n_utts, dim))))


def test_sv_scores_gather_each_block():
    rng = np.random.default_rng(0)
    n, dim = 50_000, 32  # one [N, D] copy is 12.2 MiB
    _, sv, _ = _stores(1000, dim, rng)
    rows = TrialRows(rng.integers(0, 1000, n), rng.integers(0, 1000, n), None)
    scores, peak = _peak(lambda: sv_scores(rows, sv))
    assert scores.shape == (n,)
    # 28.9 MiB with two [N, D] copies, 6.5 MiB gathered per 4,096-row block,
    # 3.4 MiB per 65,536-value block
    assert peak < 12 * MIB, peak / MIB


def test_sv_scores_blocks_hold_a_fixed_count_of_values():
    rng = np.random.default_rng(5)
    n, dim = 28_800, 192  # the large config's train trials and SV width
    _, sv, _ = _stores(1000, dim, rng)
    rows = TrialRows(rng.integers(0, 1000, n), rng.integers(0, 1000, n), None)
    scores, peak = _peak(lambda: sv_scores(rows, sv))
    assert scores.shape == (n,)
    # 36.3 MiB in blocks of 4,096 rows, 3.3 MiB in blocks of 65,536 values
    assert peak < 8 * MIB, peak / MIB


def test_spoof_scores_gather_each_chunk():
    rng = np.random.default_rng(1)
    n_utts, dim = 20_000, 32  # the [U, input_dim] inputs are 9.8 MiB
    _, sv, cm = _stores(n_utts, dim, rng)
    model = IntegrationModel(InputMode.CONCAT, dim, dim, np.random.default_rng(2))
    test = rng.permutation(n_utts)
    s_spf, peak = _peak(lambda: spoof_scores_for(model, TrialRows(test, test, test), sv, cm))
    assert s_spf.shape == (n_utts,)
    # 20.4 MiB with the inputs and their padded copy, 1.7 MiB per SCORE_BATCH chunk
    assert peak < 6 * MIB, peak / MIB


def test_training_gathers_each_batch():
    rng = np.random.default_rng(3)
    n, n_utts, dim = 20_000, 2000, 128
    ids, sv, cm = _stores(n_utts, dim, rng)
    labels = list(TrialLabel)

    def protocol(size):
        pick = rng.integers(0, n_utts, (2, size))
        return Protocol([Trial(ids[e], ids[t], labels[k]) for e, t, k
                         in zip(*pick, rng.integers(0, len(labels), size))])

    train_protocol, dev_protocol = protocol(n), protocol(200)
    model = IntegrationModel(InputMode.CONCAT, dim, dim, np.random.default_rng(4))
    copy = n * model.input_dim * 8  # one [N, input_dim] float64 copy: 39.1 MiB
    result, peak = _peak(lambda: train(
        model, sv, cm, train_protocol, dev_protocol, TrainConfig(batch_size=500, epochs=1),
        OneClassSoftmaxConfig()))
    assert len(result.history) == 1
    # 94.9 MiB with the inputs and the SV rows copied whole, 24.8 MiB per batch
    assert peak < copy, (peak / MIB, copy / MIB)


def test_fit_cascade_sweep_holds_no_grid_by_group_table():
    rng = np.random.default_rng(6)
    n, n_groups = 50_000, 30_000  # every s_sv distinct: a 50,001-value grid
    group = rng.permutation(np.concatenate(
        [np.arange(n_groups), rng.integers(0, n_groups, n - n_groups)]))
    s_cm = np.sort(rng.normal(size=n_groups))[group]
    code = np.where(group < n_groups // 3, 2, rng.integers(0, 2, n))
    labels = [list(TrialLabel)[c] for c in code.tolist()]
    s_sv = rng.normal(np.where(code == 1, 0.0, 0.6), 0.25)
    table = (n + 1) * n_groups * 8  # grid values x CM groups, float64: 11.2 GiB
    tau, peak = _peak(lambda: fit_cascade(s_sv, s_cm, labels))
    assert np.isfinite(tau)
    # 8.3 MiB for the pointer walk's per-grid-value lists, 11.5 MiB for the
    # vectorized walk (one level of the wavelet matrix at a time)
    assert peak < 24 * MIB < table, peak / MIB
