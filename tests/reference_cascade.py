"""The cascade sweep as a pointer walk over the score grid, kept as it was
before the sweep became one vectorized walk of a wavelet matrix: the
reference that `baselines._gated_prefix_eers` is checked against, bit for
bit. It carries its own scalar copy of `metrics.eer_at_crossing`, so a fault
in the elementwise one does not reach it.
"""

from __future__ import annotations

import numpy as np

from sasv.baselines import CASCADE_FLOOR


def eer_at_crossing(frr_prev, far_prev, frr_next, far_next):
    """The EER between two adjacent sweep points, the first with far > frr
    and the next with far <= frr."""
    d_prev, d_next = far_prev - frr_prev, far_next - frr_next
    if d_next == 0.0:
        return far_next
    t = d_prev / (d_prev - d_next)
    eer_frr = frr_prev + t * (frr_next - frr_prev)
    eer_far = far_prev + t * (far_next - far_prev)
    return 0.5 * (eer_frr + eer_far)


def gated_prefix_eers(s_sv, group, n_groups: int, is_target) -> np.ndarray:
    """metrics.eer of cascade_scores, bit for bit, with the trials of CM
    groups 0..k-1 gated, for k = 0..n_groups.

    Every prefix is scored on one grid: the distinct s_sv and CASCADE_FLOOR,
    then the terminal point. At a grid value no score takes, the rates equal
    those of the next value, so the first grid index with far - frr <= 0 and
    the one before it hold the rates eer interpolates between. Gating a trial
    lowers far - frr above the floor and raises it at and below it, so that
    index moves right while it lies at or below the floor, then only left (it
    never lies there when no s_sv is below the floor): one pointer, moved in
    O(1) steps, finds it for every prefix.
    """
    grid, at = np.unique(np.append(s_sv, CASCADE_FLOOR), return_inverse=True)
    floor, at = int(at[-1]), at[:-1]
    n_pos = int(is_target.sum())
    n_neg = is_target.size - n_pos
    # passing trials per grid value
    pos_at = np.bincount(at[is_target], minlength=grid.size).tolist()
    neg_at = np.bincount(at[~is_target], minlength=grid.size).tolist()
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(np.bincount(group, minlength=n_groups)).tolist()
    gated_at, gated_pos = at[order].tolist(), is_target[order].tolist()

    # the pointer j, the passing targets below grid[j] and the passing
    # negatives at or above it, and the gated trials of each class
    j, below, above, gated_p, gated_n = 0, 0, n_neg, 0, 0

    def rates(j, below, above):
        return ((below + (gated_p if j > floor else 0)) / n_pos,
                (above + (gated_n if j <= floor else 0)) / n_neg)

    eers = []
    start = 0
    for k in range(n_groups + 1):
        while True:
            frr, far = rates(j, below, above)
            if far - frr > 0.0:  # the crossing lies to the right
                below, above, j = below + pos_at[j], above - neg_at[j], j + 1
                continue
            frr_prev, far_prev = rates(j - 1, below - pos_at[j - 1],
                                       above + neg_at[j - 1])
            if far_prev - frr_prev > 0.0:
                break
            below, above, j = below - pos_at[j - 1], above + neg_at[j - 1], j - 1
        eers.append(eer_at_crossing(frr_prev, far_prev, frr, far))
        if k == n_groups:
            break
        for i in range(start, ends[k]):
            s = gated_at[i]
            if gated_pos[i]:
                pos_at[s] -= 1
                gated_p += 1
                below -= s < j
            else:
                neg_at[s] -= 1
                gated_n += 1
                above -= s >= j
        start = ends[k]
    return np.array(eers)
