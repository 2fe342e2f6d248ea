"""Output checks of the benchmark, computed apart from the program.

Nothing here calls into `sasv`: the EER is recounted by direct comparison
of every score against every threshold, cosines come from the benchmark's
own parse of the embedding text, and the cascade and logistic-regression
properties are checked from their definitions. Each check returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import struct

import numpy as np

EER_TOLERANCE = 1e-12
COSINE_TOLERANCE = 1e-12
_CHUNK = 512


def parse_embedding_text(path: str) -> tuple[dict[str, int], np.ndarray]:
    """id -> row map and the [N, D] matrix of an `ID<TAB>v1 v2 ...` file."""
    ids: dict[str, int] = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            utt_id, payload = line.rstrip("\n").split("\t")
            ids[utt_id] = len(ids)
            rows.append(np.array([float(v) for v in payload.split()]))
    return ids, np.stack(rows)


def counted_eer(positive, negative) -> float:
    """EER by counting, for every distinct score t, the positives below t and
    the negatives at or above t; linear interpolation at the crossing."""
    pos = np.asarray(positive, dtype=np.float64)
    neg = np.asarray(negative, dtype=np.float64)
    thresholds = np.array(sorted(set(pos.tolist()) | set(neg.tolist())))
    frr = np.empty(thresholds.size + 1)
    far = np.empty(thresholds.size + 1)
    for start in range(0, thresholds.size, _CHUNK):
        t = thresholds[start:start + _CHUNK, None]
        frr[start:start + t.shape[0]] = (pos[None, :] < t).sum(axis=1) / pos.size
        far[start:start + t.shape[0]] = (neg[None, :] >= t).sum(axis=1) / neg.size
    frr[-1], far[-1] = 1.0, 0.0
    for i in range(frr.size):
        d = far[i] - frr[i]
        if d <= 0.0:
            if d == 0.0:
                return float(far[i])
            d_prev = far[i - 1] - frr[i - 1]
            w = d_prev / (d_prev - d)
            return float(0.5 * ((frr[i - 1] + w * (frr[i] - frr[i - 1]))
                                + (far[i - 1] + w * (far[i] - far[i - 1]))))
    raise AssertionError("the FAR and FRR curves never cross")


def check_report(report, labels, scores, name: str) -> list[str]:
    """The SV, SPF and SASV EERs of a report equal a recount over `scores`."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    tar = scores[labels == "target"]
    non = scores[labels == "nontarget"]
    spf = scores[labels == "spoof"]
    expected = {"sasv": counted_eer(tar, np.concatenate([non, spf]))}
    if non.size:
        expected["sv"] = counted_eer(tar, non)
    if spf.size:
        expected["spf"] = counted_eer(tar, spf)
    failures = []
    for key in ("sv", "spf", "sasv"):
        got = getattr(report, key)
        if (got is None) != (key not in expected):
            failures.append(f"{name}: {key.upper()}-EER present={got is not None}, "
                            f"recount present={key in expected}")
        elif got is not None and abs(got.eer - expected[key]) > EER_TOLERANCE:
            failures.append(f"{name}: {key.upper()}-EER {got.eer!r} but the "
                            f"recount gives {expected[key]!r}")
    return failures


def _bits(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


def check_cosines(s_sv, enroll_ids, test_ids, ids: dict[str, int],
                  matrix: np.ndarray, name: str) -> list[str]:
    """s_sv equals the row-wise cosine of the parsed SV text, to 1e-12."""
    e = matrix[[ids[i] for i in enroll_ids]]
    t = matrix[[ids[i] for i in test_ids]]
    expected = np.clip((e * t).sum(axis=1)
                       / (np.sqrt((e * e).sum(axis=1)) * np.sqrt((t * t).sum(axis=1))),
                       -1.0, 1.0)
    worst = float(np.max(np.abs(np.asarray(s_sv) - expected)))
    if not worst <= COSINE_TOLERANCE:
        return [f"{name}: s_sv differs from the parsed cosine by {worst:.3e}"]
    return []


def check_fusion_identity(s_sasv, s_sv, s_spf, sv_weight: float, name: str) -> list[str]:
    """s_sasv == sv_weight * s_sv + s_spf, bit for bit."""
    expected = sv_weight * np.asarray(s_sv) + np.asarray(s_spf)
    bad = int(np.count_nonzero(np.asarray(s_sasv) != expected))
    return [f"{name}: {bad} trials break s_sasv = sv_weight*s_sv + s_spf"] if bad else []


def check_shared_test_scores(test_ids, s_spf, name: str) -> list[str]:
    """Trials that share a test utterance have bit-identical s_spf."""
    first: dict[str, bytes] = {}
    bad = 0
    for utt, value in zip(test_ids, s_spf):
        bits = struct.pack("<d", value)
        if first.setdefault(utt, bits) != bits:
            bad += 1
    return [f"{name}: {bad} trials disagree with another trial of their test "
            "utterance on s_spf"] if bad else []


def check_same_rows(a_rows, b_rows, name: str) -> list[str]:
    """Two score tables hold the same ids, labels and float bits in one order."""
    if len(a_rows) != len(b_rows):
        return [f"{name}: {len(a_rows)} rows against {len(b_rows)}"]
    bad = sum(1 for a, b in zip(a_rows, b_rows)
              if a[:3] != b[:3] or _bits(a[3:]) != _bits(b[3:]))
    return [f"{name}: {bad} rows differ"] if bad else []


def check_enrollment_swap(s_spf, swapped_s_spf, name: str) -> list[str]:
    """Swapping the enrollment leaves s_spf bit-identical."""
    if _bits(s_spf) != _bits(swapped_s_spf):
        bad = int(np.count_nonzero(np.asarray(s_spf) != np.asarray(swapped_s_spf)))
        return [f"{name}: {bad} trials change s_spf when the enrollment is swapped"]
    return []


def check_best_epoch(best_epoch: int, dev_sasv_eers, name: str) -> list[str]:
    """The restored epoch is the first arg-min of dev SASV-EER (1-based)."""
    expected = int(np.argmin(np.asarray(dev_sasv_eers))) + 1
    if best_epoch != expected:
        return [f"{name}: restored epoch {best_epoch}, first arg-min is {expected}"]
    return []


def check_equal_bytes(first: bytes, second: bytes, name: str) -> list[str]:
    return [] if first == second else [f"{name}: the bytes differ"]


def check_sum(fused, s_sv, s_cm, name: str) -> list[str]:
    expected = np.asarray(s_sv, dtype=np.float64) + np.asarray(s_cm, dtype=np.float64)
    return [] if _bits(fused) == _bits(expected) else [f"{name}: sum != s_sv + s_cm"]


def cascade_candidates(s_cm) -> np.ndarray:
    """Every distinct CM score and every midpoint of adjacent distinct scores."""
    distinct = np.unique(np.asarray(s_cm, dtype=np.float64))
    return np.sort(np.concatenate([distinct, (distinct[:-1] + distinct[1:]) / 2.0]))


def cascade_eer(s_sv, s_cm, is_target, tau: float) -> float:
    """SASV-EER of the CM gate at tau: gated trials score below every SV score."""
    s_sv = np.asarray(s_sv, dtype=np.float64)
    gated = np.where(np.asarray(s_cm) < tau, s_sv.min() - 1.0, s_sv)
    return counted_eer(gated[is_target], gated[~is_target])


def check_cascade_tau(tau: float, s_sv, s_cm, labels, seed: int,
                      sample: int = 12) -> list[str]:
    """No sampled candidate beats tau, and no smaller candidate ties it.

    The sample is `sample` seeded draws from every candidate, plus the two
    candidates just below tau, which would win any tie.
    """
    is_target = np.asarray(labels) == "target"
    candidates = cascade_candidates(s_cm)
    pos = int(np.searchsorted(candidates, tau))
    if pos >= candidates.size or candidates[pos] != tau:
        return [f"cascade: tau {tau!r} is not one of the candidate thresholds"]
    rng = np.random.default_rng(seed)
    picks = set(rng.choice(candidates.size, size=min(sample, candidates.size),
                           replace=False).tolist())
    picks.update(i for i in (pos - 2, pos - 1) if i >= 0)
    best = cascade_eer(s_sv, s_cm, is_target, tau)
    failures = []
    for i in sorted(picks):
        e = cascade_eer(s_sv, s_cm, is_target, candidates[i])
        if e < best or (e == best and i < pos):
            failures.append(f"cascade: candidate {candidates[i]!r} reaches EER {e!r} "
                            f"against tau {tau!r} at {best!r}")
    return failures


def check_logreg(prob, weight, bias: float, s_sv, s_cm) -> list[str]:
    """Scores lie in (0, 1) and never decrease as w . s + b grows."""
    prob = np.asarray(prob, dtype=np.float64)
    failures = []
    if not (np.all(prob > 0.0) and np.all(prob < 1.0)):
        failures.append("logreg: a score lies outside (0, 1)")
    u = weight[0] * np.asarray(s_sv) + weight[1] * np.asarray(s_cm) + bias
    ordered = prob[np.argsort(u, kind="stable")]
    if np.any(np.diff(ordered) < 0.0):
        failures.append("logreg: scores are not monotone in w . s + b")
    return failures
