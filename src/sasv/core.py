"""Embeddings, trial protocols, and the scoring primitives shared by every stage.

File formats are plain UTF-8 text with LF line endings:
  embeddings:  ID<TAB>v1 v2 ... vD     (one vector per line, '#' comments allowed)
  protocols:   ENROLL_ID<TAB>TEST_ID<TAB>LABEL   with LABEL in {target, nontarget, spoof}
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np


class DataError(Exception):
    """Malformed or inconsistent input: bad file line, duplicate or missing id, empty protocol."""


class NumericError(Exception):
    """Numeric failure: zero-norm vectors, non-finite scores, losses or gradients."""


class TrialLabel(Enum):
    TARGET = "target"
    NONTARGET = "nontarget"
    SPOOF = "spoof"

    @property
    def z(self) -> int:
        # class index for the one-class loss: 0 = genuine target, 1 = everything else
        return 0 if self is TrialLabel.TARGET else 1

    @classmethod
    def parse(cls, text: str) -> "TrialLabel":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise DataError(
                f"unknown trial label {text!r} (expected target, nontarget or spoof)"
            ) from None

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Trial:
    enroll_id: str
    test_id: str
    label: TrialLabel


@dataclass(frozen=True)
class ScoreRecord:
    """One scored trial: the SV cosine, the spoofing score, and their fusion."""

    trial: Trial
    s_sv: float
    s_spf: float
    s_sasv: float


@dataclass
class Protocol:
    trials: list[Trial]
    name: str = ""

    def __len__(self) -> int:
        return len(self.trials)

    def counts(self) -> dict[TrialLabel, int]:
        out = {label: 0 for label in TrialLabel}
        for t in self.trials:
            out[t.label] += 1
        return out


# ids that an embedding file cannot hold: empty, or holding a field or line
# break or a lone surrogate (not UTF-8), or a comment marker after leading
# whitespace. Searched over many ids at once: the characters in the ids
# joined, the comment marker at the start of each line of the ids joined by LF.
_ID_BREAK = re.compile(r"[\t\n\r\ud800-\udfff]")
_ID_COMMENT = re.compile(r"^\s*#", re.MULTILINE)


def _unsavable_ids(ids: list[str]) -> bool:
    """Whether some id breaks the rule above: no miss, and no false alarm."""
    return ("" in ids or _ID_BREAK.search("".join(ids)) is not None
            or _ID_COMMENT.search("\n".join(ids)) is not None)


class EmbeddingStore:
    """One subsystem's embeddings ('sv' or 'cm'): a dense [N, D] float64 matrix
    plus an id -> row dict, rows in insertion order.

    `matrix` and every vector handed out are read-only views; rows are only
    ever appended. An id must be one `save_embeddings` can write back.
    """

    def __init__(self, kind: str):
        if kind not in ("sv", "cm"):
            raise DataError(f"embedding store kind must be 'sv' or 'cm', got {kind!r}")
        self.kind = kind
        self.dimension: int | None = None
        self.index: dict[str, int] = {}
        self._data = np.empty((0, 0))

    def add(self, utt_id: str, values) -> None:
        self._append([utt_id], np.asarray(values, dtype=np.float64)[None])

    def add_rows(self, ids, rows) -> None:
        """Append one row per id: `rows` is [len(ids), D]. It fails where adding
        the rows one by one with `add` would first fail, with that message, and
        then adds nothing. An empty store takes over a C-contiguous float64
        array that owns its memory, read-only from then on, instead of copying it."""
        ids = list(ids)
        if not ids:
            raise DataError(f"no embedding ids given to the {self.kind} store")
        self._append(ids, rows)

    def _append(self, ids: list[str], rows) -> None:
        n_good, id_fault = len(ids), None  # the ids before the first bad one, its fault
        fresh = set(ids)
        if (len(fresh) < len(ids) or not self.index.keys().isdisjoint(fresh)
                or _unsavable_ids(ids)):
            seen: set[str] = set()
            for n_good, utt_id in enumerate(ids):
                if utt_id in self.index or utt_id in seen:
                    id_fault = f"duplicate embedding id {utt_id!r} in {self.kind} store"
                    break
                if _unsavable_ids([utt_id]):
                    id_fault = (f"embedding id {utt_id!r} is empty, holds a tab, line "
                                "break or surrogate, or starts with '#'")
                    break
                seen.add(utt_id)
        if n_good == 0:
            raise DataError(id_fault)
        mat = np.asarray(rows, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] == 0:
            raise DataError(f"embedding {ids[0]!r} must be a non-empty 1-D vector")
        if len(mat) != len(ids):
            raise DataError(f"{len(mat)} embedding rows for {len(ids)} ids")
        n_finite = (len(ids) if np.isfinite(mat).all()
                    else int(np.argmin(np.isfinite(mat).all(axis=1))))
        if n_finite > 0 and self.dimension not in (None, mat.shape[1]):
            raise DataError(
                f"embedding {ids[0]!r} has dimension {mat.shape[1]}, "
                f"store expects {self.dimension}"
            )
        if n_finite < n_good:
            raise DataError(f"embedding {ids[n_finite]!r} contains a non-finite value")
        if id_fault is not None:
            raise DataError(id_fault)
        self.dimension = mat.shape[1]
        row, end = len(self.index), len(self.index) + len(mat)
        if row == 0 and mat.flags.owndata and mat.flags.c_contiguous:
            mat.flags.writeable = False
            self._data = mat
        else:
            if end > len(self._data):  # grow geometrically: `add` stays amortized O(D)
                grown = np.empty((max(end, 2 * row), self.dimension))
                if row:
                    grown[:row] = self._data[:row]
                self._data = grown
            self._data[row:end] = mat
        self.index.update(zip(ids, range(row, end)))

    @property
    def matrix(self) -> np.ndarray:
        """The [N, D] embeddings, row i belonging to the i-th id added."""
        view = self._data[:len(self.index)]
        view.setflags(write=False)
        return view

    def vector(self, utt_id: str) -> np.ndarray:
        try:
            return self.matrix[self.index[utt_id]]
        except KeyError:
            raise DataError(f"id {utt_id!r} not found in {self.kind} embedding store") from None

    def __contains__(self, utt_id: str) -> bool:
        return utt_id in self.index

    def __len__(self) -> int:
        return len(self.index)

    def items(self):
        """(id, vector) pairs in insertion order, which is row order."""
        return zip(self.index, self.matrix)


class TrialRows(NamedTuple):
    """A protocol resolved to store rows: the enrollment and test ids in the
    SV store, the test id in the CM store (None when no CM store was given)."""

    enroll: np.ndarray
    test: np.ndarray
    test_cm: np.ndarray | None


def _pow2_scaled_rows(rows: np.ndarray) -> np.ndarray:
    """Each row times the power of two that brings its max-abs into [0.5, 1),
    so its sum of squares can neither overflow nor underflow. The scaling is
    exact, so a cosine computed from the result keeps the plain formula's bits
    wherever that formula was in range. A zero or non-finite row is left as is."""
    _, exponent = np.frexp(np.abs(rows).max(axis=1, keepdims=True, initial=0.0))
    return np.ldexp(rows, -exponent)


def length_normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Scale each row of an [N, D] array to unit Euclidean norm: the rows
    scaled as by `_pow2_scaled_rows`, then divided by the square root of each
    row's `x @ x` (`np.vecdot` runs the same BLAS dot per row, so a row gets
    the bits `length_normalize` gives it alone). A zero-norm or non-finite row
    is an error, not an epsilon."""
    scaled = _pow2_scaled_rows(np.asarray(rows, dtype=np.float64))
    norms = np.sqrt(np.vecdot(scaled, scaled))
    if not np.all((norms > 0.0) & (norms < np.inf)):
        raise NumericError("cannot length-normalize a zero-norm or non-finite vector")
    return scaled / norms[:, None]


def length_normalize(values: np.ndarray) -> np.ndarray:
    """Scale a vector to unit Euclidean norm. Zero-norm input is an error, not an epsilon.
    An array of more dimensions is scaled as one vector, to unit Frobenius norm."""
    vec = np.asarray(values, dtype=np.float64)
    return length_normalize_rows(vec.reshape(1, -1)).reshape(vec.shape)


# rows per block of `cosine_rows`: the scaled copies of a block are all it
# allocates beyond its result, so a long protocol costs no more memory than
# the plain formula's one product did
_COSINE_BLOCK = 4096


def cosine_rows(a, b) -> np.ndarray:
    """Row-wise cosine similarity of two [N, D] arrays, clamped to [-1, 1].
    A row's value depends on that row alone. Zero-norm or non-finite rows are
    a NumericError. Each row is first scaled by a power of two, so finite
    entries of any size give the right cosine."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 2:
        raise ValueError(f"cosine_rows needs two [N, D] arrays of one shape, got "
                         f"{av.shape} and {bv.shape}")
    cos = np.empty(len(av))
    for lo in range(0, len(av), _COSINE_BLOCK):
        block = slice(lo, lo + _COSINE_BLOCK)
        ab, bb = _pow2_scaled_rows(av[block]), _pow2_scaled_rows(bv[block])
        norms = np.sqrt((ab * ab).sum(axis=1)) * np.sqrt((bb * bb).sum(axis=1))
        if not np.all((norms > 0.0) & (norms < np.inf)):
            raise NumericError("cosine of a zero-norm or non-finite vector is undefined")
        cos[block] = (ab * bb).sum(axis=1) / norms
    return np.clip(cos, -1.0, 1.0, out=cos)


def cosine(a, b) -> float:
    """Cosine similarity of two vectors: the one-row case of `cosine_rows`."""
    return float(cosine_rows(np.atleast_2d(a), np.atleast_2d(b))[0])


def _data_lines(path: str):
    # yields (lineno, stripped line) skipping comments and blank lines
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n").rstrip("\r")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                yield lineno, line
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None


def load_embeddings(path: str, kind: str, normalize: bool = False) -> EmbeddingStore:
    """Parse an embedding file into a store.

    Each data line is ID<TAB>values where the values are space-separated
    decimal or scientific floats. Errors carry the offending line number.
    """
    store = EmbeddingStore(kind)
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(
                f"{path}:{lineno}: malformed embedding line, expected ID<TAB>values"
            )
        utt_id, payload = parts
        if not utt_id:
            raise DataError(f"{path}:{lineno}: empty embedding id")
        fields = payload.split()
        if not fields:
            raise DataError(f"{path}:{lineno}: embedding has no values")
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad float in embedding: {exc}") from None
        if not all(math.isfinite(v) for v in values):
            raise DataError(f"{path}:{lineno}: non-finite embedding value")
        vec = np.asarray(values, dtype=np.float64)
        if normalize:
            vec = length_normalize(vec)
        try:
            store.add(utt_id, vec)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    if len(store) == 0:
        raise DataError(f"{path}: no embeddings found")
    return store


def save_embeddings(store: EmbeddingStore, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for utt_id, vec in store.items():
            fh.write(f"{utt_id}\t{' '.join(map(repr, vec.tolist()))}\n")


def load_protocol(path: str, name: str = "") -> Protocol:
    trials = []
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(
                f"{path}:{lineno}: malformed trial line, expected "
                "ENROLL_ID<TAB>TEST_ID<TAB>LABEL"
            )
        enroll_id, test_id, label_text = parts
        if not enroll_id or not test_id:
            raise DataError(f"{path}:{lineno}: empty trial id")
        try:
            label = TrialLabel.parse(label_text)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        trials.append(Trial(enroll_id, test_id, label))
    if not trials:
        raise DataError(f"{path}: empty protocol")
    return Protocol(trials, name=name or path)


def save_protocol(protocol: Protocol, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in protocol.trials:
            fh.write(f"{t.enroll_id}\t{t.test_id}\t{t.label}\n")


def check_protocol_ids(protocol: Protocol, sv_store: EmbeddingStore,
                       cm_store: EmbeddingStore | None) -> TrialRows:
    """Resolve every trial to store rows: enroll in the SV store, test in the
    SV and CM stores. The first id that does not resolve is a DataError."""
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


def sv_scores(rows: TrialRows, sv_store: EmbeddingStore) -> np.ndarray:
    """The frozen SV cosine of each resolved trial."""
    return cosine_rows(sv_store.matrix[rows.enroll], sv_store.matrix[rows.test])
