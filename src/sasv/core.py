"""Embeddings, trial protocols, and the scoring primitives shared by every stage.

File formats are plain UTF-8 text with LF line endings:
  embeddings:  ID<TAB>v1 v2 ... vD     (one vector per line, '#' comments allowed)
  protocols:   ENROLL_ID<TAB>TEST_ID<TAB>LABEL   with LABEL in {target, nontarget, spoof}
"""

from __future__ import annotations

import math
import operator
import re
from array import array
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np


class DataError(Exception):
    """Malformed or inconsistent input: bad file line, duplicate or missing id, empty
    protocol. `row` names the faulty row of an array input, or is None."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class NumericError(Exception):
    """Numeric failure: zero-norm vectors, non-finite scores, losses or gradients."""


def is_integer(value) -> bool:
    """A Python or NumPy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int_fields(config) -> None:
    """DataError, naming the field, for an int field of the dataclass `config`
    that holds anything but an integer: a float (NaN too) or a bool."""
    for field in fields(config):
        value = getattr(config, field.name)
        if field.type in ("int", int) and not is_integer(value):
            raise DataError(f"{field.name} must be an integer, got {value!r}")


class TrialLabel(Enum):
    TARGET = "target"
    NONTARGET = "nontarget"
    SPOOF = "spoof"

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


def _two_class_mask(mask: np.ndarray, role: str) -> np.ndarray:
    if mask.all() or not mask.any():
        raise DataError(f"{role} needs at least one target and one nontarget/spoof trial")
    return mask


def target_mask(labels, role: str) -> np.ndarray:
    """Which of the labels are TARGET; `role` names them in the DataError
    raised unless they hold a target and a nontarget or spoof."""
    return _two_class_mask(np.fromiter(map(operator.is_, labels, repeat(TrialLabel.TARGET)),
                                       bool, len(labels)), role)


class Trial(NamedTuple):
    """One protocol line: the enrollment id, the test id and the label."""

    enroll_id: str
    test_id: str
    label: TrialLabel


class ScoreRecord(NamedTuple):
    """One scored trial: the SV cosine, the spoofing score, and their fusion."""

    trial: Trial
    s_sv: float
    s_spf: float
    s_sasv: float


class IdColumn(NamedTuple):
    """One id column of a protocol, factorized: the distinct ids in order of
    first appearance, and each trial's int32 position among them."""

    ids: list[str]
    at: np.ndarray

    @classmethod
    def of(cls, ids: list[str]) -> "IdColumn":
        distinct = list(dict.fromkeys(ids))
        index = dict(zip(distinct, range(len(distinct))))
        return cls(distinct, np.fromiter(map(index.__getitem__, ids), np.int32, len(ids)))


@dataclass
class Protocol:
    """Trials in file order. Construction derives, once, what the stages read
    per trial: `codes`, each label's int8 position in TrialLabel (0 target,
    1 nontarget, 2 spoof), and the `enroll` and `test` id columns factorized."""

    trials: list[Trial]
    name: str = ""
    codes: np.ndarray = field(init=False, compare=False, repr=False)
    enroll: IdColumn = field(init=False, compare=False, repr=False)
    test: IdColumn = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        enroll_ids, test_ids, labels = (list(map(operator.itemgetter(i), self.trials))
                                        for i in range(3))
        n = len(labels)
        self.codes = np.full(n, 2, np.int8)  # spoof, unless one of these
        for code, label in enumerate((TrialLabel.TARGET, TrialLabel.NONTARGET)):
            self.codes[np.fromiter(map(operator.is_, labels, repeat(label)), bool, n)] = code
        self.enroll, self.test = IdColumn.of(enroll_ids), IdColumn.of(test_ids)

    def __len__(self) -> int:
        return len(self.trials)

    def counts(self) -> dict[TrialLabel, int]:
        counted = np.bincount(self.codes, minlength=len(TrialLabel)).tolist()
        return dict(zip(TrialLabel, counted))

    def target_mask(self, role: str) -> np.ndarray:
        """`target_mask` of the trials' labels, read from the codes."""
        return _two_class_mask(self.codes == 0, role)


SCORE_FIELDS = ("s_sv", "s_spf", "s_sasv")


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """The scores of a protocol's trials, in protocol order: one read-only
    float64 column per score field, each a copy of the column it was given.
    Iterating it yields one ScoreRecord per trial, each made in C."""

    protocol: Protocol
    s_sv: np.ndarray
    s_spf: np.ndarray
    s_sasv: np.ndarray

    def __post_init__(self):
        for name in SCORE_FIELDS:
            column = np.array(getattr(self, name), dtype=np.float64)
            if column.shape != (len(self.protocol),):
                raise DataError(f"{name} has shape {column.shape}, the protocol "
                                f"has {len(self.protocol)} trials")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.protocol)

    def __iter__(self):
        return map(partial(tuple.__new__, ScoreRecord),
                   zip(self.protocol.trials, self.s_sv.tolist(), self.s_spf.tolist(),
                       self.s_sasv.tolist()))


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


def _check_kind(kind: str) -> None:
    if kind not in ("sv", "cm"):
        raise DataError(f"embedding store kind must be 'sv' or 'cm', got {kind!r}")


class EmbeddingStore:
    """One subsystem's embeddings ('sv' or 'cm'), made once from all of its
    rows: a read-only [N, D] float64 `matrix`, row i that of the i-th id, and
    an `index` from id to row. Each id must be new and one `save_embeddings`
    can write back, then each value finite; the first faulty row is a
    DataError whose `row` names it. A C-contiguous float64 `rows` that owns
    its memory or is read-only already becomes `matrix` without a copy."""

    def __init__(self, kind: str, ids, rows):
        _check_kind(kind)
        ids = list(ids)
        if not ids:
            raise DataError(f"no embedding ids given to the {kind} store")
        matrix = np.asarray(rows, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] == 0:
            raise DataError(f"embedding {ids[0]!r} must be a non-empty 1-D vector")
        if len(matrix) != len(ids):
            raise DataError(f"{len(matrix)} embedding rows for {len(ids)} ids")
        index = dict(zip(ids, range(len(ids))))
        if len(index) < len(ids) or _unsavable_ids(ids) or not np.isfinite(matrix).all():
            raise next(_row_faults(kind, ids, matrix))
        if not (matrix.flags.c_contiguous
                and (matrix.flags.owndata or not matrix.flags.writeable)):
            matrix = matrix.copy()
        matrix.flags.writeable = False
        self.kind, self.index, self.matrix = kind, index, matrix
        self.dimension = matrix.shape[1]

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
        """(id, vector) pairs in row order."""
        return zip(self.index, self.matrix)


def _row_faults(kind: str, ids: list[str], matrix: np.ndarray):
    """Each faulty row's error: a repeated or unsavable id, else a non-finite value."""
    finite = np.isfinite(matrix).all(axis=1)
    seen: set[str] = set()
    for row, utt_id in enumerate(ids):
        if utt_id in seen:
            yield DataError(f"duplicate embedding id {utt_id!r} in {kind} store", row)
        elif _unsavable_ids([utt_id]):
            yield DataError(f"embedding id {utt_id!r} is empty, holds a tab, line "
                            "break or surrogate, or starts with '#'", row)
        elif not finite[row]:
            yield DataError(f"embedding {utt_id!r} contains a non-finite value", row)
        seen.add(utt_id)


class TrialRows(NamedTuple):
    """A protocol resolved to store rows: the enrollment and test ids in the
    SV store, the test id in the CM store (None when no CM store was given)."""

    enroll: np.ndarray
    test: np.ndarray
    test_cm: np.ndarray | None


def _pow2_exponents(rows: np.ndarray) -> np.ndarray:
    """The [N, 1] exponent of each row's max-abs: times 2**-exponent, that
    max-abs lies in [0.5, 1). A zero or non-finite row's exponent is 0."""
    return np.frexp(np.abs(rows).max(axis=1, keepdims=True, initial=0.0))[1]


def _pow2_scaled_rows(rows: np.ndarray) -> np.ndarray:
    """Each row times the power of two that brings its max-abs into [0.5, 1),
    so its sum of squares can neither overflow nor underflow. The scaling is
    exact, so a cosine computed from the result keeps the plain formula's bits
    wherever that formula was in range. A zero or non-finite row is left as is."""
    return np.ldexp(rows, -_pow2_exponents(rows))


def length_normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Scale each row of an [N, D] array to unit Euclidean norm: the rows
    scaled as by `_pow2_scaled_rows`, then divided by the square root of each
    row's `x @ x` (`np.vecdot` runs the same BLAS dot per row, so a row gets
    the bits `length_normalize` gives it alone). A zero-norm or non-finite row
    is an error, not an epsilon."""
    scaled = _pow2_scaled_rows(np.asarray(rows, dtype=np.float64))
    with np.errstate(over="ignore"):  # only a non-finite row can overflow
        norms = np.sqrt(np.vecdot(scaled, scaled))
    if not np.all((norms > 0.0) & (norms < np.inf)):
        raise NumericError("cannot length-normalize a zero-norm or non-finite vector")
    return scaled / norms[:, None]


def length_normalize(values: np.ndarray) -> np.ndarray:
    """Scale a vector to unit Euclidean norm. Zero-norm input is an error, not an epsilon.
    An array of more dimensions is scaled as one vector, to unit Frobenius norm."""
    vec = np.asarray(values, dtype=np.float64)
    return length_normalize_rows(vec.reshape(1, -1)).reshape(vec.shape)


# values per block of `cosine_rows` and `sv_scores`, each block holding
# max(1, _COSINE_BLOCK_VALUES // D) row pairs: the rows of one block, gathered
# and scaled, are all they allocate beyond the result, so a long or wide
# protocol costs no more memory than a few blocks
_COSINE_BLOCK_VALUES = 65_536


def _blocked_cosines(n: int, width: int, block_rows) -> np.ndarray:
    """The clamped cosines of n row pairs of `width` values, a block at a time:
    `block_rows` maps a slice of the pairs to their two [b, width] float64 arrays."""
    cos = np.empty(n)
    size = max(1, _COSINE_BLOCK_VALUES // max(width, 1))
    for lo in range(0, n, size):
        block = slice(lo, lo + size)
        ab, bb = map(_pow2_scaled_rows, block_rows(block))
        norms = np.sqrt((ab * ab).sum(axis=1)) * np.sqrt((bb * bb).sum(axis=1))
        if not np.all((norms > 0.0) & (norms < np.inf)):
            raise NumericError("cosine of a zero-norm or non-finite vector is undefined")
        cos[block] = (ab * bb).sum(axis=1) / norms
    return np.clip(cos, -1.0, 1.0, out=cos)


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
    return _blocked_cosines(len(av), av.shape[1], lambda block: (av[block], bv[block]))


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


_NORMALIZE_BLOCK = 1024  # rows per in-place normalization: its copies stay small


def load_embeddings(path: str, kind: str, normalize: bool = False) -> EmbeddingStore:
    """Parse an embedding file of ID<TAB>values lines, the values space-separated
    floats as many as on the first line, into a store built once from all of
    its rows. Each line is checked in full as it is read: syntax, a non-finite
    value, a zero norm under `normalize` (a NumericError), a repeated id, the
    width. An error names the first faulty line and its first fault, a width
    fault also the line the width came from; a bad kind is refused first."""
    _check_kind(kind)
    # No line is checked against the rest of the store's id rule: a parsed
    # line cannot hold a line break (text mode splits lines at CR and LF), a
    # tab (the split removes it) or a surrogate (UTF-8 is decoded strictly),
    # nor start with '#' after whitespace (`_data_lines` skips such lines),
    # and an empty id is a fault of its own.
    index, values, width, width_line = {}, array("d"), 0, 0
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            fault = "malformed embedding line, expected ID<TAB>values"
        elif not (utt_id := parts[0]):
            fault = "empty embedding id"
        elif not (fields := parts[1].split()):
            fault = "embedding has no values"
        else:
            try:
                row = list(map(float, fields))
            except ValueError as exc:
                fault = f"bad float in embedding: {exc}"
            else:
                if not all(map(math.isfinite, row)):
                    fault = f"embedding {utt_id!r} contains a non-finite value"
                elif normalize and not any(row):
                    raise NumericError(f"{path}:{lineno}: cannot length-normalize a "
                                       "zero-norm or non-finite vector")
                elif utt_id in index:
                    fault = f"duplicate embedding id {utt_id!r} in {kind} store"
                elif index and len(row) != width:
                    fault = (f"embedding {utt_id!r} has dimension {len(row)}, store "
                             f"expects {width} (the width of line {width_line})")
                else:
                    width, width_line = width or len(row), width_line or lineno
                    index[utt_id] = len(index)
                    values.fromlist(row)
                    continue
        raise DataError(f"{path}:{lineno}: {fault}")
    if not index:
        raise DataError(f"{path}: no embeddings found")
    rows = np.frombuffer(values).reshape(-1, width)
    for lo in range(0, len(rows) if normalize else 0, _NORMALIZE_BLOCK):
        block = rows[lo:lo + _NORMALIZE_BLOCK]
        block[:] = length_normalize_rows(block)
    rows.flags.writeable = False  # so the store takes the parsed values without a copy
    return EmbeddingStore(kind, index, rows)


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


def _resolve(store: EmbeddingStore, column: IdColumn) -> np.ndarray:
    """The store row of each trial's id, -1 where it has none: each distinct
    id is looked up once, in C, and the rows expanded by the trial index."""
    rows = np.fromiter(map(store.index.get, column.ids, repeat(-1)), np.intp, len(column.ids))
    return rows[column.at]


def check_protocol_ids(protocol: Protocol, sv_store: EmbeddingStore,
                       cm_store: EmbeddingStore | None) -> TrialRows:
    """Resolve every trial to store rows: enroll in the SV store, test in the
    SV and CM stores. The first id that does not resolve, in trial order and
    within a trial in that order, is a DataError."""
    enroll = _resolve(sv_store, protocol.enroll)
    test = _resolve(sv_store, protocol.test)
    test_cm = None
    missing = (enroll < 0) | (test < 0)
    if cm_store is not None:
        test_cm = _resolve(cm_store, protocol.test)
        missing |= test_cm < 0
    if missing.any():
        idx = int(np.argmax(missing))
        t = protocol.trials[idx]
        what, store = ((f"enroll id {t.enroll_id!r}", "sv") if enroll[idx] < 0
                       else (f"test id {t.test_id!r}", "sv" if test[idx] < 0 else "cm"))
        raise DataError(f"trial {idx + 1}: {what} missing from {store} store")
    return TrialRows(enroll, test, test_cm)


def sv_scores(rows: TrialRows, sv_store: EmbeddingStore) -> np.ndarray:
    """The frozen SV cosine of each resolved trial, as `cosine_rows` of the
    enrollment and test rows: each block's rows are gathered from the store
    as it is reached."""
    matrix, enroll, test = sv_store.matrix, rows.enroll, rows.test
    return _blocked_cosines(len(test), sv_store.dimension,
                            lambda block: (matrix[enroll[block]], matrix[test[block]]))
