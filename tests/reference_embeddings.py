"""The line-by-line embedding loader and the append-only store it filled,
kept as they were before the store was built once from all of its rows (less
the bulk `add_rows`): the reference that `EmbeddingStore(kind, ids, rows)`
and the bulk `load_embeddings` are checked against. Each row goes through
`add` on its own, so a fault is the first one in file and row order by
construction. One change since: the loader's width fault also names the line
the width came from, as the bulk loader's does.
"""

from __future__ import annotations

import math

import numpy as np

from sasv.core import DataError, _data_lines, _unsavable_ids, length_normalize


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
        self.width_origin = ""  # appended to a width fault: where the width came from
        self.index: dict[str, int] = {}
        self._data = np.empty((0, 0))

    def add(self, utt_id: str, values) -> None:
        self._append([utt_id], np.asarray(values, dtype=np.float64)[None])

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
                f"store expects {self.dimension}{self.width_origin}"
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
        store.width_origin = store.width_origin or f" (the width of line {lineno})"
    if len(store) == 0:
        raise DataError(f"{path}: no embeddings found")
    return store
