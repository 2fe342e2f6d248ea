"""Versioned binary checkpoint container.

Layout, all integers little-endian:

    magic    4 bytes  b"SASV"
    version  u32
    kind     u32      1 = integration model, 2 = logistic fusion, 3 = cascade
    meta_len u32      followed by canonical JSON (sorted keys, compact)
    n_arrays u32
    per array: name_len u16, name utf-8, ndim u8, shape u32 * ndim,
               float64 data little-endian, C order
    crc      u32      CRC-32 of every preceding byte

Loading re-verifies the magic, version, exact file length and checksum, so
any single corrupted byte is rejected. Saving a loaded checkpoint reproduces
the original bytes exactly.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .core import DataError

MAGIC = b"SASV"
FORMAT_VERSION = 1
_KIND_TO_TAG = {"integration": 1, "logreg": 2, "cascade": 3}
_TAG_TO_KIND = {v: k for k, v in _KIND_TO_TAG.items()}


@dataclass
class Checkpoint:
    kind: str
    meta: dict
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


def checkpoint_to_bytes(ckpt: Checkpoint) -> bytes:
    if ckpt.kind not in _KIND_TO_TAG:
        raise DataError(f"unknown checkpoint kind {ckpt.kind!r}")
    meta_blob = json.dumps(ckpt.meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [
        MAGIC,
        struct.pack("<II", FORMAT_VERSION, _KIND_TO_TAG[ckpt.kind]),
        struct.pack("<I", len(meta_blob)),
        meta_blob,
        struct.pack("<I", len(ckpt.arrays)),
    ]
    for name, arr in ckpt.arrays.items():
        # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
        data = np.asarray(arr, dtype="<f8", order="C")
        name_blob = name.encode("utf-8")
        parts.append(struct.pack("<H", len(name_blob)))
        parts.append(name_blob)
        parts.append(struct.pack("<B", data.ndim))
        parts.append(struct.pack(f"<{data.ndim}I", *data.shape))
        parts.append(data.tobytes(order="C"))
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DataError("truncated checkpoint")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def checkpoint_from_bytes(data: bytes) -> Checkpoint:
    if len(data) < len(MAGIC) + 4 + 4 + 4 + 4 + 4:
        raise DataError("truncated checkpoint")
    body, crc_blob = data[:-4], data[-4:]
    (stored_crc,) = struct.unpack("<I", crc_blob)
    if zlib.crc32(body) != stored_crc:
        raise DataError("checkpoint checksum mismatch, file is corrupt")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise DataError("not a checkpoint file (bad magic)")
    version, tag = r.unpack("<II")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint format version {version}")
    if tag not in _TAG_TO_KIND:
        raise DataError(f"unknown checkpoint kind tag {tag}")
    (meta_len,) = r.unpack("<I")
    try:
        meta = json.loads(r.take(meta_len).decode("utf-8"))
    # ValueError: bad UTF-8 or JSON, or an integer past int()'s digit limit
    except (ValueError, RecursionError) as exc:
        raise DataError(f"bad checkpoint metadata: {exc}") from None
    (n_arrays,) = r.unpack("<I")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError("checkpoint array name is not UTF-8") from None
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I") if ndim else ()
        count = math.prod(shape)  # exact: an int64 product could wrap
        raw = r.take(8 * count)
        arr = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if name in arrays:
            raise DataError(f"duplicate array {name!r} in checkpoint")
        arrays[name] = arr
    if r.pos != len(body):
        raise DataError("trailing bytes after checkpoint payload")
    return Checkpoint(kind=_TAG_TO_KIND[tag], meta=meta, arrays=arrays)


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    blob = checkpoint_to_bytes(ckpt)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return checkpoint_from_bytes(data)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
