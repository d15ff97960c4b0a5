"""Named-tensor weights file: magic "MFVCW", version byte, tensor count,
then per tensor a UTF-8 name, four little-endian u32 extents, and a
little-endian float32 payload."""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

MAGIC = b"MFVCW"
VERSION = 1


class WeightsFormatError(ValueError):
    """Raised when a weights file does not match the expected layout."""


def serialize_named_tensors(named: dict[str, np.ndarray]) -> bytes:
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out += struct.pack("<I", len(named))
    for name, arr in named.items():
        arr = np.asarray(arr, dtype=np.float32)
        if arr.ndim != 4:
            raise WeightsFormatError(f"tensor '{name}' must be 4-D, got shape {arr.shape}")
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<4I", *arr.shape)
        out += arr.astype("<f4").tobytes(order="C")
    return bytes(out)


def deserialize_named_tensors(data: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`serialize_named_tensors`; any malformed input
    raises :class:`WeightsFormatError`."""
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if n > len(data) - pos:
            raise WeightsFormatError(f"weights file truncated in {what} at byte {pos}")
        pos += n
        return data[pos - n : pos]

    if take(len(MAGIC) + 1, "the header")[: len(MAGIC)] != MAGIC:
        raise WeightsFormatError("not a weights file (bad magic)")
    if data[len(MAGIC)] != VERSION:
        raise WeightsFormatError(f"unsupported weights version {data[len(MAGIC)]}")
    (count,) = struct.unpack("<I", take(4, "the tensor count"))
    named: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"tensor {i}"))
        try:
            name = take(name_len, f"tensor {i}").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightsFormatError(f"tensor {i} has a name that is not UTF-8") from exc
        shape = struct.unpack("<4I", take(16, f"tensor '{name}'"))
        payload = take(4 * math.prod(shape), f"tensor '{name}'")
        try:
            named[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float32)
        except ValueError as exc:  # no payload, but a zero extent beside extents too large for any array
            raise WeightsFormatError(f"tensor '{name}' has extents {shape} too large for an array") from exc
    if pos != len(data):
        raise WeightsFormatError(f"{len(data) - pos} trailing bytes after the last tensor")
    return named


def save_named_tensors(path, named: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_named_tensors(named))


def load_named_tensors(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        return deserialize_named_tensors(fh.read())


def weights_digest(*serialized: bytes) -> bytes:
    """8-byte digest identifying one or more serialized weight blobs."""
    h = hashlib.sha256()
    for blob in serialized:
        h.update(blob)
    return h.digest()[:8]
