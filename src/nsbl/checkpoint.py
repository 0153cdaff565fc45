"""Binary checkpoint format for spectral velocity fields.

Layout: magic ``NSBL1``, one endianness tag byte, then a fixed header
(dimension, points per axis, box length, time, component count) followed by
the raw little-endian complex128 coefficient array in C order.  Files are
referenced by their sha256 content hash.  Every malformed file raises
``CorruptCheckpoint``.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .spectral import ShapeMismatch, SpectralVelocity, TorusGrid

__all__ = ["CorruptCheckpoint", "write_checkpoint", "read_checkpoint"]

MAGIC = b"NSBL1"
ENDIAN_TAG = b"<"
_HEADER = struct.Struct("<IIddI")


class CorruptCheckpoint(ValueError):
    pass


def write_checkpoint(path, v: SpectralVelocity) -> str:
    """Write the field and return the file's sha256 hex digest."""
    path = Path(path)
    header = MAGIC + ENDIAN_TAG + _HEADER.pack(
        v.grid.dim, v.grid.npts, v.grid.length, v.t, v.coeff.shape[0]
    )
    payload = np.ascontiguousarray(v.coeff).astype("<c16").tobytes()
    path.write_bytes(header + payload)
    return hashlib.sha256(header + payload).hexdigest()


def read_checkpoint(path, expect_sha: str | None = None) -> SpectralVelocity:
    path = Path(path)
    blob = path.read_bytes()
    if expect_sha is not None:
        actual = hashlib.sha256(blob).hexdigest()
        if actual != expect_sha:
            raise CorruptCheckpoint(f"{path}: sha256 {actual} != expected {expect_sha}")
    if blob[: len(MAGIC)] != MAGIC:
        raise CorruptCheckpoint(f"{path}: bad magic {blob[:5]!r}")
    off = len(MAGIC)
    if blob[off : off + 1] != ENDIAN_TAG:
        raise CorruptCheckpoint(f"{path}: unsupported endianness tag")
    off += 1
    if len(blob) < off + _HEADER.size:
        raise CorruptCheckpoint(f"{path}: header truncated at {len(blob)} bytes")
    dim, npts, length, t, ncomp = _HEADER.unpack_from(blob, off)
    off += _HEADER.size
    expected = ncomp * npts**3 * 16
    if len(blob) - off != expected:
        raise CorruptCheckpoint(f"{path}: payload is {len(blob) - off} bytes, expected {expected}")
    coeff = (
        np.frombuffer(blob, dtype="<c16", offset=off)
        .reshape(ncomp, npts, npts, npts)
        .astype(np.complex128)
    )
    try:
        return SpectralVelocity(coeff, TorusGrid(npts, length, dim), t)
    except ShapeMismatch as exc:
        raise CorruptCheckpoint(f"{path}: malformed header: {exc}") from exc

