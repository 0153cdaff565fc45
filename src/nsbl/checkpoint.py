"""Binary checkpoint format for spectral velocity fields.

Layout (NSBL2): magic ``NSBL2``, one endianness tag byte, then a fixed
header (dimension, points per axis, box length, time, component count, the
2/3-rule band's cut ``n//3``) and a CRC-32 of every other byte of the file,
followed by the band coefficients (ncomp, 2*cut+1, 2*cut+1, cut+1) of
``spectral.SpectralBand`` as little-endian complex128 in C order.  Readers
get the full layout back.  Files are referenced by their sha256
content hash; the CRC catches damage without it.  Every malformed file
raises ``CorruptCheckpoint``; NSBL1 files (full layout, no CRC) are no
longer read.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from pathlib import Path

import numpy as np

from .spectral import ShapeMismatch, SpectralVelocity, TorusGrid

__all__ = ["CorruptCheckpoint", "write_checkpoint", "read_checkpoint"]

MAGIC = b"NSBL2"
ENDIAN_TAG = b"<"
_HEADER = struct.Struct("<IIddII")
_CRC = struct.Struct("<I")
_HEADER_AT = len(MAGIC) + len(ENDIAN_TAG)
# the CRC sits right after the header and covers every byte but its own
_CRC_AT = _HEADER_AT + _HEADER.size
_PAYLOAD_AT = _CRC_AT + _CRC.size


class CorruptCheckpoint(ValueError):
    pass


def write_checkpoint(path, v: SpectralVelocity) -> str:
    """Write the field's band and return the file's sha256 hex digest;
    raises ShapeMismatch if the field has modes outside the band, so no
    mode is dropped silently."""
    path = Path(path)
    band = v.grid.band
    coeff = band.compact(v.coeff)
    if not np.array_equal(band.expand(coeff), v.coeff):
        raise ShapeMismatch(f"{path}: field is not the real field of its band")
    header = MAGIC + ENDIAN_TAG + _HEADER.pack(
        v.grid.dim, v.grid.npts, v.grid.length, v.t, coeff.shape[0], band.cut
    )
    payload = coeff.astype("<c16").tobytes()
    blob = header + _CRC.pack(zlib.crc32(payload, zlib.crc32(header))) + payload
    path.write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()


def read_checkpoint(path, expect_sha: str | None = None) -> SpectralVelocity:
    """The field of an NSBL2 file, in the full layout."""
    path = Path(path)
    blob = path.read_bytes()
    if expect_sha is not None:
        actual = hashlib.sha256(blob).hexdigest()
        if actual != expect_sha:
            raise CorruptCheckpoint(f"{path}: sha256 {actual} != expected {expect_sha}")
    if blob[: len(MAGIC)] == b"NSBL1":
        raise CorruptCheckpoint(f"{path}: NSBL1 checkpoints are no longer read; "
                                "re-run `nsbl simulate` to write NSBL2")
    if blob[: len(MAGIC)] != MAGIC:
        raise CorruptCheckpoint(f"{path}: bad magic {blob[:5]!r}")
    if blob[len(MAGIC) : _HEADER_AT] != ENDIAN_TAG:
        raise CorruptCheckpoint(f"{path}: unsupported endianness tag")
    if len(blob) < _PAYLOAD_AT:
        raise CorruptCheckpoint(f"{path}: header truncated at {len(blob)} bytes")
    (crc,) = _CRC.unpack_from(blob, _CRC_AT)
    view = memoryview(blob)
    if crc != zlib.crc32(view[_PAYLOAD_AT:], zlib.crc32(view[:_CRC_AT])):
        raise CorruptCheckpoint(f"{path}: CRC-32 mismatch")
    dim, npts, length, t, ncomp, cut = _HEADER.unpack_from(blob, _HEADER_AT)
    try:
        grid = TorusGrid(npts, length, dim)
    except ShapeMismatch as exc:
        raise CorruptCheckpoint(f"{path}: malformed header: {exc}") from exc
    if cut != npts // 3:
        raise CorruptCheckpoint(f"{path}: band cut {cut} is not the 2/3-rule cut {npts // 3}")
    # the payload size is checked before the band's operators are built
    expected = ncomp * (2 * cut + 1) ** 2 * (cut + 1) * 16
    if len(blob) - _PAYLOAD_AT != expected:
        raise CorruptCheckpoint(
            f"{path}: payload is {len(blob) - _PAYLOAD_AT} bytes, expected {expected}"
        )
    band = grid.band
    coeff = np.frombuffer(blob, dtype="<c16", offset=_PAYLOAD_AT).reshape((ncomp,) + band.shape)
    try:
        return SpectralVelocity(band.expand(coeff), grid, t)
    except ShapeMismatch as exc:
        raise CorruptCheckpoint(f"{path}: malformed header: {exc}") from exc
