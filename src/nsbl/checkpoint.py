"""Binary checkpoint format for spectral velocity fields.

Layout (NSBL2): magic ``NSBL2``, one endianness tag byte, then a fixed
header (dimension, points per axis, box length, time, component count, the
2/3-rule band's cut ``spectral.band_cut(n)``) and a CRC-32 of every other
byte of the file, followed by the band coefficients (ncomp, 2*cut+1,
2*cut+1, cut+1) of ``spectral.SpectralBand`` as little-endian complex128 in
C order.  ``write_band`` writes a velocity's band; ``read_band`` reads it
into a known grid, and ``read_checkpoint`` into the grid its header names,
as a ``SpectralVelocity``.  Files are referenced by their sha256 content
hash; the CRC catches damage without it.  Every malformed file raises
``CorruptCheckpoint``; NSBL1 files (full layout, no CRC) are no longer
read.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from pathlib import Path

import numpy as np

from .spectral import ShapeMismatch, SpectralVelocity, TorusGrid, band_cut

__all__ = ["CorruptCheckpoint", "write_band", "read_band", "read_checkpoint"]

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


def write_band(path, grid: TorusGrid, coeff: np.ndarray, t: float) -> str:
    """Write the band coefficients ``coeff`` of ``grid.band``, at time t, as
    they are; return the file's sha256 hex digest.  Raises ShapeMismatch,
    and writes nothing, unless coeff is a velocity's band,
    (3, *grid.band.shape)."""
    shape = (3,) + grid.band.shape
    if coeff.shape != shape:
        raise ShapeMismatch(f"{path}: coefficients have shape {coeff.shape}, "
                            f"not the 2/3-rule band's {shape}")
    header = MAGIC + ENDIAN_TAG + _HEADER.pack(
        grid.dim, grid.npts, grid.length, t, coeff.shape[0], grid.band.cut
    )
    # a copy only if coeff is not little-endian C order already
    payload = memoryview(np.ascontiguousarray(coeff, dtype="<c16")).cast("B")
    crc = _CRC.pack(zlib.crc32(payload, zlib.crc32(header)))
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for piece in (header, crc, payload):
            f.write(piece)
            digest.update(piece)
    return digest.hexdigest()


def _header(path, blob: bytes, expect_sha: str | None) -> tuple:
    """(dim, npts, length, t, ncomp, cut) of an NSBL2 file's bytes, once its
    hash, magic, endianness tag and CRC-32 are known to be right."""
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
    return _HEADER.unpack_from(blob, _HEADER_AT)


def _payload(path, blob: bytes, npts: int, ncomp: int, cut: int) -> np.ndarray:
    """The band coefficients of a file whose header passed ``_header``, as
    a read-only view of its bytes."""
    if cut != band_cut(npts):
        raise CorruptCheckpoint(f"{path}: band cut {cut} is not the 2/3-rule cut {band_cut(npts)}")
    if ncomp != 3:
        raise CorruptCheckpoint(f"{path}: malformed header: {ncomp} velocity components, not 3")
    # the payload size is checked before any band operator is built
    rows = 2 * cut + 1
    expected = ncomp * rows**2 * (cut + 1) * 16
    if len(blob) - _PAYLOAD_AT != expected:
        raise CorruptCheckpoint(
            f"{path}: payload is {len(blob) - _PAYLOAD_AT} bytes, expected {expected}"
        )
    return np.frombuffer(blob, dtype="<c16", offset=_PAYLOAD_AT).reshape(ncomp, rows, rows,
                                                                         cut + 1)


def _read(path, expect_sha: str | None, grid: TorusGrid | None = None) -> tuple:
    """(grid, t, band coefficients as a writable C-order array) of an
    NSBL2 file; the grid its header names unless ``grid`` is given, which
    the header must then match."""
    blob = Path(path).read_bytes()
    dim, npts, length, t, ncomp, cut = _header(path, blob, expect_sha)
    if dim != TorusGrid.dim:
        raise CorruptCheckpoint(f"{path}: malformed header: a {dim}-dimensional grid, "
                                f"not {TorusGrid.dim}")
    if grid is None:
        try:
            grid = TorusGrid(npts, length)
        except ShapeMismatch as exc:
            raise CorruptCheckpoint(f"{path}: malformed header: {exc}") from exc
    elif (npts, length) != (grid.npts, grid.length):
        raise CorruptCheckpoint(f"{path}: grid {npts}^3 of side {length!r} does not match "
                                f"the run's {grid.npts}^3 of side {grid.length!r}")
    return grid, t, _payload(path, blob, npts, ncomp, cut).copy()


def read_band(path, grid: TorusGrid, expect_sha: str | None = None) -> tuple[float, np.ndarray]:
    """(t, band coefficients) of an NSBL2 file written on ``grid``; the
    coefficients are a writable C-order array, as a run's states are."""
    return _read(path, expect_sha, grid)[1:]


def read_checkpoint(path, expect_sha: str | None = None) -> SpectralVelocity:
    """The field of an NSBL2 file, on the grid its header names."""
    grid, t, coeff = _read(path, expect_sha)
    return SpectralVelocity(coeff, grid, t)
