import hashlib
import struct
import zlib

import numpy as np
import pytest

from band_oracle import compact, expand
from nsbl.checkpoint import (
    CorruptCheckpoint,
    read_band,
    read_checkpoint,
    write_band,
)
from nsbl.spectral import ShapeMismatch, SpectralVelocity, TorusGrid
from nsbl.solver import make_initial

# magic, endianness tag, dim, npts, length, t, ncomp, cut, CRC-32
HEADER_BYTES = 5 + 1 + 4 + 4 + 8 + 8 + 4 + 4 + 4


@pytest.fixture
def field():
    return make_initial("random_spectrum", TorusGrid(16), seed=4, amplitude=1.0, kmax=4)


def write_velocity(path, v):
    """Write a velocity's band and time."""
    return write_band(path, v.grid, v.coeff, v.t)


def test_round_trip_bit_exact(tmp_path, field):
    path = tmp_path / "f.nsbl"
    field.t = 0.375
    sha = write_velocity(path, field)
    back = read_checkpoint(path, expect_sha=sha)
    assert back.t == field.t
    assert back.grid.npts == 16
    assert back.grid.length == field.grid.length
    assert np.array_equal(back.coeff, field.coeff)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


def test_hash_mismatch(tmp_path, field):
    path = tmp_path / "f.nsbl"
    write_velocity(path, field)
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path, expect_sha="0" * 64)


def test_corrupted_payload(tmp_path, field):
    path = tmp_path / "f.nsbl"
    write_velocity(path, field)
    blob = bytearray(path.read_bytes())
    blob = blob[:-7]
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_bad_magic(tmp_path, field):
    path = tmp_path / "f.nsbl"
    write_velocity(path, field)
    blob = bytearray(path.read_bytes())
    blob[:5] = b"WRONG"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_deterministic_bytes(tmp_path, field):
    p1, p2 = tmp_path / "a.nsbl", tmp_path / "b.nsbl"
    s1 = write_velocity(p1, field)
    s2 = write_velocity(p2, field)
    assert s1 == s2
    assert p1.read_bytes() == p2.read_bytes()


def band_field(n, seed=0):
    """Arbitrary band data of a grid, and a velocity holding it."""
    band = TorusGrid(n).band
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=(3,) + band.shape) + 1j * rng.normal(size=(3,) + band.shape)
    return coeff, SpectralVelocity(coeff, TorusGrid(n), 0.125)


def nsbl2_blob(npts, cut, payload):
    """An NSBL2 file of a 3-component field with a valid CRC-32."""
    head = b"NSBL2<" + struct.pack("<IIddII", 3, npts, 2 * np.pi, 0.0, 3, cut)
    return head + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))) + payload


@pytest.mark.parametrize("n", [16, 24])
def test_band_round_trip_bit_exact(tmp_path, n):
    coeff, v = band_field(n)
    path = tmp_path / "b.nsbl"
    sha = write_velocity(path, v)
    # the payload is the band itself, after the fixed header
    assert len(path.read_bytes()) == HEADER_BYTES + coeff.nbytes
    back = read_checkpoint(path, expect_sha=sha)
    assert back.coeff.tobytes() == coeff.tobytes()
    assert back.t == 0.125


@pytest.mark.parametrize("n", [16, 24])
def test_band_io_is_the_full_layout_io(tmp_path, n):
    # the band back as compact gives it from the full layout, as a
    # writable C-order array, from either reader
    coeff, v = band_field(n)
    sha = write_band(tmp_path / "band.nsbl", v.grid, coeff, v.t)
    t, back = read_band(tmp_path / "band.nsbl", TorusGrid(n), expect_sha=sha)
    want = compact(v.grid.band, expand(v.grid.band, coeff))
    assert t == 0.125
    assert np.array_equal(back, coeff) and np.array_equal(back, want)
    assert back.flags.c_contiguous and back.flags.writeable
    read = read_checkpoint(tmp_path / "band.nsbl", expect_sha=sha)
    assert np.array_equal(read.coeff, want)
    assert read.coeff.flags.c_contiguous and read.coeff.flags.writeable


def test_read_band_refuses_what_read_checkpoint_refuses(tmp_path, field):
    grid = TorusGrid(16)
    path = tmp_path / "f.nsbl"
    sha = write_velocity(path, field)
    good = path.read_bytes()
    cases = {
        "sha256": (good, "0" * 64),
        "payload is 100 bytes": (nsbl2_blob(16, 5, bytes(100)), None),
        "magic": (b"WRONG" + good[5:], None),
        "CRC-32": (good[:-1] + bytes([good[-1] ^ 1]), None),
        "header truncated": (good[:20], None),
        "re-run `nsbl simulate`": (b"NSBL1" + good[5:], None),
        "band cut 8 is not": (nsbl2_blob(16, 8, bytes(3 * 16 * 16 * 9 * 16)), None),
    }
    for message, (blob, expect) in cases.items():
        path.write_bytes(blob)
        with pytest.raises(CorruptCheckpoint, match=message):
            read_checkpoint(path, expect_sha=expect)
        with pytest.raises(CorruptCheckpoint, match=message):
            read_band(path, grid, expect_sha=expect)
    path.write_bytes(good)
    read_band(path, grid, expect_sha=sha)
    # a file of another grid is refused before its payload is looked at
    for other in (TorusGrid(24), TorusGrid(16, 1.0)):
        with pytest.raises(CorruptCheckpoint, match="does not match"):
            read_band(path, other, expect_sha=sha)


def test_write_refuses_modes_outside_the_band(tmp_path):
    # a full layout, a half spectrum, two components and another grid's
    # band all make a file read_band would call corrupt; none is written
    coeff, v = band_field(16)
    full = expand(v.grid.band, coeff)
    for bad in (full, full[..., :9], coeff[:2], band_field(24)[0]):
        with pytest.raises(ShapeMismatch, match=r"2/3-rule band's \(3, 11, 11, 6\)"):
            write_band(tmp_path / "w.nsbl", v.grid, bad, 0.0)
        assert not (tmp_path / "w.nsbl").exists()


def test_band_mismatch_raises(tmp_path):
    # only the 2/3-rule cut 16//3 = 5 is read.  The cut is checked before the
    # payload size, so a payload sized for the file's own cut gives the same
    # error; cut 8 with 16 rows is the half spectrum of an undealiased run.
    path = tmp_path / "f.nsbl"
    for cut, rows in [(8, 16), (4, 9), (6, 13)]:
        path.write_bytes(nsbl2_blob(16, cut, bytes(3 * rows * rows * (cut + 1) * 16)))
        with pytest.raises(CorruptCheckpoint, match=f"band cut {cut} is not the 2/3-rule cut 5"):
            read_checkpoint(path)


def test_nsbl1_is_no_longer_read(tmp_path, field):
    path = tmp_path / "old.nsbl"
    header = b"NSBL1<" + struct.pack("<IIddI", 3, 16, field.grid.length, 0.0, 3)
    path.write_bytes(header + field.coeff.astype("<c16").tobytes())
    with pytest.raises(CorruptCheckpoint, match="nsbl simulate"):
        read_checkpoint(path)


@pytest.mark.parametrize("offset", [14, 22, 30, HEADER_BYTES - 4, HEADER_BYTES + 100])
def test_crc_catches_flips_without_the_hash(tmp_path, field, offset):
    # box length, time, component count, the CRC itself, the payload
    path = tmp_path / "f.nsbl"
    write_velocity(path, field)
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint, match="CRC"):
        read_checkpoint(path)


def test_payload_size_checked_before_the_band_is_built(tmp_path, monkeypatch):
    # a valid CRC over a header that claims a huge grid: building its band
    # operators would allocate terabytes, so the size check must come first
    def no_band(self):
        raise AssertionError("band built before the payload size was checked")

    monkeypatch.setattr(TorusGrid, "band", property(no_band))
    path = tmp_path / "huge.nsbl"
    path.write_bytes(nsbl2_blob(4096, 4096 // 3, b""))
    with pytest.raises(CorruptCheckpoint, match="payload"):
        read_checkpoint(path)


def one_blob_write_band(path, grid, coeff, t):
    """write_band as one bytes object: payload, header and CRC joined, then
    written and hashed."""
    header = b"NSBL2<" + struct.pack("<IIddII", grid.dim, grid.npts, grid.length, t,
                                     coeff.shape[0], grid.npts // 3)
    payload = coeff.astype("<c16").tobytes()
    blob = header + struct.pack("<I", zlib.crc32(payload, zlib.crc32(header))) + payload
    path.write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("n", [16, 24, 48])
def test_write_band_matches_the_one_blob_encoder(tmp_path, n):
    # a C-order band, and the same band in (row, row, comp, plane) memory
    # order, as ``band_oracle.compact`` lays it out
    coeff, v = band_field(n, seed=n)
    want = one_blob_write_band(tmp_path / "want.nsbl", v.grid, coeff, 0.25)
    rows, planes = coeff.shape[1], coeff.shape[3]
    transposed = np.empty((rows, rows, 3, planes), dtype=complex).transpose(2, 0, 1, 3)
    transposed[...] = coeff
    assert not transposed.flags.c_contiguous
    for band in (coeff, transposed):
        path = tmp_path / "got.nsbl"
        assert write_band(path, v.grid, band, 0.25) == want
        assert path.read_bytes() == (tmp_path / "want.nsbl").read_bytes()
