import hashlib
import struct
import zlib

import numpy as np
import pytest

from nsbl.checkpoint import CorruptCheckpoint, read_checkpoint, write_checkpoint
from nsbl.spectral import ShapeMismatch, SpectralVelocity, TorusGrid
from nsbl.solver import make_initial

# magic, endianness tag, dim, npts, length, t, ncomp, cut, CRC-32
HEADER_BYTES = 5 + 1 + 4 + 4 + 8 + 8 + 4 + 4 + 4


@pytest.fixture
def field():
    return make_initial("random_spectrum", TorusGrid(16), seed=4, amplitude=1.0, kmax=4)


def test_round_trip_bit_exact(tmp_path, field):
    path = tmp_path / "f.nsbl"
    field.t = 0.375
    sha = write_checkpoint(path, field)
    back = read_checkpoint(path, expect_sha=sha)
    assert back.t == field.t
    assert back.grid.npts == 16
    assert back.grid.length == field.grid.length
    assert np.array_equal(back.coeff, field.coeff)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


def test_hash_mismatch(tmp_path, field):
    path = tmp_path / "f.nsbl"
    write_checkpoint(path, field)
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path, expect_sha="0" * 64)


def test_corrupted_payload(tmp_path, field):
    path = tmp_path / "f.nsbl"
    write_checkpoint(path, field)
    blob = bytearray(path.read_bytes())
    blob = blob[:-7]
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_bad_magic(tmp_path, field):
    path = tmp_path / "f.nsbl"
    write_checkpoint(path, field)
    blob = bytearray(path.read_bytes())
    blob[:5] = b"WRONG"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_deterministic_bytes(tmp_path, field):
    p1, p2 = tmp_path / "a.nsbl", tmp_path / "b.nsbl"
    s1 = write_checkpoint(p1, field)
    s2 = write_checkpoint(p2, field)
    assert s1 == s2
    assert p1.read_bytes() == p2.read_bytes()


def band_field(n, seed=0):
    """Arbitrary band data of a grid and the full-layout field it expands to."""
    band = TorusGrid(n).band
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=(3,) + band.shape) + 1j * rng.normal(size=(3,) + band.shape)
    return coeff, SpectralVelocity(band.expand(coeff), TorusGrid(n), 0.125)


def nsbl2_blob(npts, cut, payload):
    """An NSBL2 file of a 3-component field with a valid CRC-32."""
    head = b"NSBL2<" + struct.pack("<IIddII", 3, npts, 2 * np.pi, 0.0, 3, cut)
    return head + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))) + payload


@pytest.mark.parametrize("n", [16, 24])
def test_band_round_trip_bit_exact(tmp_path, n):
    coeff, v = band_field(n)
    path = tmp_path / "b.nsbl"
    sha = write_checkpoint(path, v)
    # the payload is the band itself, after the fixed header
    assert len(path.read_bytes()) == HEADER_BYTES + coeff.nbytes
    back = read_checkpoint(path, expect_sha=sha)
    assert np.array_equal(back.coeff, v.coeff)
    assert v.grid.band.compact(back.coeff).tobytes() == coeff.tobytes()
    assert back.t == 0.125


def test_write_refuses_modes_outside_the_band(tmp_path):
    _, v = band_field(16)
    # a real mode pair at |m_x| = 6 > 16//3
    wide = SpectralVelocity(v.coeff.copy(), v.grid)
    wide.coeff[1, 6, 0, 0] = wide.coeff[1, -6, 0, 0] = 0.5
    with pytest.raises(ShapeMismatch):
        write_checkpoint(tmp_path / "w.nsbl", wide)
    assert not (tmp_path / "w.nsbl").exists()
    # inside the band, but not the real field of it: the mirror is not conj
    skew = SpectralVelocity(v.coeff.copy(), v.grid)
    skew.coeff[0, 1, 2, -3] += 1e-14
    with pytest.raises(ShapeMismatch):
        write_checkpoint(tmp_path / "w.nsbl", skew)
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
    write_checkpoint(path, field)
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
