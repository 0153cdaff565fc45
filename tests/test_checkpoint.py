import hashlib

import numpy as np
import pytest

from nsbl.checkpoint import CorruptCheckpoint, read_checkpoint, write_checkpoint
from nsbl.spectral import TorusGrid
from nsbl.solver import make_initial


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
