"""Property tests: the audit on degenerate fields and the checkpoint reader
on damaged files fail only with their typed errors."""

import itertools
import struct
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nsbl import audit as A
from nsbl.checkpoint import MAGIC, CorruptCheckpoint, read_checkpoint, write_checkpoint
from nsbl.ledger import ExponentParams
from nsbl.solver import SolverConfig, Trajectory, make_initial
from nsbl.spectral import TorusGrid

PARAMS = ExponentParams.derive(3, 10, 10, F(6, 5), F(1, 2), j=4, r=12)
GRID = TorusGrid(8)
TYPED = (A.DegenerateField, A.ThresholdTooSmall, A.BadExponents)

# amplitudes across the whole float64 range, log-uniformly
amplitudes = st.builds(lambda m, e: m * 10.0**e,
                       st.floats(1.0, 9.99), st.integers(-300, 300))
modes = st.sampled_from([m for m in itertools.product(range(-2, 3), repeat=3)
                         if m != (0, 0, 0)])


def degenerate_coeff(kind, amplitude, mode):
    """Zero, constant (mean flow along x) or single-mode shear wave."""
    n = GRID.npts
    coeff = np.zeros((3, n, n, n), dtype=complex)
    if kind == "constant":
        coeff[0, 0, 0, 0] = amplitude
    elif kind == "single_mode":
        m = np.array(mode, dtype=float)
        axis = np.eye(3)[int(np.argmin(np.abs(m)))]
        e = np.cross(m, axis)
        e /= np.linalg.norm(e)
        # a real field amplitude * e * cos(m.x): divergence-free since e is normal to m
        for sign in (1, -1):
            idx = tuple(sign * c % n for c in mode)
            coeff[(slice(None),) + idx] += amplitude / 2 * e
    return coeff


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60)
@given(
    kind=st.sampled_from(["zero", "constant", "single_mode"]),
    amplitude=amplitudes,
    mode=modes,
    snapshots=st.integers(1, 3),
    sigma=st.sampled_from([F(0), F(1, 2), F(1)]),
    s_values=st.lists(st.sampled_from([1.5, 2.0, 3.0]), min_size=1, max_size=3),
)
def test_audit_on_degenerate_fields(kind, amplitude, mode, snapshots, sigma, s_values):
    coeff = degenerate_coeff(kind, amplitude, mode)
    times = [0.01 * i for i in range(snapshots)]
    cfg = SolverConfig(dt=0.01, t_final=times[-1], snapshot_stride=1)
    traj = Trajectory(GRID, cfg, times, [coeff] * snapshots, [0.0] * snapshots)
    try:
        report = A.run_audit(traj, PARAMS.with_sigma(sigma, 0),
                             A.AuditSpec(s_values=tuple(s_values)))
    except TYPED as exc:
        event(type(exc).__name__)
        return
    event("report")
    assert report.checks


@settings(max_examples=60)
@given(cut=st.integers(0, 10**9))
def test_truncated_checkpoint(tmp_path_factory, cut):
    path = tmp_path_factory.mktemp("trunc") / "c.nsbl"
    v = make_initial("random_spectrum", GRID, seed=1, amplitude=1.0, kmax=2)
    sha = write_checkpoint(path, v)
    data = path.read_bytes()
    path.write_bytes(data[: cut % len(data)])
    for expect in (None, sha):
        with pytest.raises(CorruptCheckpoint):
            read_checkpoint(path, expect_sha=expect)


HEADER = struct.Struct("<IIddI")
# byte ranges of the header fields that fix the file's layout: magic,
# endianness tag, dimension, points per axis and component count
STRUCTURAL = [range(0, len(MAGIC) + 1),
              range(len(MAGIC) + 1, len(MAGIC) + 9),
              range(len(MAGIC) + 1 + HEADER.size - 4, len(MAGIC) + 1 + HEADER.size)]


@settings(max_examples=80)
@given(position=st.integers(0, 10**9), bit=st.integers(0, 7), structural=st.booleans())
def test_bit_flipped_checkpoint(tmp_path_factory, position, bit, structural):
    path = tmp_path_factory.mktemp("flip") / "c.nsbl"
    v = make_initial("random_spectrum", GRID, seed=1, amplitude=1.0, kmax=2)
    sha = write_checkpoint(path, v)
    data = bytearray(path.read_bytes())
    if structural:
        offsets = [i for r in STRUCTURAL for i in r]
        position = offsets[position % len(offsets)]
    else:
        position %= len(data)
    data[position] ^= 1 << bit
    path.write_bytes(bytes(data))
    # the manifest's hash catches every flip
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path, expect_sha=sha)
    if structural:
        # without a hash, a flip in a layout field still cannot pass
        with pytest.raises(CorruptCheckpoint):
            read_checkpoint(path)
