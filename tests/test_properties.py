"""Property tests: the exact-rational ledger identities hold, and the audit
on degenerate fields or extreme exponents and the checkpoint reader on
damaged files fail only with their typed errors."""

import itertools
import math
import struct
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nsbl import audit as A
from nsbl import ledger as L
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
    traj = Trajectory(GRID, cfg, times, [GRID.band.compact(coeff)] * snapshots,
                      [0.0] * snapshots)
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


HEADER = struct.Struct("<IIddII")
# byte ranges of the fields that fix the file's layout: magic, endianness
# tag, dimension, points per axis, component count, band cut and the CRC
STRUCTURAL = [range(0, len(MAGIC) + 1),
              range(len(MAGIC) + 1, len(MAGIC) + 9),
              range(len(MAGIC) + 1 + HEADER.size - 8, len(MAGIC) + 1 + HEADER.size + 4)]


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
    # the manifest's hash catches every flip, and so does the file's CRC-32
    for expect in (sha, None):
        with pytest.raises(CorruptCheckpoint):
            read_checkpoint(path, expect_sha=expect)


dims = st.integers(3, 8)
# positive rationals from 1e-12 to 1e12, with small and large denominators
scales = st.builds(lambda m, d, e: F(m, d) * F(10) ** e,
                   st.integers(1, 10**6), st.integers(1, 10**6), st.integers(-12, 12))
unit_open = st.builds(lambda a, b: F(a, a + b), st.integers(1, 10**6), st.integers(1, 10**6))


@settings(max_examples=200)
@given(N=dims, excess=scales, j=scales, share=unit_open, delta=unit_open)
def test_ledger_identities_exact(N, excess, j, share, delta):
    q = N + 2 + excess
    # the three forms of b, and the expansion chain for M at j = delta (N+2)
    f1, f2, f3 = L.b_exponent_forms(N, q, j)
    assert f1 == f2 == f3
    assert len(set(L.m_delta_forms(N, q, delta))) == 1
    # both forms of M, anywhere in the admissible range 0 <= alpha j < sup
    a = L.alpha(N, q)
    j_in = share * L.alpha_j_interval_sup(N, q) / a
    m1, m2 = L.big_m_forms(N, q, j_in)
    assert m1 == m2
    assert L.m_delta(N, q, delta) == L.big_m(N, q, delta * (N + 2))


@settings(max_examples=100)
@given(N=dims, sigma0=scales, s3=scales, theta=unit_open)
def test_sigma_solve_substitutes_back(N, sigma0, s3, theta):
    p = ExponentParams.derive(N, 2 * (N + 2), 10, F(6, 5))
    try:
        sigma, delta0 = L.sigma_solve(p, sigma0, s3, theta)
    except L.DegenerateCoefficient:
        assert sigma0 / theta - s3 / theta + 1 == 0
        return
    assert sigma * (sigma0 / theta - s3 / theta + 1) - 1 == (N - 2) * s3 / (2 * theta)
    assert delta0 == s3 / theta


THRESHOLD_TRAJ = Trajectory(
    GRID, SolverConfig(dt=0.01, t_final=0.01, snapshot_stride=1), [0.0, 0.01],
    [GRID.band.compact(make_initial("random_spectrum", GRID, seed=2, amplitude=1.0,
                                      kmax=2).coeff)] * 2,
    [0.0, 0.0])
exponents = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-12, 12))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150)
@given(N=dims, excess=scales, j=scales, r=exponents, singular=st.booleans(),
       ell_gap=exponents, m_sigma=st.one_of(amplitudes, st.just(0.0)))
def test_threshold_with_extreme_exponents(N, excess, j, r, singular, ell_gap, m_sigma):
    # the threshold is a finite positive number or a typed error, never a
    # bare ZeroDivisionError or OverflowError from math.exp or math.log
    if singular:
        j = max(j, F(1))
        r = 2 * j
    else:
        r = F(max(r, 1.5))
    params = ExponentParams.derive(N, N + 2 + excess, 10, F(6, 5), j=j, r=r)
    stats = A.FieldStats(THRESHOLD_TRAJ, m_sigma)
    ell = float(r) * (1.0 + ell_gap)
    try:
        k = A.estimate_threshold(stats.scaled_psi(float(r)), stats, params, ell)
    except (A.BadExponents, A.DegenerateField) as exc:
        event(type(exc).__name__)
        return
    event("threshold")
    assert 0.0 < k < math.inf
