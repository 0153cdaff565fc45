"""The band solver kernels against two generations of reference algorithms.

The full-layout oracles are the complex full-spectrum algorithms the solver
and ``cz_pressure`` used first; their arithmetic order differs, so results
agree to roundoff.  The half-spectrum oracles are the real-FFT algorithms
that ran over the whole half spectrum (n, n, n//2+1) before the state
shrank to the kept band: every band entry is computed by the same
operations, so results agree bit for bit.
"""

import numpy as np
import pytest

from nsbl.checkpoint import write_checkpoint
from nsbl.solver import SolverConfig, make_initial, nonlinear_term, run, step
from nsbl.spectral import (
    PAIRS,
    SpectralVelocity,
    TorusGrid,
    cz_pressure,
    transform_forward,
    transform_inverse,
)

RTOL = 1e-13


def full_spectrum(half):
    """Full layout of a half spectrum by conjugate mirroring, c(-k) = conj(c(k)):
    the algorithm ``SpectralBand.expand`` used before it scattered directly."""
    n = half.shape[-3]
    # entries k_z = n/2-1 .. 1 at (-k_x, -k_y), for the full layout's k_z = n/2+1 .. n-1
    mirrored = np.roll(half[..., ::-1, ::-1, n // 2 - 1 : 0 : -1], 1, axis=(-3, -2))
    return np.concatenate([half, np.conj(mirrored)], axis=-1)


def two_thirds_mask(grid):
    """Full-layout mask of the modes with every |m_i| <= n//3."""
    keep = np.abs(grid.freqs) <= grid.npts // 3
    return keep[:, None, None] & keep[None, :, None] & keep[None, None, :]


def in_band(c, grid):
    """c is exactly the expansion of its band: nothing outside it, and every
    mirrored entry the conjugate of its band entry."""
    band = grid.band
    return np.array_equal(band.expand(band.compact(c)), c)


def oracle_project(coeff, grid):
    k = grid.wavenumbers
    kdotv = (k[0] * coeff[0] + k[1] * coeff[1] + k[2] * coeff[2]) * grid.inv_k_squared
    return coeff - k * kdotv[None]


def oracle_nonlinear(coeff, grid):
    u = transform_inverse(coeff, grid)
    k = grid.wavenumbers
    out = np.zeros_like(coeff)
    for i in range(3):
        for j in range(i, 3):
            w = transform_forward(u[i] * u[j], grid) * two_thirds_mask(grid)
            out[i] -= 1j * k[j] * w
            if i != j:
                out[j] -= 1j * k[i] * w
    return oracle_project(out, grid)


def oracle_cz_pressure(v, m_sigma):
    grid = v.grid
    u = v.components()
    k = grid.wavenumbers
    p_hat = np.zeros((grid.npts,) * 3, dtype=np.complex128)
    for i in range(3):
        for j in range(i, 3):
            w = transform_forward(u[i] * u[j], grid) * two_thirds_mask(grid)
            factor = 1.0 if i == j else 2.0
            p_hat -= factor * (m_sigma**2) * k[i] * k[j] * grid.inv_k_squared * w
    p_hat[0, 0, 0] = 0.0
    return transform_inverse(p_hat, grid)


def oracle_rk4_step(coeff, grid, cfg):
    nu, dt = cfg.viscosity, cfg.dt
    e_half = np.exp(-nu * grid.k_squared * dt / 2)
    e_full = e_half * e_half
    nl = lambda c: oracle_nonlinear(c, grid)
    k1 = nl(coeff)
    a = e_half * (coeff + (dt / 2) * k1)
    k2 = nl(a)
    b = e_half * coeff + (dt / 2) * k2
    k3 = nl(b)
    c = e_full * coeff + dt * e_half * k3
    k4 = nl(c)
    return e_full * coeff + (dt / 6) * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)


class HalfOps:
    """The half-spectrum operators: the first n//2+1 k_z planes of the full ones."""

    def __init__(self, grid):
        m = grid.npts // 2 + 1
        self.grid = grid
        self.k = grid.wavenumbers[..., :m]
        self.k2 = grid.k_squared[..., :m]
        self.inv_k2 = grid.inv_k_squared[..., :m]
        self.mask = two_thirds_mask(grid)[..., :m]
        self.weights = np.full(m, 2.0)
        self.weights[0] = self.weights[-1] = 1.0

    def inverse(self, half):
        n = self.grid.npts
        return np.fft.irfftn(half, s=(n, n, n), axes=(-3, -2, -1), norm="forward")

    def products(self, u):
        prods = np.stack([u[i] * u[j] for i, j in PAIRS])
        return np.fft.rfftn(prods, axes=(-3, -2, -1), norm="forward") * self.mask


def half_oracle_nonlinear(half, ops):
    w = ops.products(ops.inverse(half))
    k = ops.k
    div = np.stack([
        k[0] * w[0] + k[1] * w[1] + k[2] * w[2],
        k[0] * w[1] + k[1] * w[3] + k[2] * w[4],
        k[0] * w[2] + k[1] * w[4] + k[2] * w[5],
    ])
    kdotv = (k[0] * div[0] + k[1] * div[1] + k[2] * div[2]) * ops.inv_k2
    return -1j * (div - k * kdotv[None])


def half_oracle_step(half, ops, cfg):
    """One RK4 step over the whole half spectrum; (new, dissipation increment)."""
    nu, dt = cfg.viscosity, cfg.dt
    e_half = np.exp(-nu * ops.k2 * dt / 2)
    e_full = e_half * e_half
    nl = lambda c: half_oracle_nonlinear(c, ops)
    weighted = ops.weights * ops.k2
    diss = lambda c: nu * ops.grid.volume * float(np.sum(weighted * (c.real**2 + c.imag**2)))
    k1 = nl(half)
    a = e_half * (half + (dt / 2) * k1)
    k2 = nl(a)
    b = e_half * half + (dt / 2) * k2
    k3 = nl(b)
    c = e_full * half + dt * e_half * k3
    k4 = nl(c)
    new = e_full * half + (dt / 6) * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)
    return new, (dt / 6) * (diss(half) + 2 * diss(a) + 2 * diss(b) + diss(c))


def half_oracle_cz_pressure(v, m_sigma):
    ops = HalfOps(v.grid)
    w = ops.products(ops.inverse(v.coeff[..., : v.grid.npts // 2 + 1]))
    p_hat = np.zeros(w.shape[1:], dtype=np.complex128)
    for p, (i, j) in enumerate(PAIRS):
        factor = 1.0 if i == j else 2.0
        p_hat -= factor * ops.k[i] * ops.k[j] * w[p]
    p_hat *= (m_sigma**2) * ops.inv_k2
    p_hat[0, 0, 0] = 0.0
    return ops.inverse(p_hat)


def coeff_l2_norm(v):
    """Spatial L2 norm of a full-layout field, from its coefficients."""
    return float(np.sqrt(v.grid.volume * np.sum(np.abs(v.coeff) ** 2)))


def rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def field(n, seed=3):
    # kmax at the top of the band, so that the quadratic products reach
    # past it and would alias without the mask
    return make_initial("random_spectrum", TorusGrid(n), seed=seed, amplitude=2.0, kmax=n // 3)


def wide_field(n, seed=3):
    """``field(n)`` plus a divergence-free part outside the 2/3-rule band."""
    v = field(n, seed)
    g = v.grid
    noise = np.random.default_rng(seed).normal(size=(3, n, n, n))
    outside = transform_forward(noise, g) * ~two_thirds_mask(g)
    wide = v.coeff + 0.1 * oracle_project(outside, g)
    return SpectralVelocity(wide, g)


@pytest.mark.parametrize("n", [16, 24, 48])
def test_half_operators_are_full_layout_slices(n):
    # the 2/3-rule band: kept indices 0..c, n-c..n-1 in FFT order, k_z planes 0..c
    g = TorusGrid(n)
    c = n // 3
    band = g.band
    assert band is g.band
    assert band.rows.tolist() == list(range(c + 1)) + list(range(n - c, n))
    assert band.shape == (2 * c + 1, 2 * c + 1, c + 1)
    keep = np.ix_(band.rows, band.rows, range(c + 1))
    assert np.array_equal(band.wavenumbers, g.wavenumbers[(slice(None),) + keep])
    assert np.array_equal(band.k_squared, g.k_squared[keep])
    assert np.array_equal(band.inv_k_squared, g.inv_k_squared[keep])
    assert two_thirds_mask(g)[keep].all()
    assert two_thirds_mask(g).sum() == (2 * c + 1) ** 3
    assert band.weights.tolist() == [1.0] + [2.0] * c


@pytest.mark.parametrize("n", [16, 24, 48])
def test_pruned_transforms_match_rfftn_and_irfftn(n):
    g = TorusGrid(n)
    band = g.band
    ops = HalfOps(g)
    values = np.random.default_rng(n).normal(size=(n, n, n))
    want = np.fft.rfftn(values, axes=(-3, -2, -1), norm="forward") * ops.mask
    assert np.array_equal(band.forward(values), band.compact(want))
    coeff = band.compact(transform_forward(np.stack([values, -values, 2 * values]), g))
    padded = np.zeros((3, n, n, n // 2 + 1), dtype=complex)
    padded[(slice(None),) + np.ix_(band.rows, band.rows, range(band.planes))] = coeff
    assert np.array_equal(band.inverse(coeff), ops.inverse(padded))
    assert np.array_equal(band.expand(coeff), full_spectrum(padded))


@pytest.mark.parametrize("n", [16, 24, 48])
def test_expand_scatter_matches_mirrored_half_spectrum(n):
    # arbitrary band data, so the k_z = 0 plane is not its own mirror and
    # any mirroring of it would show
    band = TorusGrid(n).band
    rng = np.random.default_rng(n)
    coeff = rng.normal(size=(3,) + band.shape) + 1j * rng.normal(size=(3,) + band.shape)
    padded = np.zeros((3, n, n, n // 2 + 1), dtype=complex)
    padded[(slice(None),) + np.ix_(band.rows, band.rows, range(band.planes))] = coeff
    got, want = band.expand(coeff), full_spectrum(padded)
    # bit for bit once signed zeros are made equal: the mirrored path
    # conjugates the zeros outside the band to -0j
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
    assert np.array_equal(band.compact(got), coeff)


@pytest.mark.parametrize("n", [16, 24, 48])
def test_nonlinear_matches_full_oracle(n):
    v = field(n)
    got = nonlinear_term(v).coeff
    assert rel_err(got, oracle_nonlinear(v.coeff, v.grid)) <= RTOL
    assert in_band(got, v.grid)


@pytest.mark.parametrize("n", [16, 24, 48])
def test_cz_pressure_matches_full_oracle(n):
    v = field(n)
    got = cz_pressure(v.grid.band.compact(v.coeff), v.grid, m_sigma=1.7).values
    assert rel_err(got, oracle_cz_pressure(v, 1.7)) <= RTOL


@pytest.mark.parametrize("n", [16, 24])
def test_step_matches_full_oracle(n):
    v = field(n)
    cfg = SolverConfig(viscosity=1.0, dt=2e-3)
    got = step(v, cfg)
    assert rel_err(got.coeff, oracle_rk4_step(v.coeff, v.grid, cfg)) <= RTOL
    assert in_band(got.coeff, v.grid)


def test_run_snapshots_hermitian():
    v = field(16, seed=5)
    traj = run(v, SolverConfig(viscosity=1.0, dt=2e-3, t_final=0.02, snapshot_stride=3))
    for i in range(len(traj)):
        assert in_band(traj.velocity(i).coeff, v.grid)


@pytest.mark.parametrize("n", [16, 24, 48])
def test_band_kernels_match_half_spectrum_oracle(n):
    v = field(n)
    want = half_oracle_nonlinear(v.coeff[..., : n // 2 + 1], HalfOps(v.grid))
    assert np.array_equal(nonlinear_term(v).coeff, full_spectrum(want))
    for u in (v, field(n, seed=n)):
        got = cz_pressure(u.grid.band.compact(u.coeff), u.grid, m_sigma=1.7).values
        assert np.array_equal(got, half_oracle_cz_pressure(u, 1.7))


@pytest.mark.parametrize("n", [16, 24, 48])
def test_band_velocity_matches_irfftn_of_half_spectrum(n):
    # the audit's |u| and pressure read the velocity off the band; it is the
    # irfftn of the half spectrum bit for bit, and the full ifftn to roundoff
    v = field(n)
    traj = run(v, SolverConfig(viscosity=1.0, dt=2e-3, t_final=2e-3, snapshot_stride=1))
    band = v.grid.band
    for i in range(len(traj)):
        full = traj.velocity(i)
        u = band.inverse(traj.coeffs[i])
        assert np.array_equal(u, HalfOps(v.grid).inverse(full.coeff[..., : n // 2 + 1]))
        assert np.array_equal(traj.magnitudes()[i], np.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2))
        assert np.abs(traj.magnitudes()[i] - full.magnitude()).max() <= 1e-14


@pytest.mark.parametrize("n", [16, 24, 48])
def test_band_run_matches_half_spectrum_oracle(n, tmp_path):
    # coefficients and checkpoint bytes bit for bit; the dissipation sums
    # run over fewer terms, so only their summation order differs
    v = field(n, seed=n)
    cfg = SolverConfig(viscosity=1.0, dt=2e-3, t_final=6e-3, snapshot_stride=1)
    traj = run(v, cfg)
    ops = HalfOps(v.grid)
    half, acc = v.coeff[..., : n // 2 + 1], 0.0
    for i in range(1, len(traj)):
        half, dd = half_oracle_step(half, ops, cfg)
        acc += dd
        want = SpectralVelocity(full_spectrum(half), v.grid, traj.times[i])
        assert np.array_equal(traj.velocity(i).coeff, want.coeff)
        sha_want = write_checkpoint(tmp_path / f"want{i}", want)
        sha_got = write_checkpoint(tmp_path / f"got{i}", traj.velocity(i))
        assert sha_got == sha_want
        assert traj.dissipation[i] == pytest.approx(acc, rel=1e-15, abs=0)


@pytest.mark.parametrize("n", [16, 24])
def test_out_of_band_input_is_dropped(n):
    # step and nonlinear_term see only the band, as run does: modes outside
    # it do not leak through the linear term
    wide = wide_field(n)
    masked = SpectralVelocity(wide.coeff * two_thirds_mask(wide.grid), wide.grid)
    cfg = SolverConfig(viscosity=1.0, dt=2e-3)
    assert np.array_equal(step(wide, cfg).coeff, step(masked, cfg).coeff)
    assert np.array_equal(nonlinear_term(wide).coeff, nonlinear_term(masked).coeff)
    assert np.abs(step(wide, cfg).coeff * ~two_thirds_mask(wide.grid)).max() == 0.0


@pytest.mark.parametrize("plane,mode", [
    ("k_z = 0", (0, 1, 0)),
    ("interior", (0, 0, 3)),
    ("outermost", (0, 0, 5)),
])
def test_dissipation_weights_per_plane(plane, mode):
    # u_x = cos(k.x) with k.e_x = 0 is a steady Euler shear flow: its
    # advection vanishes, so all the energy lost is viscous dissipation.
    # A wrong k_z-plane weight doubles or halves the accumulated integral;
    # the outermost case is the last kept plane k_z = c = 16//3.
    g = TorusGrid(16)
    x = g.mesh()
    phase = sum(m * xi for m, xi in zip(mode, x))
    u = np.stack([np.cos(phase), np.zeros_like(phase), np.zeros_like(phase)])
    v0 = SpectralVelocity(transform_forward(u, g), g)
    nu, t_final = 0.5, 0.01
    cfg = SolverConfig(viscosity=nu, dt=1e-3, t_final=t_final, snapshot_stride=5)
    traj = run(v0, cfg)
    k2 = float(sum(m * m for m in mode))
    e0 = 0.5 * coeff_l2_norm(v0) ** 2
    decay = np.exp(-2 * nu * k2 * t_final)
    e_final = 0.5 * coeff_l2_norm(traj.velocity(len(traj) - 1)) ** 2
    assert e_final == pytest.approx(e0 * decay, rel=1e-12)
    assert traj.dissipation[-1] == pytest.approx(e0 * (1 - decay), rel=1e-6), plane
