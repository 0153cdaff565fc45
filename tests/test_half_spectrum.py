"""The band solver kernels against two generations of reference algorithms.

The full-layout oracles are the complex full-spectrum algorithms the solver
and ``cz_pressure`` used first, on the full (3, n, n, n) layout that
``band_oracle.expand`` gives; their arithmetic order differs, so results
agree to roundoff.  The half-spectrum oracles are the real-FFT algorithms
that ran over the whole half spectrum (n, n, n//2+1) before the state
shrank to the kept band: every band entry is computed by the same
operations, so results agree bit for bit.
"""

import numpy as np
import pytest

from band_oracle import compact, expand
from nsbl.audit import FieldStats
from nsbl.checkpoint import write_band
from nsbl.solver import SolverConfig, make_initial, nonlinear_term, run, step
from nsbl.spectral import (
    PAIRS,
    SpectralVelocity,
    TorusGrid,
    cz_pressure,
)

RTOL = 1e-13


def transform_forward(values):
    """Full-layout forward-normalized coefficients of real-space data."""
    return np.fft.fftn(values, axes=(-3, -2, -1), norm="forward")


def transform_inverse(coeff):
    """Real-space data of full-layout coefficients."""
    return np.fft.ifftn(coeff, axes=(-3, -2, -1), norm="forward").real


class FullOps:
    """The full-layout operators k (3, n, n, n), |k|^2 and 1/|k|^2 (zero
    mode 0), built as the grid built them before the band was the only
    layout."""

    def __init__(self, grid):
        m = 2 * np.pi / grid.length * grid.freqs.astype(np.float64)
        self.k = np.stack(np.meshgrid(m, m, m, indexing="ij"))
        self.k2 = self.k[0] ** 2 + self.k[1] ** 2 + self.k[2] ** 2
        k2 = self.k2.copy()
        k2[0, 0, 0] = 1.0
        self.inv_k2 = 1.0 / k2
        self.inv_k2[0, 0, 0] = 0.0


def full_spectrum(half):
    """Full layout of a half spectrum by conjugate mirroring, c(-k) = conj(c(k)):
    the algorithm ``band_oracle.expand`` used before it scattered directly."""
    n = half.shape[-3]
    # entries k_z = n/2-1 .. 1 at (-k_x, -k_y), for the full layout's k_z = n/2+1 .. n-1
    mirrored = np.roll(half[..., ::-1, ::-1, n // 2 - 1 : 0 : -1], 1, axis=(-3, -2))
    return np.concatenate([half, np.conj(mirrored)], axis=-1)


def two_thirds_mask(grid):
    """Full-layout mask of the modes with every |m_i| <= n//3."""
    keep = np.abs(grid.freqs) <= grid.npts // 3
    return keep[:, None, None] & keep[None, :, None] & keep[None, None, :]


def oracle_project(coeff, grid):
    ops = FullOps(grid)
    k = ops.k
    kdotv = (k[0] * coeff[0] + k[1] * coeff[1] + k[2] * coeff[2]) * ops.inv_k2
    return coeff - k * kdotv[None]


def oracle_nonlinear(coeff, grid):
    u = transform_inverse(coeff)
    k = FullOps(grid).k
    out = np.zeros_like(coeff)
    for i in range(3):
        for j in range(i, 3):
            w = transform_forward(u[i] * u[j]) * two_thirds_mask(grid)
            out[i] -= 1j * k[j] * w
            if i != j:
                out[j] -= 1j * k[i] * w
    return oracle_project(out, grid)


def oracle_cz_pressure(coeff, grid):
    """The pressure of full-layout coefficients."""
    u = transform_inverse(coeff)
    ops = FullOps(grid)
    k = ops.k
    p_hat = np.zeros((grid.npts,) * 3, dtype=np.complex128)
    for i in range(3):
        for j in range(i, 3):
            w = transform_forward(u[i] * u[j]) * two_thirds_mask(grid)
            factor = 1.0 if i == j else 2.0
            p_hat -= factor * k[i] * k[j] * ops.inv_k2 * w
    p_hat[0, 0, 0] = 0.0
    return transform_inverse(p_hat)


def oracle_rk4_step(coeff, grid, cfg):
    nu, dt = cfg.viscosity, cfg.dt
    e_half = np.exp(-nu * FullOps(grid).k2 * dt / 2)
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
        full = FullOps(grid)
        self.grid = grid
        self.k = full.k[..., :m]
        self.k2 = full.k2[..., :m]
        self.inv_k2 = full.inv_k2[..., :m]
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


def half_oracle_cz_pressure(v):
    ops = HalfOps(v.grid)
    w = ops.products(ops.inverse(half_spectrum(v)))
    p_hat = np.zeros(w.shape[1:], dtype=np.complex128)
    for p, (i, j) in enumerate(PAIRS):
        factor = 1.0 if i == j else 2.0
        p_hat -= factor * ops.k[i] * ops.k[j] * w[p]
    p_hat *= ops.inv_k2
    p_hat[0, 0, 0] = 0.0
    return ops.inverse(p_hat)


def full_layout(v):
    return expand(v.grid.band, v.coeff)


def half_spectrum(v):
    """The first n//2+1 k_z planes of the full layout."""
    return full_layout(v)[..., : v.grid.npts // 2 + 1]


def band_pressure(v):
    """cz_pressure of a velocity, with the velocity on the grid from the
    band's inverse, as the audit forms it."""
    return cz_pressure(v.coeff, v.grid.band.inverse(v.coeff), v.grid)


def coeff_l2_norm(grid, coeff):
    """Spatial L2 norm of a field, from its full-layout coefficients."""
    return float(np.sqrt(grid.volume * np.sum(np.abs(expand(grid.band, coeff)) ** 2)))


def rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def field(n, seed=3):
    # kmax at the top of the band, so that the quadratic products reach
    # past it and would alias without the mask
    return make_initial("random_spectrum", TorusGrid(n), seed=seed, amplitude=2.0, kmax=n // 3)


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
    full = FullOps(g)
    assert np.array_equal(band.wavenumbers, full.k[(slice(None),) + keep])
    assert np.array_equal(band.k_squared, full.k2[keep])
    assert np.array_equal(band.inv_k_squared, full.inv_k2[keep])
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
    assert np.array_equal(band.forward(values), compact(band, want))
    coeff = compact(band, transform_forward(np.stack([values, -values, 2 * values])))
    padded = np.zeros((3, n, n, n // 2 + 1), dtype=complex)
    padded[(slice(None),) + np.ix_(band.rows, band.rows, range(band.planes))] = coeff
    assert np.array_equal(band.inverse(coeff), ops.inverse(padded))
    assert np.array_equal(expand(band, coeff), full_spectrum(padded))


@pytest.mark.parametrize("n", [16, 24, 48])
def test_expand_scatter_matches_mirrored_half_spectrum(n):
    # arbitrary band data, so the k_z = 0 plane is not its own mirror and
    # any mirroring of it would show
    band = TorusGrid(n).band
    rng = np.random.default_rng(n)
    coeff = rng.normal(size=(3,) + band.shape) + 1j * rng.normal(size=(3,) + band.shape)
    padded = np.zeros((3, n, n, n // 2 + 1), dtype=complex)
    padded[(slice(None),) + np.ix_(band.rows, band.rows, range(band.planes))] = coeff
    got, want = expand(band, coeff), full_spectrum(padded)
    # bit for bit once signed zeros are made equal: the mirrored path
    # conjugates the zeros outside the band to -0j
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
    assert np.array_equal(compact(band, got), coeff)


@pytest.mark.parametrize("n", [16, 24, 48])
def test_nonlinear_matches_full_oracle(n):
    # compared in the full layout, where the oracle's modes outside the
    # band are zero too
    v = field(n)
    got = expand(v.grid.band, nonlinear_term(v).coeff)
    assert rel_err(got, oracle_nonlinear(full_layout(v), v.grid)) <= RTOL


@pytest.mark.parametrize("n", [16, 24, 48])
def test_cz_pressure_matches_full_oracle(n):
    v = field(n)
    got = band_pressure(v)
    assert rel_err(got, oracle_cz_pressure(full_layout(v), v.grid)) <= RTOL


@pytest.mark.parametrize("n", [16, 24])
def test_step_matches_full_oracle(n):
    v = field(n)
    cfg = SolverConfig(viscosity=1.0, dt=2e-3)
    got = expand(v.grid.band, step(v, cfg).coeff)
    assert rel_err(got, oracle_rk4_step(full_layout(v), v.grid, cfg)) <= RTOL


def test_run_snapshots_hermitian():
    # every snapshot is the band of a real field: the full ifftn of its
    # expansion is real to roundoff
    v = field(16, seed=5)
    traj = run(v, SolverConfig(viscosity=1.0, dt=2e-3, t_final=0.02, snapshot_stride=3))
    for c in traj.coeffs:
        u = np.fft.ifftn(expand(v.grid.band, c), axes=(-3, -2, -1), norm="forward")
        assert np.abs(u.imag).max() <= RTOL * np.abs(u.real).max()


@pytest.mark.parametrize("n", [16, 24, 48])
def test_band_kernels_match_half_spectrum_oracle(n):
    v = field(n)
    want = half_oracle_nonlinear(half_spectrum(v), HalfOps(v.grid))
    assert np.array_equal(nonlinear_term(v).coeff, compact(v.grid.band, want))
    for u in (v, field(n, seed=n)):
        got = band_pressure(u)
        assert np.array_equal(got, half_oracle_cz_pressure(u))


@pytest.mark.parametrize("n", [16, 24, 48])
def test_band_velocity_matches_irfftn_of_half_spectrum(n):
    # the audit's |u| and pressure read the velocity off the band; it is the
    # irfftn of the half spectrum bit for bit, and the full ifftn to roundoff
    v = field(n)
    traj = run(v, SolverConfig(viscosity=1.0, dt=2e-3, t_final=2e-3, snapshot_stride=1))
    mags = FieldStats.measure(traj, (), 0).mags
    band = v.grid.band
    for i, c in enumerate(traj.coeffs):
        full = expand(band, c)
        u = band.inverse(c)
        assert np.array_equal(u, HalfOps(v.grid).inverse(full[..., : n // 2 + 1]))
        assert np.array_equal(mags[i], np.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2))
        uf = transform_inverse(full)
        full_magnitude = np.sqrt(uf[0] ** 2 + uf[1] ** 2 + uf[2] ** 2)
        assert np.abs(mags[i] - full_magnitude).max() <= 1e-14


@pytest.mark.parametrize("n", [16, 24, 48])
def test_band_run_matches_half_spectrum_oracle(n, tmp_path):
    # coefficients and checkpoint bytes bit for bit; the dissipation sums
    # run over fewer terms, so only their summation order differs
    v = field(n, seed=n)
    cfg = SolverConfig(viscosity=1.0, dt=2e-3, t_final=6e-3, snapshot_stride=1)
    traj = run(v, cfg)
    ops = HalfOps(v.grid)
    band = v.grid.band
    half, acc = half_spectrum(v), 0.0
    for i in range(1, len(traj)):
        half, dd = half_oracle_step(half, ops, cfg)
        acc += dd
        want = compact(band, half)
        assert np.array_equal(expand(band, traj.coeffs[i]), full_spectrum(half))
        sha_want = write_band(tmp_path / f"want{i}", v.grid, want, traj.times[i])
        sha_got = write_band(tmp_path / f"got{i}", v.grid, traj.coeffs[i], traj.times[i])
        assert sha_got == sha_want
        assert traj.dissipation[i] == pytest.approx(acc, rel=1e-15, abs=0)


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
    v0 = SpectralVelocity(compact(g.band, transform_forward(u)), g)
    nu, t_final = 0.5, 0.01
    cfg = SolverConfig(viscosity=nu, dt=1e-3, t_final=t_final, snapshot_stride=5)
    traj = run(v0, cfg)
    k2 = float(sum(m * m for m in mode))
    e0 = 0.5 * coeff_l2_norm(g, v0.coeff) ** 2
    decay = np.exp(-2 * nu * k2 * t_final)
    e_final = 0.5 * coeff_l2_norm(g, traj.coeffs[-1]) ** 2
    assert e_final == pytest.approx(e0 * decay, rel=1e-12)
    assert traj.dissipation[-1] == pytest.approx(e0 * (1 - decay), rel=1e-6), plane
