"""The half-spectrum solver kernels against full-layout reference algorithms.

The oracles below are the complex full-spectrum algorithms the solver and
``cz_pressure`` used before they moved to the real-FFT half spectrum.  The
arithmetic order differs, so results agree to roundoff, not bit for bit.
"""

import numpy as np
import pytest

from nsbl.norms import spectral_l2_norm
from nsbl.solver import SolverConfig, make_initial, nonlinear_term, run, step
from nsbl.spectral import (
    SpectralVelocity,
    TorusGrid,
    cz_pressure,
    transform_forward,
    transform_inverse,
)

RTOL = 1e-13


def oracle_project(coeff, grid):
    k = grid.wavenumbers
    kdotv = (k[0] * coeff[0] + k[1] * coeff[1] + k[2] * coeff[2]) * grid.inv_k_squared
    return coeff - k * kdotv[None]


def oracle_nonlinear(coeff, grid, dealias):
    u = transform_inverse(coeff, grid)
    k = grid.wavenumbers
    out = np.zeros_like(coeff)
    for i in range(3):
        for j in range(i, 3):
            w = transform_forward(u[i] * u[j], grid)
            if dealias:
                w = w * grid.dealias_mask
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
            w = transform_forward(u[i] * u[j], grid) * grid.dealias_mask
            factor = 1.0 if i == j else 2.0
            p_hat -= factor * (m_sigma**2) * k[i] * k[j] * grid.inv_k_squared * w
    p_hat[0, 0, 0] = 0.0
    return transform_inverse(p_hat, grid)


def oracle_rk4_step(coeff, grid, cfg):
    nu, dt = cfg.viscosity, cfg.dt
    e_half = np.exp(-nu * grid.k_squared * dt / 2)
    e_full = e_half * e_half
    nl = lambda c: oracle_nonlinear(c, grid, cfg.dealias)
    k1 = nl(coeff)
    a = e_half * (coeff + (dt / 2) * k1)
    k2 = nl(a)
    b = e_half * coeff + (dt / 2) * k2
    k3 = nl(b)
    c = e_full * coeff + dt * e_half * k3
    k4 = nl(c)
    return e_full * coeff + (dt / 6) * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)


def rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def field(n, seed=3):
    # kmax at the top of the dealias band, so that without the mask the
    # quadratic products reach the Nyquist planes
    return make_initial("random_spectrum", TorusGrid(n), seed=seed, amplitude=2.0, kmax=n // 3)


@pytest.mark.parametrize("n", [16, 24, 48])
def test_half_operators_are_full_layout_slices(n):
    g = TorusGrid(n)
    m = n // 2 + 1
    assert np.array_equal(g.half_wavenumbers, g.wavenumbers[..., :m])
    assert np.array_equal(g.half_k_squared, g.k_squared[..., :m])
    assert np.array_equal(g.half_inv_k_squared, g.inv_k_squared[..., :m])
    assert np.array_equal(g.half_dealias_mask, g.dealias_mask[..., :m])
    assert g.half_weights.tolist() == [1.0] + [2.0] * (n // 2 - 1) + [1.0]


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("n", [16, 24, 48])
def test_nonlinear_matches_full_oracle(n, dealias):
    v = field(n)
    got = nonlinear_term(v, dealias=dealias).coeff
    want = oracle_nonlinear(v.coeff, v.grid, dealias)
    m = n // 2 + 1
    assert rel_err(got[..., :m], want[..., :m]) <= RTOL
    # Without the mask, -i k_N on a Nyquist index has no conjugate partner,
    # so neither result is Hermitian on the Nyquist lines and the mirrored
    # half need not match the oracle there.
    if dealias:
        assert rel_err(got, want) <= RTOL
        assert nonlinear_term(v).hermitian_error() <= 1e-12 * np.abs(got).max()


@pytest.mark.parametrize("n", [16, 24, 48])
def test_cz_pressure_matches_full_oracle(n):
    v = field(n)
    got = cz_pressure(v, m_sigma=1.7).values
    assert rel_err(got, oracle_cz_pressure(v, 1.7)) <= RTOL


@pytest.mark.parametrize("n", [16, 24])
def test_step_matches_full_oracle(n):
    v = field(n)
    cfg = SolverConfig(viscosity=1.0, dt=2e-3)
    got = step(v, cfg)
    assert rel_err(got.coeff, oracle_rk4_step(v.coeff, v.grid, cfg)) <= RTOL
    assert got.hermitian_error() <= 1e-12


def test_run_snapshots_hermitian():
    v = field(16, seed=5)
    traj = run(v, SolverConfig(viscosity=1.0, dt=2e-3, t_final=0.02, snapshot_stride=3))
    for i in range(len(traj)):
        assert traj.velocity(i).hermitian_error() <= 1e-12


@pytest.mark.parametrize("plane,mode", [
    ("k_z = 0", (0, 1, 0)),
    ("interior", (0, 0, 3)),
    ("Nyquist", (0, 0, 8)),
])
def test_dissipation_weights_per_plane(plane, mode):
    # u_x = cos(k.x) with k.e_x = 0 is a steady Euler shear flow: its
    # advection vanishes, so all the energy lost is viscous dissipation.
    # A wrong k_z-plane weight doubles or halves the accumulated integral.
    g = TorusGrid(16)
    x = g.mesh()
    phase = sum(m * xi for m, xi in zip(mode, x))
    u = np.stack([np.cos(phase), np.zeros_like(phase), np.zeros_like(phase)])
    v0 = SpectralVelocity(transform_forward(u, g), g)
    nu, t_final = 0.5, 0.01
    cfg = SolverConfig(viscosity=nu, dt=1e-3, t_final=t_final, snapshot_stride=5, dealias=False)
    traj = run(v0, cfg)
    k2 = float(sum(m * m for m in mode))
    e0 = 0.5 * spectral_l2_norm(v0) ** 2
    decay = np.exp(-2 * nu * k2 * t_final)
    e_final = 0.5 * spectral_l2_norm(traj.velocity(len(traj) - 1)) ** 2
    assert e_final == pytest.approx(e0 * decay, rel=1e-12)
    assert traj.dissipation[-1] == pytest.approx(e0 * (1 - decay), rel=1e-6), plane
