import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from band_oracle import compact, expand
from norm_oracle import space_norm
from nsbl import solver
from nsbl.audit import LZ, FieldStats, check_energy
from nsbl.harness import BadScenario, Scenario, load_manifest, simulate, trajectory_from_manifest
from nsbl.spectral import (
    SpectralVelocity,
    TorusGrid,
    divergence_max,
    quadratic_products,
)
from nsbl.solver import (
    BadSpec,
    Instability,
    SolverConfig,
    make_initial,
    nonlinear_term,
    run,
    step,
)


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(16)


def coeff_norm(v):
    """The 2-norm of the field's full-layout coefficients (test oracle)."""
    return float(np.sqrt(np.sum(np.abs(expand(v.grid.band, v.coeff)) ** 2)))


def l2_norm(grid, coeff):
    """Spatial L2 norm of a field, from its full-layout coefficients."""
    return float(np.sqrt(grid.volume * np.sum(np.abs(expand(grid.band, coeff)) ** 2)))


def div_max(v):
    return divergence_max(v.coeff, v.grid.band.wavenumbers)


def full_wavenumbers(grid):
    """k (3, n, n, n) and 1/|k|^2 (zero mode 0) in the full layout (test oracle)."""
    m = 2 * np.pi / grid.length * grid.freqs.astype(np.float64)
    k = np.stack(np.meshgrid(m, m, m, indexing="ij"))
    k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    k2[0, 0, 0] = 1.0
    inv_k2 = 1.0 / k2
    inv_k2[0, 0, 0] = 0.0
    return k, inv_k2


def loop_half_space_modes(kmax):
    """The canonical mode of each conjugate pair, by a loop over the cube."""
    modes = []
    for mx in range(-kmax, kmax + 1):
        for my in range(-kmax, kmax + 1):
            for mz in range(-kmax, kmax + 1):
                m = (mx, my, mz)
                if m == (0, 0, 0) or mx * mx + my * my + mz * mz > kmax * kmax:
                    continue
                if m > tuple(-c for c in m):
                    modes.append(m)
    modes.sort()
    return modes


def full_layout_random_spectrum(grid, seed, amplitude, kmax):
    """make_initial("random_spectrum", ...) built in the full (3, n, n, n)
    layout: one draw per mode and the projection on the full layout, the
    sup from ``band.inverse`` of its band, then the band's projection;
    returns the band."""
    rng = np.random.default_rng(seed)
    n = grid.npts
    coeff = np.zeros((3, n, n, n), dtype=np.complex128)
    k0 = max(kmax / 2.5, 1.0)
    for m in loop_half_space_modes(kmax):
        draws = rng.normal(size=6)
        mag2 = m[0] ** 2 + m[1] ** 2 + m[2] ** 2
        amp = np.sqrt(mag2**2 * np.exp(-2.0 * mag2 / k0**2))
        vec = amp * (draws[0::2] + 1j * draws[1::2])
        for comp in range(3):
            coeff[(comp,) + tuple(c % n for c in m)] = vec[comp]
            coeff[(comp,) + tuple(-c % n for c in m)] = np.conj(vec[comp])
    k, inv_k2 = full_wavenumbers(grid)
    project = lambda c, k, inv: c - k * ((k[0] * c[0] + k[1] * c[1] + k[2] * c[2]) * inv)[None]
    coeff = project(coeff, k, inv_k2)
    coeff[:, 0, 0, 0] = 0.0
    band = grid.band
    u = band.inverse(compact(band, coeff))
    sup = float(np.max(np.sqrt(np.sum(u**2, axis=0))))
    if sup > 0:
        coeff *= amplitude / sup
    coeff = project(compact(band, coeff), band.wavenumbers, band.inv_k_squared)
    coeff[:, 0, 0, 0] = 0.0
    return coeff


def analytic_oracle(kind, grid, amplitude):
    """make_initial's band of an analytic kind: the band of ``rfftn`` of
    the grid values, projected."""
    x, y, z = grid.mesh()
    a = amplitude
    if kind == "beltrami":
        u = np.stack([a * np.sin(z) + a * np.cos(y), a * np.sin(x) + a * np.cos(z),
                      a * np.sin(y) + a * np.cos(x)])
    else:
        u = np.stack([a * np.sin(x) * np.cos(y) * np.cos(z),
                      -a * np.cos(x) * np.sin(y) * np.cos(z), np.zeros_like(x)])
    band = grid.band
    coeff = compact(band, np.fft.rfftn(u, axes=(-3, -2, -1), norm="forward"))
    k, inv_k2 = band.wavenumbers, band.inv_k_squared
    coeff -= k * ((k[0] * coeff[0] + k[1] * coeff[1] + k[2] * coeff[2]) * inv_k2)[None]
    coeff[:, 0, 0, 0] = 0.0
    return coeff


class TestConfig:
    def test_non_integral_steps_rejected(self, grid):
        with pytest.raises(BadSpec):
            SolverConfig(dt=0.3, t_final=1.0).validate(grid)

    def test_bad_values(self, grid):
        with pytest.raises(BadSpec):
            SolverConfig(dt=-1e-3).validate(grid)
        with pytest.raises(BadSpec):
            SolverConfig(viscosity=0.0).validate(grid)
        # RK4 is the one time scheme; a scenario naming another is refused
        with pytest.raises(BadScenario, match="solver.scheme"):
            Scenario.from_dict({"name": "euler", "solver": {"scheme": "euler"}})

    def test_step_count(self, grid):
        assert SolverConfig(dt=1e-3, t_final=0.5).validate(grid) == 500


class TestInitialData:
    def test_beltrami_energy(self):
        g = TorusGrid(32)
        v = make_initial("beltrami", g, amplitude=1.0)
        l2sq = space_norm(v.magnitude(), 2.0, g) ** 2
        assert l2sq == pytest.approx(3 * (2 * np.pi) ** 3, rel=1e-12)

    @pytest.mark.parametrize("kind", ["beltrami", "taylor_green", "random_spectrum"])
    def test_divergence_free_real_mean_zero(self, grid, kind):
        v = make_initial(kind, grid, seed=1, amplitude=1.0, kmax=4)
        assert div_max(v) <= 1e-12 * max(1.0, coeff_norm(v))
        assert v.coeff.shape == (3,) + grid.band.shape
        u = np.fft.ifftn(expand(grid.band, v.coeff), axes=(1, 2, 3), norm="forward")
        assert np.abs(u.imag).max() <= 1e-13
        assert np.abs(v.coeff[:, 0, 0, 0]).max() == 0.0

    def test_random_spectrum_deterministic(self, grid):
        a = make_initial("random_spectrum", grid, seed=42, amplitude=1.0, kmax=4)
        b = make_initial("random_spectrum", grid, seed=42, amplitude=1.0, kmax=4)
        assert np.array_equal(a.coeff, b.coeff)

    def test_random_spectrum_amplitude_is_sup(self, grid):
        v = make_initial("random_spectrum", grid, seed=3, amplitude=2.5, kmax=4)
        assert v.magnitude().max() == pytest.approx(2.5)

    def test_bad_kind(self, grid):
        with pytest.raises(BadSpec):
            make_initial("vortex_sheet", grid)

    def test_kmax_must_fit(self, grid):
        with pytest.raises(BadSpec):
            make_initial("random_spectrum", grid, kmax=8)

    @pytest.mark.parametrize("kmax", range(1, 9))
    def test_half_space_modes_match_the_loop(self, kmax):
        modes = solver._half_space_modes(kmax)
        assert modes.shape[1] == 3
        assert [tuple(m) for m in modes.tolist()] == loop_half_space_modes(kmax)

    @pytest.mark.parametrize("n", [16, 24, 32, 48])
    def test_random_spectrum_matches_the_full_layout_oracle(self, n):
        for seed in range(10):
            for kmax in (1, 2, 5, 8):
                if 3 * kmax > n:
                    continue
                want = full_layout_random_spectrum(TorusGrid(n), seed, 1.5, kmax)
                got = make_initial("random_spectrum", TorusGrid(n), seed=seed, amplitude=1.5,
                                   kmax=kmax).coeff
                assert got.tobytes() == want.tobytes(), (seed, kmax)

    @pytest.mark.parametrize("kind", ["beltrami", "taylor_green"])
    @pytest.mark.parametrize("n", [16, 24, 48])
    def test_analytic_kinds_match_the_full_layout_oracle(self, n, kind):
        grid = TorusGrid(n)
        want = analytic_oracle(kind, grid, 1.5)
        got = make_initial(kind, grid, amplitude=1.5).coeff
        assert got.tobytes() == want.tobytes()

    def test_random_spectrum_builds_no_full_layout_operators(self):
        # the grid has no full-layout operators left to build
        g = TorusGrid(24)
        make_initial("random_spectrum", g, seed=2, amplitude=1.0, kmax=8)
        assert not any(hasattr(g, name) for name in ("wavenumbers", "k_squared", "inv_k_squared"))

    def test_grid_independence(self):
        # same seed and kmax on different grids sample the same continuum
        # field up to one uniform factor from the sup normalization, which
        # cancels in every scale-invariant ratio
        va = make_initial("random_spectrum", TorusGrid(24), seed=5, amplitude=1.0, kmax=4)
        vb = make_initial("random_spectrum", TorusGrid(32), seed=5, amplitude=1.0, kmax=4)
        # the mode (-2, -1, 1), the band's half of the pair at (2, 1, -1)
        ca = va.coeff[:, -2, -1, 1]
        cb = vb.coeff[:, -2, -1, 1]
        ratios = ca / cb
        assert np.allclose(ratios, ratios[0], rtol=1e-12)
        assert abs(ratios[0].imag) < 1e-12
        assert abs(ratios[0].real - 1.0) < 1e-2


class TestNonlinearTerm:
    def test_zero(self, grid):
        v = SpectralVelocity(np.zeros((3,) + grid.band.shape, dtype=complex), grid)
        assert np.abs(nonlinear_term(v).coeff).max() == 0.0

    def test_beltrami_pure_gradient(self):
        g = TorusGrid(32)
        v = make_initial("beltrami", g, amplitude=1.0)
        out = nonlinear_term(v)
        assert np.abs(out.coeff).max() <= 1e-10 * coeff_norm(v) ** 2

    def test_single_mode_support(self, grid):
        # one conjugate mode pair at k0: the tendency lives on {0, +-2 k0};
        # band row -m holds the mode -m
        rows = grid.band.shape[0]
        c = np.zeros((3,) + grid.band.shape, dtype=complex)
        c[1, 1, 0, 0] = 0.5
        c[1, -1, 0, 0] = 0.5
        v = SpectralVelocity(c, grid)
        out = nonlinear_term(v).coeff
        hot = np.argwhere(np.abs(out) > 1e-14 * max(1.0, np.abs(out).max()))
        allowed = {(0, 0, 0), (2, 0, 0), (rows - 2, 0, 0)}
        assert {tuple(ix[1:]) for ix in hot} <= allowed


@pytest.mark.parametrize("n", [
    16,
    pytest.param(24, marks=pytest.mark.xfail(
        strict=True, reason="n = 3c: the product mode 2c aliases onto -c, which the band keeps")),
    32,
    pytest.param(48, marks=pytest.mark.xfail(
        strict=True, reason="n = 3c: the product mode 2c aliases onto -c, which the band keeps")),
])
def test_band_is_alias_free(n):
    # arbitrary band data of a real field: its nonlinear term on the kept
    # modes must equal the same field's on a 3n/2 grid, where no product
    # of two band modes (|m_i| <= 2c < 3n/2 - c) aliases onto a kept mode
    c, big = n // 3, 3 * n // 2
    rng = np.random.default_rng(n)
    coarse, fine_grid = TorusGrid(n), TorusGrid(big)
    values = rng.normal(size=(3, n, n, n))
    coeff = compact(coarse.band, np.fft.fftn(values, axes=(-3, -2, -1), norm="forward"))
    # the kept modes at their band indices on either grid: row m mod rows,
    # k_z planes 0..c
    modes, planes = np.arange(-c, c + 1), np.arange(c + 1)
    at = lambda g: np.ix_(range(3), modes % g.band.shape[0], modes % g.band.shape[0], planes)
    fine = np.zeros((3,) + fine_grid.band.shape, dtype=complex)
    fine[at(fine_grid)] = coeff[at(coarse)]
    got = nonlinear_term(SpectralVelocity(coeff, coarse)).coeff[at(coarse)]
    want = nonlinear_term(SpectralVelocity(fine, fine_grid)).coeff[at(fine_grid)]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def galerkin_transfers(v):
    """|T_E| / (|u| |N|) and |T_H| / (|omega| |N|) of N = nonlinear_term(v):
    the energy and helicity the truncated nonlinear term moves, which an
    alias-free band keeps at round-off."""
    band = v.grid.band
    u, nl = v.coeff, nonlinear_term(v).coeff
    omega = 1j * np.cross(band.wavenumbers, u, axis=0)
    inner = lambda a, b: float(np.sum(band.weights * (np.conj(a) * b).real))
    norm = lambda a: np.sqrt(band.sum_squares(a))
    return (abs(inner(u, nl)) / (norm(u) * norm(nl)),
            abs(inner(omega, nl)) / (norm(omega) * norm(nl)))


@pytest.mark.parametrize("n", [
    pytest.param(24, marks=pytest.mark.xfail(
        strict=True, reason="n = 3c aliases the product mode 2c onto -c (ROADMAP item 3)")),
    32,
])
def test_nonlinear_term_moves_no_energy_or_helicity(n):
    # a suite member's flow (random_spectrum seed 0, amplitude 2, kmax 8)
    # over 25 RK4 steps: every state's nonlinear term conserves both invariants
    g = TorusGrid(n)
    cfg = SolverConfig(viscosity=1.0, dt=2e-3, t_final=0.05, snapshot_stride=1)
    traj = run(make_initial("random_spectrum", g, seed=0, amplitude=2.0, kmax=8), cfg)
    transfers = np.array([galerkin_transfers(SpectralVelocity(c, g)) for c in traj.coeffs])
    assert len(traj.coeffs) == 26
    energy, helicity = transfers.max(axis=0)
    assert energy <= 1e-13 and helicity <= 1e-13, (energy, helicity)


class TestStep:
    def test_zero_fixed_point(self, grid):
        v = SpectralVelocity(np.zeros((3,) + grid.band.shape, dtype=complex), grid)
        out = step(v, SolverConfig(dt=1e-2))
        assert np.abs(out.coeff).max() == 0.0

    def test_beltrami_exact_viscous_decay(self):
        # |k|^2 = 1 modes with vanishing advection: one step is exp(-nu dt)
        g = TorusGrid(32)
        v = make_initial("beltrami", g, amplitude=1.0)
        cfg = SolverConfig(viscosity=1.0, dt=0.05)
        out = step(v, cfg)
        expected = np.exp(-0.05)
        ratio = out.magnitude().max() / v.magnitude().max()
        assert ratio == pytest.approx(expected, rel=1e-10)

    def test_energy_never_increases(self, grid):
        v = make_initial("random_spectrum", grid, seed=7, amplitude=1.0, kmax=4)
        cfg = SolverConfig(viscosity=1.0, dt=1e-3)
        e = l2_norm(grid, v.coeff) ** 2
        for _ in range(20):
            v = step(v, cfg)
            e_next = l2_norm(grid, v.coeff) ** 2
            assert e_next <= e * (1 + 1e-8)
            e = e_next

    def test_divergence_and_symmetry_preserved(self, grid):
        v = make_initial("random_spectrum", grid, seed=8, amplitude=1.0, kmax=4)
        cfg = SolverConfig(viscosity=1.0, dt=1e-3)
        for _ in range(10):
            v = step(v, cfg)
        assert div_max(v) <= 1e-12 * max(1.0, coeff_norm(v))
        assert v.coeff.shape == (3,) + grid.band.shape
        # still a real field: its k_z = 0 plane is conjugate-symmetric
        u = np.fft.ifftn(expand(grid.band, v.coeff), axes=(1, 2, 3), norm="forward")
        assert np.abs(u.imag).max() <= 1e-13

    def test_blowup_flagged(self, grid):
        v = make_initial("random_spectrum", grid, seed=9, amplitude=200.0, kmax=4)
        cfg = SolverConfig(viscosity=1e-4, dt=0.5)
        with pytest.raises(Instability) as exc:
            u = v
            for _ in range(50):
                u = step(u, cfg)
        assert exc.value.time > 0


class TestRun:
    def test_t_zero_single_snapshot(self, grid):
        v = make_initial("beltrami", grid)
        traj = run(v, SolverConfig(dt=1e-3, t_final=0.0))
        assert len(traj) == 1
        assert traj.times == [0.0]
        assert np.array_equal(traj.coeffs[0], v.coeff)
        assert not np.shares_memory(traj.coeffs[0], v.coeff)

    def test_beltrami_decay_short(self):
        g = TorusGrid(32)
        v = make_initial("beltrami", g, amplitude=1.0)
        cfg = SolverConfig(viscosity=1.0, dt=1e-3, t_final=0.1, snapshot_stride=25)
        traj = run(v, cfg)
        final = SpectralVelocity(traj.coeffs[-1], g, traj.times[-1])
        decay = np.exp(-0.1)
        lz = 5.0 / 3.0
        for ell in (2.0, 2 * lz, np.inf):
            ratio = space_norm(final.magnitude(), ell, g) / space_norm(v.magnitude(), ell, g)
            assert ratio == pytest.approx(decay, rel=1e-6), f"norm {ell}"
        for c in traj.coeffs:
            assert divergence_max(c, g.band.wavenumbers) <= 1e-10

    def test_snapshots_include_first_and_last(self, grid):
        v = make_initial("random_spectrum", grid, seed=1, amplitude=0.5, kmax=4)
        traj = run(v, SolverConfig(dt=1e-2, t_final=0.05, snapshot_stride=2))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.05)

    def test_energy_identity_and_dt_scaling(self, grid):
        v0 = make_initial("random_spectrum", grid, seed=1, amplitude=1.0, kmax=4)

        def residual(dt):
            cfg = SolverConfig(viscosity=1.0, dt=dt, t_final=0.2, snapshot_stride=5)
            traj = run(v0, cfg)
            e0 = 0.5 * l2_norm(grid, traj.coeffs[0]) ** 2
            return max(
                abs(0.5 * l2_norm(grid, traj.coeffs[i]) ** 2 + traj.dissipation[i] - e0)
                / e0
                for i in range(len(traj))
            )

        coarse, fine = residual(0.02), residual(0.01)
        assert coarse / fine >= 8.0
        assert residual(0.005) <= 1e-5

    def test_deterministic(self, grid):
        v = make_initial("random_spectrum", grid, seed=2, amplitude=1.0, kmax=4)
        t1 = run(v, SolverConfig(dt=1e-2, t_final=0.05, snapshot_stride=1))
        t2 = run(v, SolverConfig(dt=1e-2, t_final=0.05, snapshot_stride=1))
        for a, b in zip(t1.coeffs, t2.coeffs):
            assert np.array_equal(a, b)



def runs_on_any_worker_count_and_thread(set_workers, n):
    """Runs of one field in 1, 2 and 3 slabs, then inline in a thread that
    is not the main one."""
    v = make_initial("random_spectrum", TorusGrid(n), seed=4, amplitude=2.0, kmax=8)
    cfg = SolverConfig(viscosity=1.0, dt=2e-3, t_final=8e-3, snapshot_stride=2)
    runs = []
    for workers in (1, 2, 3):
        set_workers(workers)
        runs.append(run(v, cfg))
    with ThreadPoolExecutor(1) as outer:
        runs.append(outer.submit(run, v, cfg).result(timeout=120))
    want = runs[0]
    for got in runs[1:]:
        assert [c.tobytes() for c in got.coeffs] == [c.tobytes() for c in want.coeffs]
        assert np.array(got.dissipation).tobytes() == np.array(want.dissipation).tobytes()


class TestSlabKernel:
    def test_run_bit_identical_for_any_worker_count_and_thread(self, snapshot_workers):
        # x = 32 rows in 1, 2 and 3 slabs (3 does not divide 32)
        runs_on_any_worker_count_and_thread(snapshot_workers, 32)

    # the ids name the time scheme, RK4
    @pytest.mark.parametrize("n", [24, 48], ids=["24-rk4", "48-rk4"])
    def test_run_bit_identical_on_other_grids_and_rk2(self, snapshot_workers, n):
        runs_on_any_worker_count_and_thread(snapshot_workers, n)

    @pytest.mark.parametrize("cfg", [
        SolverConfig(viscosity=0.7, dt=5e-3, t_final=0.05, snapshot_stride=2)], ids=["rk4"])
    def test_dissipation_pinned_to_per_call_weights(self, grid, monkeypatch, cfg):
        # the weights band.weights * band.k_squared, built once per band,
        # give the dissipation the old per-call product gave, bit for bit
        def per_call(coeff, band, nu, power):
            weighted = band.weights * band.k_squared
            power = coeff.real**2 + coeff.imag**2
            return nu * band.volume * float(np.sum(weighted * power))

        v = make_initial("random_spectrum", grid, seed=3, amplitude=1.0, kmax=4)
        got = run(v, cfg)
        monkeypatch.setattr(solver, "_dissipation_rate", per_call)
        want = run(v, cfg)
        assert np.array(got.dissipation).tobytes() == np.array(want.dissipation).tobytes()
        assert [c.tobytes() for c in got.coeffs] == [c.tobytes() for c in want.coeffs]


def per_call_run(v, cfg):
    """(states, dissipation) of ``run`` by its formulas with a new array for
    every stage and temporary, as numpy evaluates them."""
    band, nu, dt = v.grid.band, cfg.viscosity, cfg.dt
    k, inv_k2 = band.wavenumbers, band.inv_k_squared
    e_half = np.exp(-nu * band.k_squared * dt / 2)
    e_full = e_half * e_half

    def nl(c):
        w = quadratic_products(c, band)
        div = np.stack([
            k[0] * w[0] + k[1] * w[1] + k[2] * w[2],
            k[0] * w[1] + k[1] * w[3] + k[2] * w[4],
            k[0] * w[2] + k[1] * w[4] + k[2] * w[5],
        ])
        kdotv = (k[0] * div[0] + k[1] * div[1] + k[2] * div[2]) * inv_k2
        return -1j * (div - k * kdotv[None])

    def diss(c):
        power = c.real**2 + c.imag**2
        return nu * band.volume * float(np.sum(band.weighted_k_squared * power))

    # the first state a C-order copy, as run takes it
    coeff = v.coeff.copy()
    states, acc, dissipation = [coeff], 0.0, [0.0]
    for _ in range(cfg.validate(v.grid)):
        k1 = nl(coeff)
        a = e_half * (coeff + (dt / 2) * k1)
        k2 = nl(a)
        b = e_half * coeff + (dt / 2) * k2
        k3 = nl(b)
        c = e_full * coeff + dt * e_half * k3
        k4 = nl(c)
        new = e_full * coeff + (dt / 6) * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)
        dd = (dt / 6) * (diss(coeff) + 2 * diss(a) + 2 * diss(b) + diss(c))
        coeff = new
        acc += dd
        states.append(coeff)
        dissipation.append(acc)
    return states, dissipation


class TestWorkspace:
    @pytest.mark.parametrize("n", [24, 32, 48], ids=["24-rk4", "32-rk4", "48-rk4"])
    def test_run_matches_per_call_temporaries(self, n):
        # states and dissipation bit for bit
        v = make_initial("random_spectrum", TorusGrid(n), seed=6, amplitude=2.0, kmax=8)
        cfg = SolverConfig(viscosity=1.0, dt=2e-3, t_final=6e-3, snapshot_stride=1)
        traj = run(v, cfg)
        states, dissipation = per_call_run(v, cfg)
        assert [c.tobytes() for c in traj.coeffs] == [c.tobytes() for c in states]
        assert np.array(traj.dissipation).tobytes() == np.array(dissipation).tobytes()

    def test_steps_after_the_first_allocate_only_their_states(self, monkeypatch):
        v = make_initial("random_spectrum", TorusGrid(32), seed=2, amplitude=2.0, kmax=8)
        cfg = SolverConfig(viscosity=1.0, dt=2e-3, t_final=12e-3, snapshot_stride=1)
        step_fields, states = solver._step_fields, []

        def traced(*args):
            if len(states) == 1:
                tracemalloc.start()
            new, dd = step_fields(*args)
            states.append(new)
            return new, dd

        monkeypatch.setattr(solver, "_step_fields", traced)
        try:
            run(v, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # every state is kept as a snapshot; beyond them only small objects
        assert peak <= (len(states) - 1) * states[0].nbytes + 64 * 1024


@pytest.fixture(scope="module")
def run_and_reload(request, tmp_path_factory):
    """One run held in memory, and the same run simulated to checkpoints
    and read back; 24^3 and 32^3 states lie below numpy's 256 KiB
    temporary-elision threshold, 48^3 states above it."""
    n = request.param
    cfg = SolverConfig(viscosity=1.0, dt=2e-3, t_final=0.02, snapshot_stride=2)
    initial = {"kind": "random_spectrum", "seed": 3, "amplitude": 2.0, "kmax": 7}
    scenario = Scenario(name=f"order{n}", grid_npts=n, solver=cfg, initial=initial)
    grid = scenario.grid()
    traj = run(make_initial("random_spectrum", grid, seed=3, amplitude=2.0, kmax=7), cfg)
    manifest, _ = simulate(scenario, tmp_path_factory.mktemp(f"order{n}"))
    return traj, trajectory_from_manifest(load_manifest(manifest), manifest.parent, scenario)


def transposed_copy(band):
    """A copy of band data (ncomp, rows, rows, planes) with the component
    axis inside the two row axes in memory, as ``band_oracle.compact``
    lays out its result."""
    ncomp, rows, _, planes = band.shape
    out = np.empty((rows, rows, ncomp, planes), dtype=band.dtype).transpose(2, 0, 1, 3)
    out[...] = band
    return out


class TestMemoryOrder:
    """A run's states and every band read back are in C order, and the band
    sums give the same bits whatever the memory order of their input."""

    @pytest.mark.parametrize("run_and_reload", [24, 32, 48], indirect=True)
    def test_states_and_reads_in_their_pinned_order(self, run_and_reload):
        traj, back = run_and_reload
        assert all(c.flags.c_contiguous for c in traj.coeffs)
        assert all(c.flags.c_contiguous and c.flags.writeable for c in back.coeffs)
        assert [c.tobytes() for c in back.coeffs] == [c.tobytes() for c in traj.coeffs]
        assert back.dissipation == traj.dissipation

    @pytest.mark.parametrize("run_and_reload", [24, 32, 48], indirect=True)
    def test_check_energy_same_in_memory_and_reloaded(self, run_and_reload):
        traj, back = run_and_reload
        energy = [check_energy(FieldStats.measure(t, (), 0, (2 * LZ,))).as_dict()
                  for t in (traj, back)]
        assert energy[0] == energy[1]

    @pytest.mark.parametrize("n", [24, 32, 48])
    def test_band_sums_ignore_memory_order(self, n):
        grid = TorusGrid(n)
        band = grid.band
        cfg = SolverConfig(viscosity=0.7, dt=2e-3, t_final=2e-3)
        power = solver._Workspace(band, cfg).power
        rng = np.random.default_rng(n)
        for _ in range(4):
            coeff = (rng.normal(size=(3,) + band.shape)
                     + 1j * rng.normal(size=(3,) + band.shape))
            copies = (coeff, transposed_copy(coeff), np.asfortranarray(coeff))
            assert not copies[1].flags.c_contiguous and not copies[2].flags.c_contiguous
            sums = {band.sum_squares(c) for c in copies}
            rates = {solver._dissipation_rate(c, band, cfg.viscosity, power) for c in copies}
            assert len(sums) == 1 and len(rates) == 1
