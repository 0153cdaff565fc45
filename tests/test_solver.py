import numpy as np
import pytest

from nsbl.audit import check_energy
from nsbl.norms import space_norm
from nsbl.spectral import SpectralVelocity, TorusGrid
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
    return float(np.sqrt(np.sum(np.abs(v.coeff) ** 2)))


def l2_norm(v):
    """Spatial L2 norm of a full-layout field, from its coefficients."""
    return float(np.sqrt(v.grid.volume * np.sum(np.abs(v.coeff) ** 2)))


class TestConfig:
    def test_non_integral_steps_rejected(self, grid):
        with pytest.raises(BadSpec):
            SolverConfig(dt=0.3, t_final=1.0).validate(grid)

    def test_bad_values(self, grid):
        with pytest.raises(BadSpec):
            SolverConfig(dt=-1e-3).validate(grid)
        with pytest.raises(BadSpec):
            SolverConfig(viscosity=0.0).validate(grid)
        with pytest.raises(BadSpec):
            SolverConfig(scheme="euler").validate(grid)

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
        assert v.divergence_max() <= 1e-12 * max(1.0, coeff_norm(v))
        band = grid.band
        assert np.array_equal(band.expand(band.compact(v.coeff)), v.coeff)
        u = np.fft.ifftn(v.coeff, axes=(1, 2, 3), norm="forward")
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

    def test_grid_independence(self):
        # same seed and kmax on different grids sample the same continuum
        # field up to one uniform factor from the sup normalization, which
        # cancels in every scale-invariant ratio
        va = make_initial("random_spectrum", TorusGrid(24), seed=5, amplitude=1.0, kmax=4)
        vb = make_initial("random_spectrum", TorusGrid(32), seed=5, amplitude=1.0, kmax=4)
        ca = va.coeff[:, 2, 1, -1]
        cb = vb.coeff[:, 2, 1, -1]
        ratios = ca / cb
        assert np.allclose(ratios, ratios[0], rtol=1e-12)
        assert abs(ratios[0].imag) < 1e-12
        assert abs(ratios[0].real - 1.0) < 1e-2


class TestNonlinearTerm:
    def test_zero(self, grid):
        v = SpectralVelocity(np.zeros((3, 16, 16, 16), dtype=complex), grid)
        assert np.abs(nonlinear_term(v).coeff).max() == 0.0

    def test_beltrami_pure_gradient(self):
        g = TorusGrid(32)
        v = make_initial("beltrami", g, amplitude=1.0)
        out = nonlinear_term(v)
        assert np.abs(out.coeff).max() <= 1e-10 * coeff_norm(v) ** 2

    def test_single_mode_support(self, grid):
        # one conjugate mode pair at k0: the tendency lives on {0, +-2 k0}
        c = np.zeros((3, 16, 16, 16), dtype=complex)
        c[1, 1, 0, 0] = 0.5
        c[1, -1, 0, 0] = 0.5
        v = SpectralVelocity(c, grid)
        out = nonlinear_term(v).coeff
        hot = np.argwhere(np.abs(out) > 1e-14 * max(1.0, np.abs(out).max()))
        allowed = {(0, 0, 0), (2, 0, 0), (16 - 2, 0, 0)}
        assert {tuple(ix[1:]) for ix in hot} <= allowed


class TestStep:
    def test_zero_fixed_point(self, grid):
        v = SpectralVelocity(np.zeros((3, 16, 16, 16), dtype=complex), grid)
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
        e = l2_norm(v) ** 2
        for _ in range(20):
            v = step(v, cfg)
            e_next = l2_norm(v) ** 2
            assert e_next <= e * (1 + 1e-8)
            e = e_next

    def test_divergence_and_symmetry_preserved(self, grid):
        v = make_initial("random_spectrum", grid, seed=8, amplitude=1.0, kmax=4)
        cfg = SolverConfig(viscosity=1.0, dt=1e-3)
        for _ in range(10):
            v = step(v, cfg)
        assert v.divergence_max() <= 1e-12 * max(1.0, coeff_norm(v))
        band = grid.band
        assert np.array_equal(band.expand(band.compact(v.coeff)), v.coeff)

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
        assert np.array_equal(traj.coeffs[0], grid.band.compact(v.coeff))
        assert np.array_equal(traj.velocity(0).coeff, v.coeff)

    def test_beltrami_decay_short(self):
        g = TorusGrid(32)
        v = make_initial("beltrami", g, amplitude=1.0)
        cfg = SolverConfig(viscosity=1.0, dt=1e-3, t_final=0.1, snapshot_stride=25)
        traj = run(v, cfg)
        final = traj.velocity(len(traj) - 1)
        decay = np.exp(-0.1)
        lz = 5.0 / 3.0
        for ell in (2.0, 2 * lz, np.inf):
            ratio = space_norm(final.magnitude(), ell, g) / space_norm(v.magnitude(), ell, g)
            assert ratio == pytest.approx(decay, rel=1e-6), f"norm {ell}"
        for i in range(len(traj)):
            assert traj.velocity(i).divergence_max() <= 1e-10

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
            e0 = 0.5 * l2_norm(traj.velocity(0)) ** 2
            return max(
                abs(0.5 * l2_norm(traj.velocity(i)) ** 2 + traj.dissipation[i] - e0)
                / e0
                for i in range(len(traj))
            )

        coarse, fine = residual(0.02), residual(0.01)
        assert coarse / fine >= 8.0
        assert residual(0.005) <= 1e-5

    def test_rk2_is_second_order(self, grid):
        # criterion 06's field: each halving of dt cuts the energy residual
        # about 4x (1.48e-3, 3.70e-4, 9.25e-5)
        v0 = make_initial("random_spectrum", grid, seed=1, amplitude=1.0, kmax=4)
        residuals = [
            check_energy(run(v0, SolverConfig(viscosity=1.0, dt=dt, t_final=0.2,
                                              snapshot_stride=1, scheme="rk2"))).lhs
            for dt in (0.02, 0.01, 0.005)
        ]
        assert residuals[0] / residuals[1] >= 3.5
        assert residuals[1] / residuals[2] >= 3.5

    def test_deterministic(self, grid):
        v = make_initial("random_spectrum", grid, seed=2, amplitude=1.0, kmax=4)
        t1 = run(v, SolverConfig(dt=1e-2, t_final=0.05, snapshot_stride=1))
        t2 = run(v, SolverConfig(dt=1e-2, t_final=0.05, snapshot_stride=1))
        for a, b in zip(t1.coeffs, t2.coeffs):
            assert np.array_equal(a, b)

