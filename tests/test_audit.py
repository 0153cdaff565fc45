import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

import norm_oracle as oracle
from band_oracle import compact, expand
from nsbl import audit as A
from nsbl import cli
from nsbl.harness import Scenario, canonical_json, simulate
from nsbl.ledger import ExponentParams
from nsbl.norms import INF, PowerTable, UnmeasuredExponent, time_weights
from nsbl.solver import SolverConfig, Trajectory, make_initial, run
from nsbl.spectral import (
    NotDivergenceFree,
    ShapeMismatch,
    SpectralBand,
    SpectralVelocity,
    TorusGrid,
    cz_pressure,
    over_snapshots,
)


PARAMS = ExponentParams.derive(3, 10, 10, F(6, 5), F(1, 2), j=4, r=12)


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(16)


@pytest.fixture(scope="module")
def beltrami_traj():
    g = TorusGrid(32)
    v0 = make_initial("beltrami", g, amplitude=1.0)
    return run(v0, SolverConfig(viscosity=1.0, dt=2e-3, t_final=0.1, snapshot_stride=10))


@pytest.fixture(scope="module")
def random_traj():
    g = TorusGrid(32)
    v0 = make_initial("random_spectrum", g, seed=0, amplitude=2.0, kmax=8)
    return run(v0, SolverConfig(viscosity=1.0, dt=2e-3, t_final=0.2, snapshot_stride=10))


def constant_trajectory(grid, value=2.0, times=(0.0, 0.5, 1.0)):
    """Field with |u| = value everywhere at every time (pure mean mode)."""
    coeff = np.zeros((3, grid.npts, grid.npts, grid.npts), dtype=complex)
    coeff[0, 0, 0, 0] = value
    cfg = SolverConfig(dt=times[1] - times[0] if len(times) > 1 else 1e-3,
                       t_final=times[-1], snapshot_stride=1)
    return Trajectory(grid, cfg, list(times), [compact(grid.band, coeff) for _ in times],
                      [0.0 for _ in times])


def measured(traj, s_values=(), sigma=0, r=None, ells=None):
    """The audit's one pass over traj, with pressure ratios at s_values,
    M_sigma = (sup |u0|)^sigma, and every norm an audit at r (default the
    ledger's) and ells reads."""
    exponents = A.audit_exponents(PARAMS, A.AuditSpec(r=r, ell_values=ells))
    return A.FieldStats.measure(traj, s_values, sigma, *exponents)


def psi_tilde_oracle(sp, stats):
    """The scaled field (|u| / M_sigma)^2 / A_r as one stack, checked bit for
    bit against the sorted snapshots the audit reads it from."""
    want = (stats.mags / stats.m_sigma) ** 2 / sp.a_r
    assert np.array_equal(np.sort(want.reshape(len(want), -1), axis=1), sp.sorted_tilde)
    return want


def zero_trajectory(grid):
    coeff = np.zeros((3, grid.npts, grid.npts, grid.npts), dtype=complex)
    cfg = SolverConfig(dt=1e-3, t_final=0.0, snapshot_stride=1)
    return Trajectory(grid, cfg, [0.0], [compact(grid.band, coeff)], [0.0])


class TestScaledPsi:
    def test_zero_field_degenerate(self, grid):
        with pytest.raises(A.DegenerateField):
            A.build_scaled_psi(measured(zero_trajectory(grid), r=2.0), 2.0)

    def test_normalization_drift_raises(self, grid):
        # a typed error, not an assert, so it survives python -O; the sort
        # re-measures the scaled field, so a wrong a_r cannot pass unseen
        stats = measured(constant_trajectory(grid), r=2.0)
        sp = A.build_scaled_psi(stats, 2.0)
        sp.a_r *= 1.5
        with pytest.raises(A.DegenerateField, match="normalization drifted"):
            sp.sorted_tilde
        assert A.build_scaled_psi(stats, 2.0).sorted_tilde.shape == (3, grid.npts**3)

    def test_constant_field_closed_form(self, grid):
        c = 2.0
        stats = measured(constant_trajectory(grid, value=c), r=3.0)
        r = 3.0
        sp = A.build_scaled_psi(stats, r)
        qt_measure = grid.volume * 1.0
        assert sp.a_r == pytest.approx(c**2 * qt_measure ** (1 / r), rel=1e-12)
        assert np.allclose(psi_tilde_oracle(sp, stats), qt_measure ** (-1 / r), rtol=1e-12)

    def test_beltrami_unit_norm_requadrature(self, beltrami_traj):
        stats = measured(beltrami_traj, r=3.0)
        sp = A.build_scaled_psi(stats, 3.0)
        check = oracle.spacetime_norm(psi_tilde_oracle(sp, stats), 3.0, beltrami_traj.grid,
                                      beltrami_traj.times)
        assert abs(check - 1.0) <= 1e-6


class TestLadder:
    def test_levels(self, grid):
        sp = A.build_scaled_psi(measured(constant_trajectory(grid, value=1.0), r=2.0), 2.0)
        lad = A.build_ladder(sp, 8.0, 3, enforce_threshold=False)
        assert lad.levels == [4.0, 6.0, 7.0, 7.5]

    def test_bounded_field_all_zero(self, grid):
        stats = measured(constant_trajectory(grid, value=1.0), r=2.0)
        sp = A.build_scaled_psi(stats, 2.0)
        k = 4.0 * float(psi_tilde_oracle(sp, stats).max())
        lad = A.build_ladder(sp, k, 10)
        assert all(y == 0.0 for y in lad.measures)
        assert lad.reached_zero() == 0

    def test_occupancy_counted_exactly(self, grid):
        # synthetic two-level psi: known cell occupancy at each rung
        sp = A.build_scaled_psi(measured(constant_trajectory(grid, value=1.0, times=(0.0, 1.0)),
                                         r=2.0), 2.0)
        n = grid.npts
        high = np.full((2, n, n, n), 0.25)
        high[:, : n // 2] = 1.0  # half the cells sit at 1.0
        sp.sorted_tilde = np.sort(high.reshape(2, -1), axis=1)
        lad = A.build_ladder(sp, 1.0, 2, enforce_threshold=False)
        full = grid.volume * 1.0
        assert lad.measures[0] == pytest.approx(full / 2)  # level 0.5
        assert lad.measures[1] == pytest.approx(full / 2)  # level 0.75
        assert lad.measures[2] == pytest.approx(full / 2)  # level 0.875

    def test_sorted_measures_match_per_threshold_counts(self, random_traj):
        # both of run_audit's ladders, read from one sort, bit for bit
        # against a scan of the stack per rung
        stats = measured(random_traj)
        sp = A.build_scaled_psi(stats, float(PARAMS.r))
        w = time_weights(sp.stats.times)
        psi_tilde = psi_tilde_oracle(sp, stats)
        k_dom = A.estimate_threshold(sp, PARAMS, float(PARAMS.r) + 1.0)
        k_fit = 2.0 * float(np.quantile(psi_tilde, 0.90))
        for k, enforce in ((k_dom, True), (k_fit, False)):
            lad = A.build_ladder(sp, k, 40, enforce_threshold=enforce)
            scans = [float(np.dot(w, np.sum(psi_tilde >= kn, axis=(1, 2, 3))
                                  .astype(np.float64))) * sp.stats.grid.cell_volume
                     for kn in lad.levels]
            assert lad.measures == scans
        assert any(y > 0.0 for y in lad.measures)

    def test_threshold_too_small(self, grid):
        sp = A.build_scaled_psi(measured(constant_trajectory(grid, value=1.0), r=2.0), 2.0)
        with pytest.raises(A.ThresholdTooSmall):
            A.build_ladder(sp, 0.5 * float(sp.sorted_tilde[0, -1]), 5)
        with pytest.raises(A.ThresholdTooSmall):
            A.build_ladder(sp, -1.0, 5)


class TestRecursionFit:
    def test_hand_ladder(self):
        # y_n = 2^(-2^n), alpha = 1: rung ratios are 4^-n, the fit is 1
        measures = [2.0 ** -(2**n) for n in range(4)]
        fitted, pairs = A.fit_recursion_constant(measures, 1.0, 1.0)
        assert fitted == pytest.approx(1.0)
        assert pairs == 3

    def test_all_zero_sentinel(self):
        fitted, pairs = A.fit_recursion_constant([0.0] * 5, 0.5, 2.0)
        assert fitted == 0.0
        assert pairs == 0

    def test_vacuous_pass_on_bounded_run(self, beltrami_traj):
        stats = measured(beltrami_traj)
        sp = A.build_scaled_psi(stats, float(PARAMS.r))
        k = 4.0 * float(psi_tilde_oracle(sp, stats).max())
        lad = A.build_ladder(sp, k, 10)
        rec = A.check_recursion(lad, sp, PARAMS)
        assert rec.passed
        assert rec.fitted_constant == 0.0

    def test_beltrami_dominating_ladder_hits_zero(self, beltrami_traj):
        stats = measured(beltrami_traj)
        sp = A.build_scaled_psi(stats, float(PARAMS.r))
        k = A.estimate_threshold(sp, PARAMS, 13.0)
        lad = A.build_ladder(sp, k, 40)
        assert lad.reached_zero() is not None
        assert lad.reached_zero() <= 40

    def test_measures_nonincreasing(self, random_traj):
        stats = measured(random_traj)
        sp = A.build_scaled_psi(stats, float(PARAMS.r))
        k = 2.0 * float(np.quantile(psi_tilde_oracle(sp, stats), 0.9))
        lad = A.build_ladder(sp, k, 40, enforce_threshold=False)
        ys = lad.measures
        assert all(a >= b for a, b in zip(ys, ys[1:]))
        zero_seen = False
        for y in ys:
            if y == 0.0:
                zero_seen = True
            assert not (zero_seen and y > 0.0)


class TestEnergy:
    def test_zero_field_vacuous(self, grid):
        rec = A.check_energy(measured(zero_trajectory(grid)))
        assert rec.passed
        assert rec.fitted_constant == 0.0

    def test_beltrami_residual(self, beltrami_traj):
        rec = A.check_energy(measured(beltrami_traj))
        assert rec.passed
        assert rec.lhs <= 1e-5

    def test_band_summation_order(self, random_traj):
        # energies are weighted sums over the band, as the solver's
        # dissipation rate is; pinned bit for bit
        band = random_traj.grid.band
        energies = [0.5 * band.volume * float(np.sum(band.weights * (c.real**2 + c.imag**2)))
                    for c in random_traj.coeffs]
        want = max(abs(e + d - energies[0]) / energies[0]
                   for e, d in zip(energies, random_traj.dissipation))
        assert A.check_energy(measured(random_traj)).lhs == want
        full = [0.5 * random_traj.grid.volume * np.sum(np.abs(expand(band, c)) ** 2)
                for c in random_traj.coeffs]
        assert energies == pytest.approx(full, rel=1e-14, abs=0)


class TestPressureCheck:
    def test_zero_field(self, grid):
        rec = A.check_pressure(measured(zero_trajectory(grid), (2.0,)))[0]
        assert rec.fitted_constant == 0.0

    def test_beltrami_matches_direct(self, beltrami_traj):
        rec = A.check_pressure(measured(beltrami_traj, (2.0,)))[0]
        v = SpectralVelocity(beltrami_traj.coeffs[0], beltrami_traj.grid)
        p = cz_pressure(v.coeff, v.components(), v.grid)
        direct = (oracle.space_norm(p, 2.0, v.grid)
                  / oracle.space_norm(v.magnitude(), 4.0, v.grid) ** 2)
        assert rec.extra["ratios"][0] == pytest.approx(direct, abs=1e-8)

    def test_bad_exponent(self, beltrami_traj):
        with pytest.raises(A.BadExponents):
            measured(beltrami_traj, (1.0,))


def pressure_oracle(traj, s, m_sigma=1.0):
    """Per-snapshot ratios of the pressure check as it ran before the
    one-pass audit: one pressure solve and one |u| per snapshot and s, with
    |u| from the band's inverse transform as the audit takes it, and the
    ratio ||p||_s / (M^2 ||u/M||_2s^2) of the scaled field u/M, whose
    pressure is M^2 p(u/M)."""
    grid = traj.grid
    ratios = []
    for i in range(len(traj)):
        u = traj.coeffs[i] / m_sigma
        uu = grid.band.inverse(u)
        mag = np.sqrt(uu[0] ** 2 + uu[1] ** 2 + uu[2] ** 2)
        den = m_sigma**2 * oracle.space_norm(mag, 2 * s, grid) ** 2
        if den == 0.0:
            ratios.append(0.0)
            continue
        p = m_sigma**2 * cz_pressure(u, uu, grid)
        ratios.append(oracle.space_norm(p, s, grid) / den)
    return ratios


class TestOnePassPressure:
    S_VALUES = (1.5, 2.0, 3.0, 4.0)

    def test_matches_oracle_unscaled(self, random_traj):
        # both norms of each ratio come from one log per snapshot, the
        # oracle's from pow: they agree to rounding
        recs = A.check_pressure(measured(random_traj, self.S_VALUES))
        assert [r.check_id for r in recs] == ["pressure_s1.5", "pressure_s2",
                                              "pressure_s3", "pressure_s4"]
        for rec, s in zip(recs, self.S_VALUES):
            assert rec.extra["ratios"] == pytest.approx(pressure_oracle(random_traj, s),
                                                        rel=1e-13, abs=0)
            assert rec.fitted_constant == max(rec.extra["ratios"])

    def test_matches_oracle_scaled(self, random_traj):
        # sigma = 1/2: the audit solves the stored band's pressure; the bound
        # is homogeneous of degree 2, so the scaled ratios agree to roundoff
        stats = measured(random_traj, self.S_VALUES)
        m_sigma = float(stats.mags[0].max()) ** 0.5
        recs = A.check_pressure(replace(stats, m_sigma=m_sigma))
        for rec, s in zip(recs, self.S_VALUES):
            oracle = pressure_oracle(random_traj, s, m_sigma)
            for got, want in zip(rec.extra["ratios"], oracle, strict=True):
                assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("sigma", [0, F(1, 2)], ids=["0", "0.5"])
    def test_one_pressure_solve_per_snapshot(self, random_traj, monkeypatch, sigma):
        calls = []

        def counting(coeff, *args):
            calls.append(coeff)
            return cz_pressure(coeff, *args)

        monkeypatch.setattr(A, "cz_pressure", counting)
        A.run_audit(random_traj, replace(PARAMS, sigma=F(sigma)), A.AuditSpec(s_values=self.S_VALUES))
        # at every sigma each call gets its snapshot's band as it is stored;
        # the snapshots run on several threads, so in no fixed order
        assert len(calls) == len(random_traj)
        solved = [next(i for i, want in enumerate(random_traj.coeffs) if np.array_equal(got, want))
                  for got in calls]
        assert sorted(solved) == list(range(len(random_traj)))

    def test_repeated_exponent_gets_its_own_record(self, beltrami_traj):
        first, second = A.check_pressure(measured(beltrami_traj, (2.0, 2.0)))
        assert first.extra["ratios"] == second.extra["ratios"]
        assert len(first.extra["ratios"]) == len(beltrami_traj)

    def test_bad_exponent_anywhere_in_tuple(self, beltrami_traj):
        with pytest.raises(A.BadExponents):
            measured(beltrami_traj, (2.0, 1.0))


def sine_band(grid):
    """u = (sin y, 0.6 cos 2z, 0): divergence-free, and exactly 0 on 128 cells
    of a 16^3 grid."""
    coeff = np.zeros((3,) + (grid.npts,) * 3, dtype=complex)
    coeff[0, 0, 1, 0], coeff[0, 0, -1, 0] = -0.5j, 0.5j
    coeff[1, 0, 0, 2] = coeff[1, 0, 0, -2] = 0.3
    return compact(grid.band, coeff)


class TestPowerTableOracle:
    """Every norm and log-moment the audit reads, from one log per snapshot,
    against the pow-based oracle of the whole stack."""

    EXPONENTS = (10 / 3, 2.0, 20.0, 24.0, 24.0002, 26.0, 200.0)
    LOGS = (2.0, 24.0, 200.0)

    @pytest.fixture(scope="class")
    def trajectories(self):
        g = TorusGrid(16)
        v0 = make_initial("random_spectrum", g, seed=4, amplitude=2.0, kmax=4)
        traj = run(v0, SolverConfig(dt=1e-3, t_final=3e-3, snapshot_stride=1))
        coeffs = list(traj.coeffs)
        # exactly-zero cells, then a zero snapshot, mid-trajectory
        coeffs[1] = sine_band(g)
        coeffs[2] = np.zeros_like(coeffs[2])
        mixed = Trajectory(g, traj.config, traj.times, coeffs, traj.dissipation)
        one = Trajectory(g, traj.config, [0.0], [sine_band(g)], [0.0])
        return {"mixed": mixed, "one snapshot": one}

    @pytest.mark.parametrize("sigma", [0, F(1, 2)], ids=["0", "0.5"])
    @pytest.mark.parametrize("which", ["mixed", "one snapshot"])
    def test_table_matches_oracle(self, trajectories, which, sigma):
        traj = trajectories[which]
        stats = A.FieldStats.measure(traj, (2.0,), sigma, self.EXPONENTS, self.LOGS)
        m = stats.m_sigma
        assert (m == 1.0) == (sigma == 0)
        f = stats.mags / m
        grid, times = traj.grid, traj.times
        for e in self.EXPONENTS:
            want = oracle.spacetime_norm(f, e, grid, times)
            assert abs(stats.norm(e) - want) <= 1e-13 * want, e
            for i, mag in enumerate(stats.mags):
                want = oracle.space_norm(mag, e, grid)
                assert abs(stats.powers.space_norm(i, e) - want) <= 1e-13 * want, (e, i)
        assert stats.norm(INF) == oracle.spacetime_norm(f, INF, grid, times)
        want = oracle.space_norm(stats.mags[0], 2.0, grid)
        assert abs(stats.u0_l2 - want) <= 1e-13 * want
        for p in self.LOGS:
            log_i0, mean_log, clamped = stats.log_integrals(p)
            want_i0, want_mean, want_clamped = oracle.power_log_integrals(f, p, grid, times)
            assert abs(log_i0 - want_i0) <= 1e-13 * abs(want_i0), p
            assert abs(mean_log - want_mean) <= 1e-13 * abs(want_mean), p
            assert clamped == want_clamped
        assert stats.clamped == 128 + (grid.npts**3 if which == "mixed" else 0)
        ratios = stats.pressure[0]
        assert ratios == pytest.approx(pressure_oracle(traj, 2.0), rel=1e-13, abs=0)
        assert ratios[2:3] in ([], [0.0])


class TestOnePassAudit:
    def test_each_norm_computed_once(self, random_traj, monkeypatch):
        self.assert_each_norm_once(random_traj, PARAMS, monkeypatch)

    def test_each_norm_computed_once_scaled(self, random_traj, monkeypatch):
        # sigma = 1/2: the norms of |u| / m_sigma are read from the same sums
        self.assert_each_norm_once(random_traj, replace(PARAMS, sigma=F(1, 2)), monkeypatch)

    @staticmethod
    def assert_each_norm_once(random_traj, params, monkeypatch):
        # one log per snapshot of |u| gives every power sum any check reads,
        # each exponent once; one of |p| gives the pressure's, and one of the
        # sorted scaled field the normalization guard's
        calls = []
        add = PowerTable.add

        def recording(table, i, values):
            calls.append((tuple(table.sums), tuple(table.log_sums)))
            return add(table, i, values)

        monkeypatch.setattr(PowerTable, "add", recording)
        s_values = (1.5, 2.0, 3.0, 4.0)
        spec = A.AuditSpec(s_values=s_values)
        A.run_audit(random_traj, params, spec)
        exponents, logs = A.audit_exponents(params, spec)
        r = spec.effective_r(params)
        nt = len(random_traj)
        counts = Counter(calls)
        [u_exps] = [e for e, p in counts if p]
        assert list(u_exps) == sorted(set(u_exps))
        assert set(u_exps) == {2.0, *exponents, *(2 * s for s in s_values)}
        assert set(logs) == {2 * r}
        assert counts == {(u_exps, (2 * r,)): nt, (s_values, ()): nt, ((r,), ()): nt}

    def test_one_velocity_per_snapshot(self, random_traj, snapshot_workers, monkeypatch):
        # each band is inverted once for the velocity, which gives |u| and
        # the pressure, and once more for the pressure field
        snapshot_workers(1)
        calls = []
        inverse = SpectralBand.inverse

        def counting(band, coeff):
            calls.append(coeff.shape)
            return inverse(band, coeff)

        monkeypatch.setattr(SpectralBand, "inverse", counting)
        A.run_audit(random_traj, PARAMS,
                    A.AuditSpec(s_values=(1.5, 2.0, 3.0, 4.0)))
        assert calls.count((3,) + random_traj.grid.band.shape) == len(random_traj)
        assert len(calls) == 2 * len(random_traj)

    def test_bad_s_refused_before_the_pass(self, grid, monkeypatch):
        v0 = make_initial("random_spectrum", grid, seed=2, amplitude=1.0, kmax=4)
        traj = run(v0, SolverConfig(dt=1e-3, t_final=5e-3, snapshot_stride=1))
        assert len(traj) == 6
        calls = []
        inverse = SpectralBand.inverse

        def counting(band, coeff):
            calls.append(coeff.shape)
            return inverse(band, coeff)

        monkeypatch.setattr(SpectralBand, "inverse", counting)
        with pytest.raises(A.BadExponents, match="need s > 1"):
            A.run_audit(traj, PARAMS, A.AuditSpec(s_values=(1.0, 2.0)))
        assert calls == []

    @pytest.mark.parametrize("r", [None, 1.0], ids=["done", "raises"])
    def test_audit_leaves_the_trajectory_as_it_found_it(self, grid, r):
        # r = 1 is refused after the velocity pass, by the scaled field
        v0 = make_initial("random_spectrum", grid, seed=2, amplitude=1.0, kmax=4)
        traj = run(v0, SolverConfig(dt=1e-3, t_final=5e-3, snapshot_stride=1))
        before = dict(vars(traj))
        coeffs = [c.tobytes() for c in traj.coeffs]
        times, dissipation = list(traj.times), list(traj.dissipation)
        if r is None:
            A.run_audit(traj, PARAMS, A.AuditSpec())
        else:
            with pytest.raises(A.BadExponents, match="need r > 1"):
                A.run_audit(traj, PARAMS, A.AuditSpec(r=r))
        assert vars(traj).keys() == before.keys()
        assert all(vars(traj)[key] is value for key, value in before.items())
        assert [c.tobytes() for c in traj.coeffs] == coeffs
        assert (traj.times, traj.dissipation) == (times, dissipation)

    def test_two_snapshot_passes_per_audit(self, random_traj, snapshot_workers, monkeypatch):
        # the velocity pass and the sort of the scaled field are the audit's
        # only passes over the snapshots, at one CPU and at two: every norm,
        # log-moment and the normalization guard is read from them
        passes = []

        def counting(fn, nt):
            passes.append(nt)
            return over_snapshots(fn, nt)

        # every module of the package that holds over_snapshots counts
        for name, module in list(sys.modules.items()):
            held = getattr(module, "over_snapshots", None)
            if name.startswith("nsbl.") and held is over_snapshots:
                monkeypatch.setattr(module, "over_snapshots", counting)
        for workers in (1, 2):
            snapshot_workers(workers)
            for sigma in (0, F(1, 2)):
                passes.clear()
                A.run_audit(random_traj, replace(PARAMS, sigma=F(sigma)),
                            A.AuditSpec(s_values=(1.5, 2.0, 3.0, 4.0)))
                assert passes == [len(random_traj)] * 2, (workers, sigma)

    def test_unmeasured_exponent_raises(self, random_traj):
        # a check asks the table, never the stack: an exponent the pass did
        # not measure is a typed error, not a pass of its own
        stats = measured(random_traj)
        with pytest.raises(UnmeasuredExponent):
            A.log_norm_limit(stats, 3.0)
        with pytest.raises(UnmeasuredExponent):
            A.check_interpolation(stats, 4.0, 2.0)
        assert A.log_norm_limit(measured(random_traj, r=3.0), 3.0).passed

    def test_undealiased_run_refused(self, grid):
        # snapshots that keep the whole half spectrum, as an undealiased run
        # would store them, make no trajectory, so they never reach the audit
        v0 = make_initial("random_spectrum", grid, seed=2, amplitude=1.0, kmax=4)
        half = expand(grid.band, v0.coeff)[..., : grid.npts // 2 + 1]
        cfg = SolverConfig(dt=1e-3, t_final=0.0, snapshot_stride=1)
        with pytest.raises(ShapeMismatch, match="band"):
            Trajectory(grid, cfg, [0.0], [half], [0.0])

    def test_not_divergence_free_snapshot_raises(self, grid):
        v0 = make_initial("random_spectrum", grid, seed=2, amplitude=1.0, kmax=4)
        traj = run(v0, SolverConfig(dt=1e-3, t_final=3e-3, snapshot_stride=1))
        bad = traj.coeffs[2].copy()
        # a gradient mode: u_x = 0.2 cos(x)
        bad[0, 1, 0, 0] += 0.1
        bad[0, -1, 0, 0] += 0.1
        traj.coeffs[2] = bad
        with pytest.raises(NotDivergenceFree):
            A.run_audit(traj, PARAMS, A.AuditSpec())

    def test_no_leak_between_trajectories(self, random_traj, beltrami_traj):
        def report(traj, params):
            return canonical_json(A.run_audit(traj, params, A.AuditSpec()).as_dict())

        scaled = replace(PARAMS, sigma=F(1, 2))
        for params in (PARAMS, scaled):
            alone_r = report(random_traj, params)
            alone_b = report(beltrami_traj, params)
            assert alone_r != alone_b
            assert report(random_traj, params) == alone_r
            assert report(beltrami_traj, params) == alone_b
            assert report(random_traj, params) == alone_r


class TestAuditMemory:
    def test_two_stacks_and_per_worker_snapshots(self, snapshot_workers):
        # |u| and the sorted scaled field are the only stacks an audit keeps;
        # every other quantity is formed one snapshot at a time per worker
        workers, per_worker = 2, 4
        snapshot_workers(workers)
        g = TorusGrid(24)
        v0 = make_initial("random_spectrum", g, seed=0, amplitude=2.0, kmax=8)
        traj = run(v0, SolverConfig(viscosity=1.0, dt=2e-3, t_final=0.05, snapshot_stride=1))
        assert len(traj) == 26
        snapshot = g.npts**3 * 8
        spec = A.AuditSpec(s_values=(1.5, 2.0, 3.0, 4.0))
        # the grid's own caches are built once, outside the measured audits
        A.run_audit(traj, PARAMS, spec)
        for params in (PARAMS, replace(PARAMS, sigma=F(1, 2))):
            tracemalloc.start()
            try:
                A.run_audit(traj, params, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (2 * len(traj) + workers * per_worker) * snapshot


class TestInterpolationCheck:
    def test_constant_field_equality(self, grid):
        traj = constant_trajectory(grid, value=3.0)
        rec = A.check_interpolation(measured(traj, r=2.0, ells=(4.0,)), 4.0, 2.0)
        assert rec.passed
        assert abs(rec.extra["sup_margin"]) <= 1e-10 * rec.rhs

    def test_random_field_strict_margin(self, random_traj):
        rec = A.check_interpolation(stats=measured(random_traj, r=2.0, ells=(4.0,)), ell=4.0,
                                    r=2.0)
        assert rec.passed
        assert rec.extra["sup_margin"] > 0

    def test_degenerate_exponents(self, random_traj):
        stats = measured(random_traj)
        with pytest.raises(A.BadExponents):
            A.check_interpolation(stats, 2.0, 2.0)
        with pytest.raises(A.BadExponents):
            A.check_interpolation(stats, math.inf, 2.0)

    def test_exponent_identity_recorded(self, random_traj):
        rec = A.check_interpolation(measured(random_traj, r=2.0, ells=(4.0,)), 4.0, 2.0)
        assert rec.extra["exponent_identity"] == pytest.approx(1.0, rel=1e-15)


class TestLogNormLimit:
    def test_constant_field_closed_form(self, grid):
        # the measured closed form must hit the analytic value; the finite
        # offsets approach it at first order
        c, r = 2.0, 3.0
        traj = constant_trajectory(grid, value=c)
        rec = A.log_norm_limit(measured(traj, r=r), r)
        qt = grid.volume * traj.times[-1]
        analytic = qt ** (-1 / (2 * r * r))
        assert abs(rec.rhs - analytic) <= 1e-10 * analytic
        assert rec.passed
        diffs = rec.extra["diffs"]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_random_first_order(self, random_traj):
        rec = A.log_norm_limit(measured(random_traj, r=3.0), 3.0)
        assert rec.passed
        diffs = rec.extra["diffs"]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert 0.5 <= rec.extra["convergence_order"] <= 1.5

    def test_jensen_bound_evaluated(self, random_traj):
        rec = A.log_norm_limit(measured(random_traj), float(PARAMS.r), PARAMS)
        assert "jensen_lhs" in rec.extra
        assert rec.extra["jensen_pass"]


class TestFinalBound:
    def test_zero_field(self, grid):
        rec = A.check_final_bound(measured(zero_trajectory(grid)), PARAMS, c=1.0)
        assert rec.passed

    def test_beltrami_margin(self, beltrami_traj):
        stats = measured(beltrami_traj)
        c = A.calibrate_final_constant(stats, PARAMS)
        rec = A.check_final_bound(stats, PARAMS, c)
        assert rec.passed
        assert rec.margin > 0

    def test_scaling_consistency(self):
        # v -> 2 v(2x) with the box halved and time compressed 4x: both
        # sides of the bound scale together, the ratio of ratios is 1
        lam = 2.0
        params = replace(PARAMS, delta0=F(2))
        g1 = TorusGrid(24, length=2 * np.pi)
        v1 = make_initial("random_spectrum", g1, seed=3, amplitude=1.0, kmax=4)
        t1 = run(v1, SolverConfig(viscosity=1.0, dt=4e-3, t_final=0.2, snapshot_stride=10))
        g2 = TorusGrid(24, length=2 * np.pi / lam)
        v2 = SpectralVelocity(lam * v1.coeff.copy(), g2)
        t2 = run(v2, SolverConfig(viscosity=1.0, dt=4e-3 / lam**2,
                                  t_final=0.2 / lam**2, snapshot_stride=10))
        r1 = A.check_final_bound(measured(t1), params, c=1.0)
        r2 = A.check_final_bound(measured(t2), params, c=1.0)
        ratio1 = r1.lhs / r1.rhs
        ratio2 = r2.lhs / r2.rhs
        assert ratio2 / ratio1 == pytest.approx(1.0, rel=0.05)


class TestPressureScalingInvariance:
    def test_fitted_constant_invariant(self, grid):
        v = make_initial("random_spectrum", grid, seed=6, amplitude=1.0, kmax=4)
        cfg = SolverConfig(dt=1e-3, t_final=0.0)
        t1 = run(v, cfg)
        w = SpectralVelocity(2.0 * v.coeff.copy(), grid)
        t2 = run(w, cfg)
        c1 = A.check_pressure(measured(t1, (2.0,)))[0].fitted_constant
        c2 = A.check_pressure(measured(t2, (2.0,)))[0].fitted_constant
        assert abs(c1 - c2) <= 1e-10 * c1


class TestRunAudit:
    def test_zero_field_all_vacuous(self, grid):
        rep = A.run_audit(zero_trajectory(grid), PARAMS, A.AuditSpec(), run_id="zero")
        assert rep.falsifications() == []

    def test_full_report_structure(self, random_traj):
        rep = A.run_audit(random_traj, PARAMS, A.AuditSpec(), run_id="r0")
        ids = [c.check_id for c in rep.checks]
        assert ids.count("recursion") == 1
        assert ids.count("final_bound") == 1
        assert len(ids) == len(set(ids))
        assert rep.environment["dichotomy_branch"] in (1, 2)
        for key in ("c_energy", "c_pressure_s2", "c_pressure_s3", "c_recursion", "c_final"):
            assert key in rep.constants
        d = rep.as_dict()
        assert d["format"] == "nsbl-report/1"

    def test_calibration_constants_reused(self, random_traj):
        rep1 = A.run_audit(random_traj, PARAMS, A.AuditSpec(calibration=True), run_id="cal")
        rep2 = A.run_audit(random_traj, PARAMS, A.AuditSpec(),
                           constants={"c_final": rep1.constants["c_final"]}, run_id="held")
        assert "c_final_self_calibrated" not in rep2.constants
        assert rep2.constants["c_final"] == rep1.constants["c_final"]


class TestSnapshotFanOut:
    """An audit shares each trajectory's snapshots out over the usable CPUs;
    reports and errors do not depend on how many there are."""

    def test_reports_identical_for_any_worker_count(self, random_traj, snapshot_workers):
        # 11 snapshots: one chunk of 11, chunks of 5 + 6, and of 3 + 4 + 4
        spec = A.AuditSpec(s_values=(1.5, 2.0, 3.0))
        reports = {}
        for workers in (1, 2, 3):
            snapshot_workers(workers)
            reports[workers] = [
                canonical_json(A.run_audit(random_traj, params, spec).as_dict())
                for params in (PARAMS, replace(PARAMS, sigma=F(1, 2)))
            ]
        assert reports[1] == reports[2] == reports[3]
        assert reports[1][0] != reports[1][1]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_not_divergence_free_in_a_later_chunk(self, grid, snapshot_workers, workers):
        snapshot_workers(workers)
        v0 = make_initial("random_spectrum", grid, seed=2, amplitude=1.0, kmax=4)
        traj = run(v0, SolverConfig(dt=1e-3, t_final=5e-3, snapshot_stride=1))
        # the first snapshot of the second of the chunks of 6 snapshots
        i = len(traj) // workers
        bad = traj.coeffs[i].copy()
        bad[0, 1, 0, 0] += 0.1
        bad[0, -1, 0, 0] += 0.1
        traj.coeffs[i] = bad
        with pytest.raises(NotDivergenceFree):
            A.run_audit(traj, PARAMS, A.AuditSpec())

    @pytest.mark.parametrize("workers,bad", [(1, (5, 6)), (2, (5, 6)), (3, (5, 6)), (3, (3, 6))])
    def test_corrupt_checkpoint_names_the_first_bad_file(self, tmp_path, capsys,
                                                         snapshot_workers, workers, bad):
        # 7 checkpoints; with 2 workers they are read in chunks [0, 3) and
        # [3, 7), with 3 workers in [0, 2), [2, 4) and [4, 7)
        snapshot_workers(workers)
        scenario = Scenario(
            name="bad", grid_npts=16,
            solver=SolverConfig(dt=1e-3, t_final=6e-3, snapshot_stride=1),
            initial={"kind": "random_spectrum", "seed": 1, "amplitude": 1.0, "kmax": 4},
        )
        manifest, _ = simulate(scenario, tmp_path)
        for i in bad:
            path = tmp_path / "bad" / f"checkpoint_{i:04d}.nsbl"
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert cli.main(["audit", str(manifest)]) == 4
        err = capsys.readouterr().err
        assert f"checkpoint_{bad[0]:04d}.nsbl" in err
        assert f"checkpoint_{bad[1]:04d}.nsbl" not in err
