import math
from fractions import Fraction as F

import numpy as np
import pytest

from nsbl import audit as A
from nsbl.harness import canonical_json
from nsbl.ledger import ExponentParams
from nsbl.norms import (
    power_log_integrals,
    space_norm,
    spacetime_norm,
    time_weights,
)
from nsbl.solver import SolverConfig, Trajectory, make_initial, run
from nsbl.spectral import (
    NotDivergenceFree,
    ShapeMismatch,
    SpectralVelocity,
    TorusGrid,
    cz_pressure,
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
    return Trajectory(grid, cfg, list(times), [grid.band.compact(coeff) for _ in times],
                      [0.0 for _ in times])


def zero_trajectory(grid):
    coeff = np.zeros((3, grid.npts, grid.npts, grid.npts), dtype=complex)
    cfg = SolverConfig(dt=1e-3, t_final=0.0, snapshot_stride=1)
    return Trajectory(grid, cfg, [0.0], [grid.band.compact(coeff)], [0.0])


class TestScaledPsi:
    def test_zero_field_degenerate(self, grid):
        with pytest.raises(A.DegenerateField):
            A.build_scaled_psi(zero_trajectory(grid), 2.0)

    def test_normalization_drift_raises(self, grid, monkeypatch):
        # a typed error, not an assert, so it survives python -O
        calls = []

        def drifting(f, r, g, times):
            calls.append(r)
            return spacetime_norm(f, r, g, times) * (1.0 if len(calls) == 1 else 1.5)

        monkeypatch.setattr(A, "spacetime_norm", drifting)
        with pytest.raises(A.DegenerateField, match="normalization drifted"):
            A.build_scaled_psi(constant_trajectory(grid), 2.0)

    def test_constant_field_closed_form(self, grid):
        c = 2.0
        traj = constant_trajectory(grid, value=c)
        r = 3.0
        sp = A.build_scaled_psi(traj, r)
        qt_measure = grid.volume * 1.0
        assert sp.a_r == pytest.approx(c**2 * qt_measure ** (1 / r), rel=1e-12)
        assert np.allclose(sp.psi_tilde, qt_measure ** (-1 / r), rtol=1e-12)

    def test_beltrami_unit_norm_requadrature(self, beltrami_traj):
        sp = A.build_scaled_psi(beltrami_traj, 3.0)
        check = spacetime_norm(sp.psi_tilde, 3.0, beltrami_traj.grid, beltrami_traj.times)
        assert abs(check - 1.0) <= 1e-6


class TestLadder:
    def test_levels(self, grid):
        traj = constant_trajectory(grid, value=1.0)
        sp = A.build_scaled_psi(traj, 2.0)
        lad = A.build_ladder(sp, 8.0, 3, enforce_threshold=False)
        assert lad.levels == [4.0, 6.0, 7.0, 7.5]

    def test_bounded_field_all_zero(self, grid):
        traj = constant_trajectory(grid, value=1.0)
        sp = A.build_scaled_psi(traj, 2.0)
        k = 4.0 * float(sp.psi_tilde.max())
        lad = A.build_ladder(sp, k, 10)
        assert all(y == 0.0 for y in lad.measures)
        assert lad.reached_zero() == 0

    def test_occupancy_counted_exactly(self, grid):
        # synthetic two-level psi: known cell occupancy at each rung
        traj = constant_trajectory(grid, value=1.0, times=(0.0, 1.0))
        sp = A.build_scaled_psi(traj, 2.0)
        n = grid.npts
        high = np.full((2, n, n, n), 0.25)
        high[:, : n // 2] = 1.0  # half the cells sit at 1.0
        sp.psi_tilde = high
        lad = A.build_ladder(sp, 1.0, 2, enforce_threshold=False)
        full = grid.volume * 1.0
        assert lad.measures[0] == pytest.approx(full / 2)  # level 0.5
        assert lad.measures[1] == pytest.approx(full / 2)  # level 0.75
        assert lad.measures[2] == pytest.approx(full / 2)  # level 0.875

    def test_sorted_measures_match_per_threshold_counts(self, random_traj):
        # both of run_audit's ladders, read from one sort, bit for bit
        # against a scan of the stack per rung
        sp = A.build_scaled_psi(random_traj, float(PARAMS.r))
        w = time_weights(sp.times)
        k_dom = A.estimate_threshold(sp, random_traj, PARAMS, float(PARAMS.r) + 1.0)
        k_fit = 2.0 * float(np.quantile(sp.psi_tilde, 0.90))
        for k, enforce in ((k_dom, True), (k_fit, False)):
            lad = A.build_ladder(sp, k, 40, enforce_threshold=enforce)
            scans = [float(np.dot(w, np.sum(sp.psi_tilde >= kn, axis=(1, 2, 3))
                                  .astype(np.float64))) * sp.grid.cell_volume
                     for kn in lad.levels]
            assert lad.measures == scans
        assert any(y > 0.0 for y in lad.measures)

    def test_threshold_too_small(self, grid):
        traj = constant_trajectory(grid, value=1.0)
        sp = A.build_scaled_psi(traj, 2.0)
        with pytest.raises(A.ThresholdTooSmall):
            A.build_ladder(sp, 0.5 * float(sp.psi_tilde[0].max()), 5)
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
        sp = A.build_scaled_psi(beltrami_traj, float(PARAMS.r))
        k = 4.0 * float(sp.psi_tilde.max())
        lad = A.build_ladder(sp, k, 10)
        rec = A.check_recursion(lad, sp, beltrami_traj, PARAMS)
        assert rec.passed
        assert rec.fitted_constant == 0.0

    def test_beltrami_dominating_ladder_hits_zero(self, beltrami_traj):
        sp = A.build_scaled_psi(beltrami_traj, float(PARAMS.r))
        k = A.estimate_threshold(sp, beltrami_traj, PARAMS, 13.0)
        lad = A.build_ladder(sp, k, 40)
        assert lad.reached_zero() is not None
        assert lad.reached_zero() <= 40

    def test_measures_nonincreasing(self, random_traj):
        sp = A.build_scaled_psi(random_traj, float(PARAMS.r))
        k = 2.0 * float(np.quantile(sp.psi_tilde, 0.9))
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
        rec = A.check_energy(zero_trajectory(grid))
        assert rec.passed
        assert rec.fitted_constant == 0.0

    def test_beltrami_residual(self, beltrami_traj):
        rec = A.check_energy(beltrami_traj)
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
        assert A.check_energy(random_traj).lhs == want
        full = [0.5 * random_traj.grid.volume * np.sum(np.abs(random_traj.velocity(i).coeff) ** 2)
                for i in range(len(random_traj))]
        assert energies == pytest.approx(full, rel=1e-14, abs=0)


class TestPressureCheck:
    def test_zero_field(self, grid):
        rec = A.check_pressure(zero_trajectory(grid), (2.0,))[0]
        assert rec.fitted_constant == 0.0

    def test_beltrami_matches_direct(self, beltrami_traj):
        rec = A.check_pressure(beltrami_traj, (2.0,))[0]
        v = beltrami_traj.velocity(0)
        p = cz_pressure(beltrami_traj.coeffs[0], v.grid)
        direct = space_norm(p.values, 2.0, v.grid) / space_norm(v.magnitude(), 4.0, v.grid) ** 2
        assert rec.extra["ratios"][0] == pytest.approx(direct, abs=1e-8)

    def test_bad_exponent(self, beltrami_traj):
        with pytest.raises(A.BadExponents):
            A.check_pressure(beltrami_traj, (1.0,))


def pressure_oracle(traj, s, m_sigma=1.0):
    """Per-snapshot ratios of the pressure check as it ran before the
    one-pass audit: one pressure solve and one |u| per snapshot and s, with
    |u| from the band's inverse transform as the audit takes it."""
    grid = traj.grid
    ratios = []
    for i in range(len(traj)):
        u = traj.coeffs[i] / m_sigma
        uu = grid.band.inverse(u)
        mag = np.sqrt(uu[0] ** 2 + uu[1] ** 2 + uu[2] ** 2)
        den = m_sigma**2 * space_norm(mag, 2 * s, grid) ** 2
        if den == 0.0:
            ratios.append(0.0)
            continue
        p = cz_pressure(u, grid, m_sigma)
        ratios.append(space_norm(p.values, s, grid) / den)
    return ratios


class TestOnePassPressure:
    S_VALUES = (1.5, 2.0, 3.0, 4.0)

    def test_matches_oracle_exactly_unscaled(self, random_traj):
        recs = A.check_pressure(random_traj, self.S_VALUES)
        assert [r.check_id for r in recs] == ["pressure_s1.5", "pressure_s2",
                                              "pressure_s3", "pressure_s4"]
        for rec, s in zip(recs, self.S_VALUES):
            assert rec.extra["ratios"] == pressure_oracle(random_traj, s)
            assert rec.fitted_constant == max(rec.extra["ratios"])

    def test_matches_oracle_scaled(self, random_traj):
        # sigma = 1/2: |u|/m is taken from the cached stack, not re-transformed
        m_sigma = float(random_traj.magnitudes()[0].max()) ** 0.5
        recs = A.check_pressure(random_traj, self.S_VALUES, m_sigma)
        for rec, s in zip(recs, self.S_VALUES):
            oracle = pressure_oracle(random_traj, s, m_sigma)
            for got, want in zip(rec.extra["ratios"], oracle, strict=True):
                assert abs(got - want) <= 1e-12 * want

    def test_one_pressure_solve_per_snapshot(self, random_traj, monkeypatch):
        calls = []

        def counting(coeff, grid, m_sigma=1.0):
            calls.append(coeff)
            return cz_pressure(coeff, grid, m_sigma)

        monkeypatch.setattr(A, "cz_pressure", counting)
        A.run_audit(random_traj, PARAMS, A.AuditSpec(s_values=self.S_VALUES))
        # sigma = 0, so m_sigma = 1 and each call gets its snapshot's band as it is
        assert len(calls) == len(random_traj)
        for got, want in zip(calls, random_traj.coeffs):
            assert np.array_equal(got, want)

    def test_repeated_exponent_gets_its_own_record(self, beltrami_traj):
        first, second = A.check_pressure(beltrami_traj, (2.0, 2.0))
        assert first.extra["ratios"] == second.extra["ratios"]
        assert len(first.extra["ratios"]) == len(beltrami_traj)

    def test_bad_exponent_anywhere_in_tuple(self, beltrami_traj):
        with pytest.raises(A.BadExponents):
            A.check_pressure(beltrami_traj, (2.0, 1.0))


class TestOnePassAudit:
    def test_each_norm_computed_once(self, random_traj, monkeypatch):
        seen, logs = [], []

        def recording(f, ell, g, times):
            seen.append((id(f), ell))
            return spacetime_norm(f, ell, g, times)

        def recording_logs(f, p, g, times):
            logs.append(p)
            return power_log_integrals(f, p, g, times)

        monkeypatch.setattr(A, "spacetime_norm", recording)
        monkeypatch.setattr(A, "power_log_integrals", recording_logs)
        A.run_audit(random_traj, PARAMS, A.AuditSpec())
        assert len(seen) == len(set(seen))
        assert logs == [2 * float(PARAMS.r)]

    def test_undealiased_run_refused(self, grid):
        # snapshots that keep the whole half spectrum, as an undealiased run
        # would store them, make no trajectory, so they never reach the audit
        v0 = make_initial("random_spectrum", grid, seed=2, amplitude=1.0, kmax=4)
        half = v0.coeff[..., : grid.npts // 2 + 1]
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
        def fresh(traj):
            return Trajectory(traj.grid, traj.config, list(traj.times),
                              list(traj.coeffs), list(traj.dissipation))

        def report(traj, params):
            return canonical_json(A.run_audit(traj, params, A.AuditSpec()).as_dict())

        scaled = PARAMS.with_sigma(F(1, 2), 0)
        for params in (PARAMS, scaled):
            alone_r = report(fresh(random_traj), params)
            alone_b = report(fresh(beltrami_traj), params)
            assert alone_r != alone_b
            assert report(random_traj, params) == alone_r
            assert report(beltrami_traj, params) == alone_b
            assert report(random_traj, params) == alone_r


class TestInterpolationCheck:
    def test_constant_field_equality(self, grid):
        traj = constant_trajectory(grid, value=3.0)
        rec = A.check_interpolation(traj, 4.0, 2.0)
        assert rec.passed
        assert abs(rec.extra["sup_margin"]) <= 1e-10 * rec.rhs

    def test_random_field_strict_margin(self, random_traj):
        rec = A.check_interpolation(traj=random_traj, ell=4.0, r=2.0)
        assert rec.passed
        assert rec.extra["sup_margin"] > 0

    def test_degenerate_exponents(self, random_traj):
        with pytest.raises(A.BadExponents):
            A.check_interpolation(random_traj, 2.0, 2.0)
        with pytest.raises(A.BadExponents):
            A.check_interpolation(random_traj, math.inf, 2.0)

    def test_exponent_identity_recorded(self, random_traj):
        rec = A.check_interpolation(random_traj, 4.0, 2.0)
        assert rec.extra["exponent_identity"] == pytest.approx(1.0, rel=1e-15)


class TestLogNormLimit:
    def test_constant_field_closed_form(self, grid):
        # the measured closed form must hit the analytic value; the finite
        # offsets approach it at first order
        c, r = 2.0, 3.0
        traj = constant_trajectory(grid, value=c)
        rec = A.log_norm_limit(traj, r)
        qt = grid.volume * traj.times[-1]
        analytic = qt ** (-1 / (2 * r * r))
        assert abs(rec.rhs - analytic) <= 1e-10 * analytic
        assert rec.passed
        diffs = rec.extra["diffs"]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_random_first_order(self, random_traj):
        rec = A.log_norm_limit(random_traj, 3.0)
        assert rec.passed
        diffs = rec.extra["diffs"]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert 0.5 <= rec.extra["convergence_order"] <= 1.5

    def test_jensen_bound_evaluated(self, random_traj):
        rec = A.log_norm_limit(random_traj, float(PARAMS.r), PARAMS)
        assert "jensen_lhs" in rec.extra
        assert rec.extra["jensen_pass"]


class TestFinalBound:
    def test_zero_field(self, grid):
        rec = A.check_final_bound(zero_trajectory(grid), PARAMS, c=1.0)
        assert rec.passed

    def test_beltrami_margin(self, beltrami_traj):
        c = A.calibrate_final_constant(beltrami_traj, PARAMS)
        rec = A.check_final_bound(beltrami_traj, PARAMS, c)
        assert rec.passed
        assert rec.margin > 0

    def test_scaling_consistency(self):
        # v -> 2 v(2x) with the box halved and time compressed 4x: both
        # sides of the bound scale together, the ratio of ratios is 1
        lam = 2.0
        params = PARAMS.with_sigma(PARAMS.sigma, F(2))
        g1 = TorusGrid(24, length=2 * np.pi)
        v1 = make_initial("random_spectrum", g1, seed=3, amplitude=1.0, kmax=4)
        t1 = run(v1, SolverConfig(viscosity=1.0, dt=4e-3, t_final=0.2, snapshot_stride=10))
        g2 = TorusGrid(24, length=2 * np.pi / lam)
        v2 = SpectralVelocity(lam * v1.coeff.copy(), g2)
        t2 = run(v2, SolverConfig(viscosity=1.0, dt=4e-3 / lam**2,
                                  t_final=0.2 / lam**2, snapshot_stride=10))
        r1 = A.check_final_bound(t1, params, c=1.0)
        r2 = A.check_final_bound(t2, params, c=1.0)
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
        c1 = A.check_pressure(t1, (2.0,))[0].fitted_constant
        c2 = A.check_pressure(t2, (2.0,))[0].fitted_constant
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
