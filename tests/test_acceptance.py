"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive trajectory suites are shared through module-scoped fixtures;
everything is deterministic (fixed seeds, fixed lattices).  Run with
``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
"""

import json
import math
import random
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest

from band_oracle import compact, expand
from norm_oracle import space_norm
from nsbl import audit as audit_mod
from nsbl import ledger as L
from nsbl.harness import Scenario, load_manifest, run_suite, simulate, trajectory_from_manifest
from nsbl.norms import INF
from nsbl.solver import SolverConfig, Trajectory, make_initial, run
from nsbl.spectral import TorusGrid, cz_pressure, divergence_max


def announce(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {status}: {detail}"
    # write past pytest's capture so the line always reaches the console
    sys.__stdout__.write(f"\n{line}\n")
    sys.__stdout__.flush()
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

SUITE_SEEDS = 50
LADDER_SEEDS = 20


def random_scenario(seed, npts=32):
    return Scenario(
        name=f"seed-{seed:02d}",
        grid_npts=npts,
        solver=SolverConfig(viscosity=1.0, dt=2e-3, t_final=0.25, snapshot_stride=5),
        initial={"kind": "random_spectrum", "seed": seed, "amplitude": 2.0, "kmax": 8},
    )


def measured_at(traj, r):
    """The audit's pass over traj, measured at every exponent an audit at r
    reads."""
    spec = audit_mod.AuditSpec(r=r)
    exponents = audit_mod.audit_exponents(random_scenario(0).exponent_params(), spec)
    return audit_mod.FieldStats.measure(traj, (), 0, *exponents)


@pytest.fixture(scope="module")
def suite_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite50")
    members = [random_scenario(seed).to_dict() for seed in range(SUITE_SEEDS)]
    suite = {"format": "nsbl-suite/1", "name": "acceptance-50",
             "calibration": "seed-00", "scenarios": members}
    t0 = time.monotonic()
    aggregate = run_suite(suite, out, workers=4)
    elapsed = time.monotonic() - t0
    return aggregate, out, elapsed


@pytest.fixture(scope="module")
def beltrami_traj():
    grid = TorusGrid(32)
    v0 = make_initial("beltrami", grid, amplitude=1.0)
    cfg = SolverConfig(viscosity=1.0, dt=1e-3, t_final=0.5, snapshot_stride=25)
    t0 = time.monotonic()
    traj = run(v0, cfg)
    traj.elapsed = time.monotonic() - t0
    return traj


# ---------------------------------------------------------------------------
# 1. exact-rational identity suite
# ---------------------------------------------------------------------------


def test_criterion_01_exact_identities():
    rng = random.Random(20260809)
    t0 = time.monotonic()
    for _ in range(1000):
        N = rng.choice([3, 4, 5])
        q = F(N + 2) + F(rng.randint(1, 400), rng.randint(1, 40))
        sup = L.alpha_j_interval_sup(N, q)
        j = sup * F(rng.randint(0, 99), 100) / L.alpha(N, q)
        d = F(rng.randint(1, 99), 100)
        b1, b2, b3 = L.b_exponent_forms(N, q, j)
        assert b1 == b2 == b3
        m1, m2 = L.big_m_forms(N, q, j)
        assert m1 == m2
        assert len(set(L.m_delta_forms(N, q, d))) == 1
    elapsed = time.monotonic() - t0
    announce(1, elapsed < 10.0,
             f"1000 samples, all algebraic forms exactly equal, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. pivot exponent bounds and large-q limit
# ---------------------------------------------------------------------------


def test_criterion_02_m_delta_bounds_and_limit():
    rng = random.Random(7)
    t0 = time.monotonic()
    for _ in range(300):
        N = rng.choice([3, 4, 5, 6])
        q = F(N + 2) + F(rng.randint(1, 500), rng.randint(1, 25))
        d = F(rng.randint(1, 99), 100)
        md = L.m_delta(N, q, d)
        assert N + 2 < md < 2 * q
    exact = L.m_delta(3, 10, F(1, 2))
    assert exact == F(70, 11)
    tail = L.m_delta(3, 10**6, F(1, 2)) - 5
    assert 0 < tail < F(1, 10**4)
    elapsed = time.monotonic() - t0
    announce(2, elapsed < 1.0,
             f"strict bounds at 300 samples, value 70/11 exact, tail {float(tail):.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. feasibility certificate
# ---------------------------------------------------------------------------


def test_criterion_03_feasibility_certificate():
    t0 = time.monotonic()
    params = L.select_parameters(3)
    assert params.j == params.q / 2
    assert params.r == params.K * params.q
    reports = {r.constraint_id: r for r in L.constraint_suite(params)}
    required = [
        "j_above_sign_threshold",      # negativity threshold for the high exponent
        "j_above_interp_threshold",    # interpolation lower bound
        "j_above_scaled_threshold",    # screening bound at r = K q
        "r_above_min",
        "r_scaled_quadratic",
        "r_gt_2j",
        "r_gt_q",
        "r_below_max",
        "K_gt_1",
        "K_below_interval_sup",
        "B_ratio_gate_1",
        "B_ratio_gate_2",
        "B_ratio_gate_3",
    ]
    for cid in required:
        assert reports[cid].satisfied, cid
    for gate in L.ratio_gates(params.N, params.B):
        assert gate < F(1, 2)
    # re-verification from scratch
    fresh = L.ExponentParams.derive(params.N, params.q, params.B, params.K,
                                    params.delta, params.j, params.r)
    assert all(r.satisfied for r in L.constraint_suite(fresh))
    elapsed = time.monotonic() - t0
    announce(3, elapsed < 60.0,
             f"q={params.q} B={params.B} K={params.K} j={params.j} r={params.r}, "
             f"all constraints certified twice, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. superlinear recursion behavior
# ---------------------------------------------------------------------------


def test_criterion_04_recursion_threshold():
    seq = L.recursion_limit(1, 2, 1, F(1, 2), 10)
    assert seq[3] == F(1, 16)
    assert seq[:4] == [F(1, 2), F(1, 4), F(1, 8), F(1, 16)]
    above = L.recursion_limit(1, 2, 1, 1, 30)
    first = next((i for i, v in enumerate(above) if v > 10**6), None)
    assert first is not None and first <= 30
    announce(4, True, f"threshold case y3 = 1/16 exactly; above threshold exceeds 1e6 at n={first}")


# ---------------------------------------------------------------------------
# 5. analytic solver oracle
# ---------------------------------------------------------------------------


def test_criterion_05_beltrami_oracle(beltrami_traj):
    traj = beltrami_traj
    sups = audit_mod.FieldStats.measure(traj, (), 0).sups
    ratio = sups[-1] / sups[0]
    rel_err = abs(ratio - math.exp(-0.5)) / math.exp(-0.5)
    worst_div = max(divergence_max(c, traj.grid.band.wavenumbers) for c in traj.coeffs)
    ok = rel_err <= 1e-6 and worst_div <= 1e-10 and traj.elapsed < 120.0
    announce(5, ok,
             f"decay error {rel_err:.2e} (<=1e-6), max divergence {worst_div:.2e} "
             f"(<=1e-10), {traj.elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. energy identity and scheme order
# ---------------------------------------------------------------------------


def _energy_residual(v0, dt, t_final):
    grid = v0.grid

    def energy(coeff):
        # summed over the full layout
        return 0.5 * grid.volume * float(np.sum(np.abs(expand(grid.band, coeff)) ** 2))

    cfg = SolverConfig(viscosity=1.0, dt=dt, t_final=t_final,
                       snapshot_stride=max(1, round(t_final / dt) // 5))
    traj = run(v0, cfg)
    e0 = energy(traj.coeffs[0])
    return max(
        abs(energy(c) + d - e0) / e0 for c, d in zip(traj.coeffs, traj.dissipation)
    )


def test_criterion_06_energy_identity():
    v0 = make_initial("random_spectrum", TorusGrid(16), seed=1, amplitude=1.0, kmax=4)
    fine = _energy_residual(v0, 1e-3, 0.1)
    coarse = _energy_residual(v0, 0.02, 0.2)
    halved = _energy_residual(v0, 0.01, 0.2)
    gain = coarse / halved
    ok = fine <= 1e-5 and gain >= 8.0
    announce(6, ok, f"residual {fine:.2e} (<=1e-5); halving dt gains {gain:.1f}x (>=8)")


# ---------------------------------------------------------------------------
# 7. pressure operator bound
# ---------------------------------------------------------------------------


def band_pressure(v):
    """cz_pressure of a velocity, with the velocity on the grid from the
    band's inverse, as the audit forms it."""
    return cz_pressure(v.coeff, v.grid.band.inverse(v.coeff), v.grid)


def _pressure_cs(npts, s, seeds):
    grid = TorusGrid(npts)
    worst = 0.0
    for seed in seeds:
        v = make_initial("random_spectrum", grid, seed=seed, amplitude=1.0, kmax=8)
        p = band_pressure(v)
        ratio = space_norm(p, s, grid) / space_norm(v.magnitude(), 2 * s, grid) ** 2
        worst = max(worst, ratio)
    return worst


def test_criterion_07_pressure_bound():
    grid = TorusGrid(32)
    v = make_initial("beltrami", grid, amplitude=1.0)
    p = band_pressure(v)
    u2 = v.magnitude() ** 2
    closed_err = np.abs(p - (-(u2 / 2 - u2.mean() / 2))).max()
    drifts = {}
    for s in (2.0, 3.0):
        c32 = _pressure_cs(32, s, range(20))
        c48 = _pressure_cs(48, s, range(20))
        drifts[s] = abs(c48 - c32) / c32
    ok = closed_err <= 1e-8 and all(d <= 0.10 for d in drifts.values())
    announce(7, ok,
             f"closed-form error {closed_err:.2e} (<=1e-8); c_s drift 32->48: "
             f"s2 {drifts[2.0]:.3f}, s3 {drifts[3.0]:.3f} (<=0.10)")


# ---------------------------------------------------------------------------
# 8. interpolation and the log-norm limit
# ---------------------------------------------------------------------------


def test_criterion_08_interpolation_and_log_limit():
    grid = TorusGrid(32)
    lz, ell = 5.0 / 3.0, 4.0
    min_margin = math.inf
    for seed in range(100):
        v = make_initial("random_spectrum", grid, seed=seed, amplitude=1.5, kmax=8)
        f = v.magnitude()
        lhs = space_norm(f, 2 * ell, grid)
        rhs = (space_norm(f, INF, grid) ** (1 - lz / ell)
               * space_norm(f, 2 * lz, grid) ** (lz / ell))
        min_margin = min(min_margin, (rhs - lhs) / rhs)
    # constant field: measured closed form against the analytic value
    g16 = TorusGrid(16)
    coeff = np.zeros((3, 16, 16, 16), dtype=complex)
    coeff[0, 0, 0, 0] = 2.0
    cfg = SolverConfig(dt=0.5, t_final=1.0, snapshot_stride=1)
    const_traj = Trajectory(g16, cfg, [0.0, 0.5, 1.0], [compact(g16.band, coeff)] * 3,
                            [0.0] * 3)
    r = 3.0
    rec_const = audit_mod.log_norm_limit(measured_at(const_traj, r), r)
    qt = g16.volume * 1.0
    const_err = abs(rec_const.rhs - qt ** (-1 / (2 * r * r))) / qt ** (-1 / (2 * r * r))
    # random trajectory: first-order convergence
    v0 = make_initial("random_spectrum", TorusGrid(16), seed=3, amplitude=1.5, kmax=4)
    rtraj = run(v0, SolverConfig(viscosity=1.0, dt=5e-3, t_final=0.1, snapshot_stride=4))
    rec_rand = audit_mod.log_norm_limit(measured_at(rtraj, 3.0), 3.0)
    order = rec_rand.extra["convergence_order"]
    diffs = rec_rand.extra["diffs"]
    ok = (
        min_margin >= -1e-12
        and const_err <= 1e-10
        and all(b < a for a, b in zip(diffs, diffs[1:]))
        and 0.5 <= order <= 1.5
    )
    announce(8, ok,
             f"min interpolation margin {min_margin:.3e} (>=0) over 100 fields; "
             f"constant-field closed form error {const_err:.1e} (<=1e-10); "
             f"convergence order {order:.2f} (first order)")


# ---------------------------------------------------------------------------
# 9. ladder audit across seeds
# ---------------------------------------------------------------------------


def test_criterion_09_ladder_audit(suite_results):
    _, out, _ = suite_results
    c_values = []
    for seed in range(LADDER_SEEDS):
        rep = json.loads((out / f"seed-{seed:02d}" / "report.json").read_text())
        rec = next(c for c in rep["checks"] if c["id"] == "recursion")
        dom = [float(x) for x in rec["extra"]["dominating_measures"]]
        fit = [float(x) for x in rec["extra"]["measures"]]
        assert all(a >= b for a, b in zip(dom, dom[1:])), "dominating ladder not monotone"
        assert all(a >= b for a, b in zip(fit, fit[1:])), "fit ladder not monotone"
        reached = rec["extra"]["dominating_reached_zero"]
        assert reached is not None and reached <= 40
        c_values.append(float(rec["fitted_constant"]))
    med = float(np.median(c_values))
    worst = max(abs(c - med) / med for c in c_values)
    ok = worst <= 0.20
    announce(9, ok,
             f"{LADDER_SEEDS} seeds: ladders monotone, zero by n<=40; "
             f"fitted constant spread {worst:.3f} (<=0.20) about median {med:.3g}")


# ---------------------------------------------------------------------------
# 10. final-bound non-falsification suite
# ---------------------------------------------------------------------------


def test_criterion_10_final_bound_suite(suite_results):
    aggregate, out, elapsed = suite_results
    assert aggregate["runs_completed"] == SUITE_SEEDS
    assert aggregate["errors"] == []
    # the space-time energy constant is claimed stable across seeds; the
    # pressure constants are held to a resolution-drift bound elsewhere
    assert aggregate["constants"]["c_energy"]["max_rel_deviation"] <= 0.20
    final_fals = [f for f in aggregate["falsifications"] if f["check"] == "final_bound"]
    refined_ok = []
    if final_fals:
        # under-resolution attribution: rerun falsified members at 48^3
        for item in final_fals:
            seed = int(item["run"].split("-")[1])
            sc = random_scenario(seed, npts=48)
            sc.name = f"refine-{seed:02d}"
            mp, _ = simulate(sc, out / "refined")
            traj = trajectory_from_manifest(load_manifest(mp), mp.parent, sc)
            cal = json.loads((out / "seed-00" / "report.json").read_text())
            c_final = float(cal["constants"]["c_final"])
            stats = audit_mod.FieldStats.measure(traj, (), 0)
            rec = audit_mod.check_final_bound(stats, sc.exponent_params(), c_final)
            refined_ok.append(rec.passed)
    ok = (not final_fals or all(refined_ok)) and elapsed < 7200
    detail = (
        f"{SUITE_SEEDS} seeds in {elapsed:.0f}s, calibrated on seed-00, "
        f"{len(final_fals)} falsifications"
    )
    if final_fals:
        detail += f"; all resolved at 48^3: {all(refined_ok)} (under-resolution attributed)"
    announce(10, ok, detail)
