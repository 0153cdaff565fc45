"""Inequality audits over solver trajectories.

Every quantity in the boundedness estimate chain is measured on a discrete
trajectory and each inequality is checked with a fitted generic constant:
the minimal constant is fitted on a calibration run and its stability is
tested on held-out runs.  A violated inequality is report content, never an
assertion failure.

All space-time integrals run over the stored snapshots with trapezoidal
time weights; the domain is the periodic torus surrogate of decaying
whole-space data, and every report records that deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .ledger import ExponentParams
from .norms import INF, BadExponents, PowerTable, level_set_measure, sorted_quantile
from .solver import Trajectory
from .spectral import NotDivergenceFree, TorusGrid, cz_pressure, over_snapshots, speed

__all__ = [
    "DegenerateField",
    "ThresholdTooSmall",
    "BadExponents",
    "FieldStats",
    "ScaledPsi",
    "LevelSetLadder",
    "CheckRecord",
    "AuditSpec",
    "AuditReport",
    "build_scaled_psi",
    "build_ladder",
    "estimate_threshold",
    "check_recursion",
    "check_energy",
    "check_pressure",
    "check_interpolation",
    "log_norm_limit",
    "check_final_bound",
    "calibrate_final_constant",
    "dichotomy_branch",
    "constant_key",
    "audit_exponents",
    "run_audit",
]

DOMAIN_NOTE = "periodic torus surrogate for decaying whole-space data"

# relative slack granted to inequalities that hold exactly in the discrete
# quadrature, to absorb floating-point roundoff
ROUNDOFF_RTOL = 1e-10

ENERGY_RESIDUAL_TOL = 1e-5

FINAL_MARGIN_FACTOR = 1.5

# sup |u| an audit accepts (besides 0): squares of |u| and the pressure's
# grid sums must stay well inside float64
AMPLITUDE_RANGE = (1e-100, 1e100)

# the energy norm and the interpolation base are taken at 2 LZ
LZ = (TorusGrid.dim + 2) / TorusGrid.dim

# the log-moment clamps |u| / m_sigma below this and counts the cells
LOG_CLAMP = 1e-300


class DegenerateField(ValueError):
    pass


class ThresholdTooSmall(ValueError):
    pass


@dataclass(eq=False)
class LevelSetLadder:
    """Geometric levels toward a threshold and their super-level measures."""

    threshold: float
    levels: list[float]
    measures: list[float]

    def reached_zero(self) -> Optional[int]:
        """First rung with zero measure, or None if undecided on the ladder."""
        for n, y in enumerate(self.measures):
            if y == 0.0:
                return n
        return None


@dataclass(eq=False)
class CheckRecord:
    check_id: str
    lhs: float
    rhs: float
    fitted_constant: float
    passed: bool
    margin: float
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "id": self.check_id,
            "lhs": repr(float(self.lhs)),
            "rhs": repr(float(self.rhs)),
            "fitted_constant": repr(float(self.fitted_constant)),
            "pass": bool(self.passed),
            "margin": repr(float(self.margin)),
            "extra": _jsonify(self.extra),
        }


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return repr(float(obj))
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


@dataclass
class AuditSpec:
    """Knobs for one audit pass; r defaults to the ledger's, and q is always
    the ledger's."""

    r: Optional[float] = None
    s_values: tuple = (2.0, 3.0)
    ell_values: Optional[tuple] = None
    n_max: int = 40
    calibration: bool = False

    def effective_r(self, params: ExponentParams) -> float:
        return float(params.r) if self.r is None else float(self.r)

    def effective_ells(self, r: float) -> tuple:
        if self.ell_values is None:
            return (r + 1.0,)
        return tuple(float(x) for x in self.ell_values)


@dataclass(eq=False)
class AuditReport:
    run_id: str
    checks: list[CheckRecord]
    constants: dict
    environment: dict

    def falsifications(self) -> list[str]:
        return [c.check_id for c in self.checks if not c.passed]

    def as_dict(self) -> dict:
        return {
            "format": "nsbl-report/1",
            "run_id": self.run_id,
            "domain": DOMAIN_NOTE,
            "constants": _jsonify(self.constants),
            "environment": _jsonify(self.environment),
            "checks": [c.as_dict() for c in self.checks],
            "falsifications": self.falsifications(),
        }


# ---------------------------------------------------------------------------
# scaled field and ladders
# ---------------------------------------------------------------------------


def _audited(x: float) -> bool:
    lo, hi = AMPLITUDE_RANGE
    return lo <= x <= hi


def _m_sigma(v0max: float, sigma) -> float:
    """M_sigma = (sup |u0|)^sigma, 1 for the zero field, inf beyond float64."""
    try:
        return v0max ** float(sigma) if v0max > 0 else 1.0
    except OverflowError:
        return math.inf


@dataclass(eq=False)
class FieldStats:
    """One trajectory's audit quantities, each computed once; every check
    takes one.

    ``measure`` makes the audit's one velocity pass and builds it: the |u|
    stack ``mags``, the sup of each snapshot, the pressure ratios at each
    exponent s, M_sigma, the power table of |u| and the count of cells the
    log-moment clamps.  Every norm and log-moment a check reads comes from
    the table, with M_sigma put back analytically."""

    traj: Trajectory
    s_values: tuple
    mags: np.ndarray
    sups: np.ndarray
    # per s, the ratio ||p||_s / ||u||_2s^2 of each snapshot
    pressure: tuple
    m_sigma: float
    powers: PowerTable
    # cells with |u| / m_sigma below LOG_CLAMP, over all snapshots
    clamped: int

    @classmethod
    def measure(cls, traj: Trajectory, s_values, sigma, exponents=(),
                log_exponents=()) -> "FieldStats":
        """The audit's one pass over the snapshots: each band is inverted
        once, and the velocity gives the snapshot's |u| (written into the
        stack), its sup and one pressure solve.

        One logarithm of |u| / sup per snapshot gives every power sum of
        |u| (a ``PowerTable``): at each of ``exponents``, at 2 for
        ||u0||_2 and at 2s, and the log-moments at ``log_exponents``.  One
        of |p| / max |p| gives the pressure's at each s.

        The pressure is solved on the band as stored: the bound is
        homogeneous of degree 2, so the ratios are the same at every scale
        M_sigma = (sup |u0|)^sigma.  An s not above 1 and times that do not
        increase are refused before the pass.  After it come, in this
        order: a sup outside AMPLITUDE_RANGE, an M_sigma outside it, and
        the first snapshot in time that is not divergence-free or whose sup
        is outside the range (it gets no pressure).
        """
        if len(traj) == 0:
            raise DegenerateField("empty trajectory")
        s_values = tuple(float(s) for s in s_values)
        for s in s_values:
            if not s > 1:
                raise BadExponents(f"need s > 1, got {s}")
        grid, band, coeffs, nt = traj.grid, traj.grid.band, traj.coeffs, len(traj.coeffs)
        powers = PowerTable.empty((2.0, *exponents, *(2 * s for s in s_values)),
                                  log_exponents, traj.times, grid)
        pressures = PowerTable.empty(s_values, (), traj.times, grid)
        mags, sups, minima = np.empty((nt,) + (grid.npts,) * 3), powers.sups, np.empty(nt)

        def measured(i):
            u = band.inverse(coeffs[i])
            sup = sups[i] = speed(u, out=mags[i]).max()
            minima[i] = mags[i].min()
            if sup == 0.0 or not _audited(sup):
                return sup == 0.0
            try:
                p = cz_pressure(coeffs[i], u, grid)
            except NotDivergenceFree as exc:
                return exc
            # the sums' two temporaries are formed once the velocity is gone
            del u
            powers.add(i, mags[i])
            pressures.sups[i] = max(p.max(), -p.min())
            pressures.add(i, p)
            return True

        rows = over_snapshots(measured, nt)
        vmax = float(sups.max())
        lo, hi = AMPLITUDE_RANGE
        if vmax != 0.0 and not _audited(vmax):
            raise DegenerateField(f"sup |u| = {vmax:.3g} is outside the audited range [{lo:g}, {hi:g}]")
        m_sigma = _m_sigma(float(sups[0]), sigma)
        if not _audited(m_sigma):
            raise BadExponents(f"sigma = {sigma} takes M_sigma = (sup |u0|)^sigma outside "
                               f"the audited range [{lo:g}, {hi:g}]")
        for i, row in enumerate(rows):
            if isinstance(row, NotDivergenceFree):
                raise row
            if row is False:
                raise DegenerateField(f"snapshot {i}: sup |u| = {sups[i]:.3g} "
                                      "is outside the audited range")
        pressure = tuple([pressures.space_norm(i, s) / powers.space_norm(i, 2 * s) ** 2
                          if sups[i] else 0.0 for i in range(nt)] for s in s_values)
        # a snapshot holds a clamped cell only if its min does
        clamped = sum(int(np.count_nonzero(mags[i] / m_sigma < LOG_CLAMP))
                      for i in np.flatnonzero(minima / m_sigma < LOG_CLAMP))
        return cls(traj, s_values, mags, sups, pressure, m_sigma, powers, clamped)

    @property
    def grid(self):
        return self.traj.grid

    @property
    def times(self) -> list[float]:
        return self.traj.times

    @property
    def u0_l2(self) -> float:
        """||u0||_2 as measured."""
        return self.powers.space_norm(0, 2.0)

    def norm(self, e: float) -> float:
        """The space-time e-norm of |u| / m_sigma; e = INF gives its sup."""
        return self.powers.norm(e, self.m_sigma)

    def log_integrals(self, p: float) -> tuple[float, float, int]:
        """(ln I0, I1/I0, clamped cell count) of f = |u| / m_sigma at power
        p, for I0 = integral |f|^p and I1 = integral |f|^p ln|f|."""
        return (*self.powers.log_integrals(p, self.m_sigma), self.clamped)


@dataclass(eq=False)
class ScaledPsi:
    """psi_tilde = (|u| / m_sigma)^2 / a_r, of unit space-time r-norm; its
    norms are ||u / m_sigma||_2ell^2 / a_r, and the field itself is formed
    only to be sorted, one snapshot at a time, in ``sorted_tilde``."""

    a_r: float
    r: float
    stats: FieldStats

    def norm(self, ell: float) -> float:
        """||psi_tilde||_ell; ell = INF gives its sup."""
        n = self.stats.norm(2 * ell)
        return n * n / self.a_r

    @cached_property
    def sorted_tilde(self) -> np.ndarray:
        """Each snapshot of psi_tilde sorted ascending, shape (nt, cells):
        the one sort every ladder's measures and the quantile are read from.

        The same pass re-measures ||psi_tilde||_r from the sorted values, so
        a wrong a_r shows: a norm off 1 by more than 1e-6 raises."""
        stats, a_r, r = self.stats, self.a_r, self.r
        out = np.empty((len(stats.mags), stats.mags[0].size))
        check = PowerTable.empty((r,), (), stats.times, stats.grid)

        def fill(i):
            g = out[i]
            np.divide(stats.mags[i].ravel(), stats.m_sigma, out=g)
            np.square(g, out=g)
            g /= a_r
            g.sort()
            check.sups[i] = g[-1]
            check.add(i, g)

        over_snapshots(fill, len(out))
        if not abs(check.norm(r) - 1.0) <= 1e-6:
            raise DegenerateField(f"normalization drifted: {check.norm(r)}")
        return out


def build_scaled_psi(stats: FieldStats, r: float) -> ScaledPsi:
    """psi = (|u| / m_sigma)^2 normalized by its space-time r-norm,
    a_r = ||psi||_r = ||u / m_sigma||_2r^2, read from the table."""
    if not r > 1:
        raise BadExponents(f"need r > 1, got {r}")
    n = stats.norm(2 * r)
    a_r = n * n
    if a_r == 0.0:
        raise DegenerateField("identically zero field")
    return ScaledPsi(a_r, r, stats)


def build_ladder(
    sp: ScaledPsi, k: float, n_max: int, enforce_threshold: bool = True
) -> LevelSetLadder:
    """Levels k_n = k - k/2^(n+1) and their super-level space-time measures."""
    if not k > 0:
        raise ThresholdTooSmall(f"threshold must be positive, got {k}")
    if enforce_threshold:
        initial_sup = float(sp.sorted_tilde[0, -1])
        if k < 2 * initial_sup:
            raise ThresholdTooSmall(
                f"threshold {k:.6g} below twice the initial sup {initial_sup:.6g}"
            )
    levels = [k - k / 2 ** (n + 1) for n in range(n_max + 1)]
    measures = level_set_measure(sp.sorted_tilde, levels, sp.stats.grid, sp.stats.times)
    return LevelSetLadder(k, levels, measures)


def estimate_threshold(sp: ScaledPsi, params: ExponentParams, ell: float) -> float:
    """Threshold guaranteed to dominate the normalized field per the
    estimate chain, assembled from measured norms with generic constants
    set to one and the first split weight fixed at 1/2."""
    N = params.N
    q, j, r, alpha, b = (float(params.q), float(params.j), float(params.r),
                         float(params.alpha), float(params.b))
    if not ell > r:
        raise BadExponents(f"need ell > r, got ell = {ell}, r = {r}")
    stats = sp.stats
    m_sigma = stats.m_sigma
    u2q = stats.norm(2 * q)
    u0_l2 = stats.powers.space_norm(0, 2.0, m_sigma)
    psinorm = sp.norm(ell)
    if u2q == 0.0 or psinorm == 0.0 or u0_l2 == 0.0:
        raise DegenerateField("zero field has no nontrivial threshold")
    den = N * q - N - 2
    L1 = 0.5
    t1 = 2.0 * float(sp.sorted_tilde[0, -1])
    try:
        ln_L2 = -math.log(8.0) - (2 * (N + 2) / den) * math.log(u0_l2)
        beta1 = j * ell / ((r - 2 * j) * (ell - r))
        t2 = L1 * psinorm ** (ell / (ell - r))
        t3 = math.exp(ln_L2 - math.log(sp.a_r) + (2 * N * q / den) * math.log(u2q))
        ln_t4 = (
            (2 / ((r - 2 * j) * alpha)) * math.log(m_sigma)
            - (j / (r - 2 * j)) * math.log(L1)
            - ((1 + j * alpha) / ((r - 2 * j) * alpha)) * ln_L2
            - beta1 * math.log(psinorm)
            + (j / (r - 2 * j)) * math.log(sp.a_r)
            + (b / ((r - 2 * j) * alpha)) * math.log(u2q)
        )
        k = t1 + t2 + t3 + math.exp(ln_t4)
    except ZeroDivisionError as exc:
        # r = 2j, or alpha so small that (r - 2j) alpha is 0 in float64
        raise BadExponents(f"threshold exponents are singular at r = {r:g}, j = {j:g}, "
                           f"alpha = {alpha:g}") from exc
    except (OverflowError, ValueError) as exc:
        # ValueError: the log of an m_sigma that underflowed to 0
        raise DegenerateField(f"dominating threshold is outside float64: {exc}") from exc
    if not math.isfinite(k):
        raise DegenerateField(f"dominating threshold is outside float64: {k}")
    return k


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def fit_recursion_constant(measures, alpha: float, prefactor: float):
    """Smallest c with y_{n+1} <= c 4^n prefactor y_n^(1+alpha) on all rungs
    with y_n > 0; returns (c, number of contributing rungs).  An all-zero
    ladder yields the 0 sentinel."""
    fitted, pairs = 0.0, 0
    for n in range(len(measures) - 1):
        yn, yn1 = measures[n], measures[n + 1]
        if yn > 0.0:
            pairs += 1
            try:
                fitted = max(fitted, yn1 / (4.0**n * prefactor * yn ** (1 + alpha)))
            except OverflowError:  # a weight beyond float64 bounds nothing
                pass
            except ZeroDivisionError as exc:
                raise DegenerateField(f"recursion rung {n}: its weight 4^n * {prefactor:g} "
                                      f"* y_n^(1+a) underflows to 0") from exc
    return fitted, pairs


def check_recursion(
    ladder: LevelSetLadder,
    sp: ScaledPsi,
    params: ExponentParams,
    dominating_ladder: Optional[LevelSetLadder] = None,
) -> CheckRecord:
    """Fit the smallest c with y_{n+1} <= c 4^n M^2 ||u||_{2q}^4/(k A_r) y_n^(1+a).

    The fit runs on the given (possibly exploratory) ladder; the vanishing
    condition y_0 <= C^(-1/a) 4^(-1/a^2) for the superlinear recursion is
    then evaluated on the dominating-threshold ladder when one is supplied.
    """
    a = float(params.alpha)
    q = float(params.q)
    m_sigma = sp.stats.m_sigma
    u2q = sp.stats.norm(2 * q)
    try:
        prefactor = m_sigma**2 * u2q**4 / (ladder.threshold * sp.a_r)
    except OverflowError as exc:
        raise DegenerateField("recursion prefactor M^2 |u|_2q^4 / (k A_r) is outside "
                              "float64") from exc
    fitted, pairs = fit_recursion_constant(ladder.measures, a, prefactor)
    status = "decided_zero" if ladder.reached_zero() is not None else "undecided"
    extra = {
        "fit_threshold": ladder.threshold,
        "levels": list(ladder.levels),
        "measures": list(ladder.measures),
        "nontrivial_pairs": pairs,
        "ladder_status": status,
        "u_2q_norm": u2q,
    }
    if dominating_ladder is None:
        dominating_ladder = ladder
    y0 = dominating_ladder.measures[0]
    extra["dominating_threshold"] = dominating_ladder.threshold
    extra["dominating_y0"] = y0
    extra["dominating_measures"] = list(dominating_ladder.measures)
    extra["dominating_reached_zero"] = dominating_ladder.reached_zero()
    big_c = fitted * m_sigma**2 * u2q**4 / (dominating_ladder.threshold * sp.a_r)
    if big_c == 0.0:
        # vacuous: nothing above any level, the limit is zero outright
        bound = math.inf
        ok = True
    else:
        try:
            bound = big_c ** (-1.0 / a) * 4.0 ** (-1.0 / a**2)
        except OverflowError:  # beyond float64, so above any measure
            bound = math.inf
        ok = y0 <= bound
    return CheckRecord(
        "recursion", y0, bound if math.isfinite(bound) else 0.0, fitted, ok,
        (bound - y0) if math.isfinite(bound) else 0.0, extra,
    )


def check_energy(stats: FieldStats) -> CheckRecord:
    """Residual of the energy identity plus the fitted space-time constant."""
    traj = stats.traj
    nu = traj.config.viscosity
    band = traj.grid.band
    energies = [0.5 * band.volume * band.sum_squares(c) for c in traj.coeffs]
    e0 = energies[0]
    if e0 == 0.0:
        return CheckRecord("energy", 0.0, 0.0, 0.0, True, 0.0,
                           {"residual": 0.0, "note": "vacuous on the zero field"})
    residual = max(
        abs(e + d - e0) / e0 for e, d in zip(energies, traj.dissipation)
    )
    st_norm = stats.powers.norm(2 * LZ)
    fitted = st_norm / stats.u0_l2
    ok = residual <= ENERGY_RESIDUAL_TOL
    return CheckRecord(
        "energy", residual, ENERGY_RESIDUAL_TOL, fitted, ok,
        ENERGY_RESIDUAL_TOL - residual,
        {"residual": residual, "viscosity": nu, "spacetime_over_initial_l2": fitted},
    )


def check_pressure(stats: FieldStats) -> list[CheckRecord]:
    """One record per exponent s of the ratios ||p||_s / ||u||_{2s}^2 that
    ``FieldStats.measure`` took of each snapshot; the max over snapshots
    is c_s."""
    return [
        CheckRecord(f"pressure_s{s:g}", max(r, default=0.0), 1.0, max(r, default=0.0),
                    True, 0.0, {"ratios": r, "s": s})
        for s, r in zip(stats.s_values, stats.pressure)
    ]


def check_interpolation(stats: FieldStats, ell: float, r: float) -> CheckRecord:
    """Interpolation bound against the sup norm plus the unit-norm chain."""
    if not (math.isfinite(ell) and ell > r >= LZ):
        raise BadExponents(f"need inf > ell > r >= {LZ:g}, got ell = {ell}, r = {r}")
    lhs1 = stats.norm(2 * ell)
    sup = stats.norm(INF)
    base = stats.norm(2 * LZ)
    rhs1 = sup ** (1 - LZ / ell) * base ** (LZ / ell)
    margin1 = rhs1 - lhs1
    sp = build_scaled_psi(stats, r)
    lhs2 = sp.norm(ell) ** (ell / (ell - r))
    rhs2 = sp.norm(INF)
    margin2 = rhs2 - lhs2
    ok = margin1 >= -ROUNDOFF_RTOL * rhs1 and margin2 >= -ROUNDOFF_RTOL * rhs2
    return CheckRecord(
        "interpolation", lhs1, rhs1, 1.0, ok, min(margin1, margin2),
        {"ell": ell, "r": r, "sup_margin": margin1, "unit_chain_margin": margin2,
         "exponent_identity": (1 - r / ell) * (1 + r / (ell - r))},
    )


def log_norm_limit(
    stats: FieldStats,
    r: float,
    params: Optional[ExponentParams] = None,
) -> CheckRecord:
    """Compare the norm-ratio limit against its closed form as ell -> r.

    Also evaluates the convexity bound on the exponential factor when the
    parameter tuple puts r above q with a negative high-norm exponent.
    """
    # the limit is sampled at ell = r + 1e-4 and above, which must differ from r
    if not 1 < r < r + 1e-4:
        raise BadExponents(f"need r > 1 and r + 1e-4 != r in float64, got {r}")
    base = stats.norm(2 * r)
    if base == 0.0:
        return CheckRecord("log_norm_limit", 0.0, 0.0, 0.0, True, 0.0,
                           {"note": "vacuous on the zero field"})
    _, mean_log, clamped = stats.log_integrals(2 * r)
    closed = base ** (-1.0 / r) * math.exp(mean_log / r)
    values, diffs = [], []
    for ell in _limit_ells(r):
        n2l = stats.norm(2 * ell)
        val = math.exp(math.log(n2l / base) / (ell - r))
        values.append(val)
        diffs.append(abs(val - closed))
    orders = [
        math.log10(diffs[i] / diffs[i + 1])
        for i in range(3)
        if diffs[i + 1] > 0 and diffs[i] > 0
    ]
    order = float(np.median(orders)) if orders else math.inf
    converged = diffs[-1] <= max(1e-10, 1e-8 * closed) or all(
        d2 < d1 for d1, d2 in zip(diffs, diffs[1:])
    )
    extra = {
        "closed_form": closed,
        "values": values,
        "diffs": diffs,
        "convergence_order": order,
        "clamped_cells": clamped,
    }
    ok = converged
    if params is not None and params.r > params.q and params.b < 0:
        q, j = float(params.q), float(params.j)
        al, b = float(params.alpha), float(params.b)
        rr = float(params.r)
        _, mean_log_r, _ = stats.log_integrals(2 * rr)
        i_one = math.exp(b * (rr - q) * mean_log_r / (2 * al * q * (rr - 2 * j)))
        u2q = stats.norm(2 * q)
        u2r = stats.norm(2 * rr)
        jensen_rhs = u2q ** (-b / (2 * al * (rr - 2 * j))) * u2r ** (
            b * rr / (2 * al * (rr - 2 * j) * q)
        )
        jensen_ok = i_one <= jensen_rhs * (1 + ROUNDOFF_RTOL)
        extra["jensen_lhs"] = i_one
        extra["jensen_rhs"] = jensen_rhs
        extra["jensen_pass"] = jensen_ok
        ok = ok and jensen_ok
    return CheckRecord("log_norm_limit", diffs[-1], closed, order, ok,
                       -diffs[-1], extra)


def calibrate_final_constant(stats: FieldStats, params: ExponentParams) -> float:
    """Minimal constant making the final bound hold on this run, widened by
    a safety factor so held-out runs test stability rather than equality."""
    v0max, bracket, vmax = _final_bound_pieces(stats, params)
    if v0max == 0.0:
        return FINAL_MARGIN_FACTOR
    return FINAL_MARGIN_FACTOR * vmax / (v0max * bracket)


def _final_bound_pieces(stats: FieldStats, params: ExponentParams):
    sups = stats.sups
    v0max = float(sups[0])
    v0_l2 = stats.u0_l2
    try:
        d0 = float(params.delta0)
        n_exp = (params.N - 2) * d0 / 2
        bracket = 1.0 + v0max**n_exp * v0_l2**d0 if v0max > 0 else 1.0
    except OverflowError as exc:
        raise BadExponents(f"delta0 = {params.delta0} takes the final bound's bracket "
                           f"beyond float range") from exc
    vmax = float(sups.max())
    return v0max, bracket, vmax


def check_final_bound(stats: FieldStats, params: ExponentParams, c: float) -> CheckRecord:
    """Sup-norm bound in terms of the initial data; a violation is reported
    as a falsification candidate, never raised."""
    v0max, bracket, vmax = _final_bound_pieces(stats, params)
    rhs = c * v0max * bracket
    ok = vmax <= rhs
    return CheckRecord(
        "final_bound", vmax, rhs, c, ok, rhs - vmax,
        {"initial_sup": v0max, "initial_l2_bracket": bracket,
         "delta0": float(params.delta0)},
    )


def dichotomy_branch(stats: FieldStats, params: ExponentParams) -> int:
    """Which side of the log-moment dichotomy this run falls on (1 or 2)."""
    r = float(params.r)
    A = float((params.q + params.B) / params.q)
    log_i0, mean_log, _ = stats.log_integrals(2 * r)
    return 1 if mean_log >= (A / (2 * r)) * log_i0 else 2


# ---------------------------------------------------------------------------
# full audit
# ---------------------------------------------------------------------------


def constant_key(check_id: str) -> str | None:
    """Registry name of a check whose fitted value is a genuine constant."""
    if check_id in ("energy", "recursion") or check_id.startswith("pressure_"):
        return f"c_{check_id}"
    return "c_final" if check_id == "final_bound" else None


def _limit_ells(r: float) -> list[float]:
    """The ell at which ``log_norm_limit`` samples the norm ratio toward r."""
    return [r + 10.0**-k for k in range(1, 5)]


def _threshold_ell(params: ExponentParams, spec: AuditSpec, r: float) -> float:
    """The ell of ``run_audit``'s dominating threshold: the audit's first.
    The threshold's chain runs at the ledger's r, whatever r the audit
    overrides, so a default ell must exceed that r."""
    ell0 = spec.effective_ells(r)[0]
    if spec.ell_values is None and not ell0 > float(params.r):
        ell0 = float(params.r) + 1.0
    return ell0


def audit_exponents(params: ExponentParams, spec: AuditSpec) -> tuple[list, list]:
    """(exponents, log_exponents): every e at which ``run_audit``'s checks
    read a space-time norm of |u| / m_sigma, and every p at which they read
    its log-moment; ``FieldStats.measure`` adds the pressure's 2s and the 2
    of ||u0||_2.  An exponent below 1 or infinite comes only from an r or
    ell that a check refuses before it reads, so it is left out."""
    r, ledger_r = spec.effective_r(params), float(params.r)
    halves = (*spec.effective_ells(r), _threshold_ell(params, spec, r), *_limit_ells(r),
              r, ledger_r, LZ, float(params.q))
    exponents = sorted({2 * x for x in halves if 1 <= 2 * x < INF})
    return exponents, sorted({p for p in (2 * r, 2 * ledger_r) if p in exponents})


def run_audit(
    traj: Trajectory,
    params: ExponentParams,
    spec: AuditSpec,
    constants: Optional[dict] = None,
    run_id: str = "",
) -> AuditReport:
    """Run every check on one trajectory's ``FieldStats.measure`` and
    assemble the report.

    ``constants`` carries fitted constants from a calibration run; missing
    entries are fitted on this run (self-calibration, recorded as such).
    """
    # exact ledger values the checks take as floats; one beyond float64
    # is refused here, by name, instead of overflowing inside a check
    for key in ("N", "q", "B", "j", "r", "alpha", "b", "sigma", "delta0"):
        try:
            float(getattr(params, key))
        except OverflowError as exc:
            raise BadExponents(f"ledger {key} is beyond float64 range") from exc
    constants = dict(constants or {})
    grid = traj.grid
    r = spec.effective_r(params)
    stats = FieldStats.measure(traj, spec.s_values, params.sigma,
                               *audit_exponents(params, spec))
    checks = [check_energy(stats), *check_pressure(stats)]

    branch = None
    if stats.sups[0] != 0.0:
        sp = build_scaled_psi(stats, r)
        for ell in spec.effective_ells(r):
            checks.append(check_interpolation(stats, float(ell), r))
        checks.append(log_norm_limit(stats, r, params))
        k_dom = estimate_threshold(sp, params, _threshold_ell(params, spec, r))
        dom_ladder = build_ladder(sp, k_dom, spec.n_max, enforce_threshold=True)
        # exploratory ladder keyed to a bulk quantile: far stabler across
        # seeds than anything keyed to the sup
        k_fit = 2.0 * sorted_quantile(sp.sorted_tilde, 0.90)
        fit_ladder = build_ladder(sp, k_fit, spec.n_max, enforce_threshold=False)
        checks.append(check_recursion(fit_ladder, sp, params, dominating_ladder=dom_ladder))
        branch = dichotomy_branch(stats, params)

    if "c_final" not in constants:
        constants["c_final"] = calibrate_final_constant(stats, params)
        constants["c_final_self_calibrated"] = True
    checks.append(check_final_bound(stats, params, constants["c_final"]))
    for c in checks:
        key = constant_key(c.check_id)
        if key is not None:
            constants.setdefault(key, c.fitted_constant)

    env = {
        "grid_npts": grid.npts,
        "grid_length": grid.length,
        "dt": traj.config.dt,
        "t_final": traj.config.t_final,
        "viscosity": traj.config.viscosity,
        "scheme": "rk4",
        "snapshots": len(traj),
        "sigma": str(params.sigma),
        "m_sigma": stats.m_sigma,
        "audit_r": r,
        "audit_q": float(params.q),
        "dichotomy_branch": branch,
        "viscous_number": traj.config.viscous_number(grid),
    }
    return AuditReport(run_id, checks, constants, env)
