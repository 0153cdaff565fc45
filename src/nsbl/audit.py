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
from .norms import (
    INF,
    level_set_measure,
    power_log_integrals,
    space_norm,
    spacetime_norm,
)
from .solver import Trajectory
from .spectral import cz_pressure

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


class DegenerateField(ValueError):
    pass


class ThresholdTooSmall(ValueError):
    pass


class BadExponents(ValueError):
    pass


@dataclass(eq=False)
class ScaledPsi:
    """|u|^2 time series normalized to unit space-time r-norm."""

    psi: np.ndarray
    a_r: float
    r: float
    psi_tilde: np.ndarray
    grid: object
    times: list[float]

    @cached_property
    def sorted_tilde(self) -> np.ndarray:
        """Each snapshot of psi_tilde sorted ascending, shape (nt, cells):
        the one sort every ladder's measures are read from."""
        return np.sort(self.psi_tilde.reshape(len(self.psi_tilde), -1), axis=1)


@dataclass(eq=False)
class LevelSetLadder:
    """Geometric levels toward a threshold and their super-level measures."""

    threshold: float
    levels: list[float]
    measures: list[float]
    n_max: int

    def reached_zero(self) -> Optional[int]:
        """First rung with zero measure, or None if undecided by n_max."""
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
    """Knobs for one audit pass; exponents default to the ledger params."""

    r: Optional[float] = None
    q: Optional[float] = None
    s_values: tuple = (2.0, 3.0)
    ell_values: Optional[tuple] = None
    n_max: int = 40
    calibration: bool = False

    def effective_r(self, params: ExponentParams) -> float:
        return float(params.r) if self.r is None else float(self.r)

    def effective_q(self, params: ExponentParams) -> float:
        return float(params.q) if self.q is None else float(self.q)

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


@dataclass(eq=False)
class FieldStats:
    """One trajectory's audit quantities, each computed once.

    Holds the stack |u| / m_sigma (the trajectory's own magnitude stack when
    m_sigma is 1), the scaled psi for each r, and the space-time norms and
    log-weighted integrals of these stacks, memoized per (stack, exponent).
    Every check that takes a trajectory also takes a FieldStats, whose
    m_sigma then stands in for the ``m_sigma`` argument; run_audit builds one
    per trajectory and passes it to every check.
    """

    traj: Trajectory
    m_sigma: float = 1.0

    _scaled: Optional[np.ndarray] = field(default=None, repr=False)
    _psi: dict = field(default_factory=dict, repr=False)
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def grid(self):
        return self.traj.grid

    @property
    def times(self) -> list[float]:
        return self.traj.times

    def magnitudes(self) -> np.ndarray:
        """|u| / m_sigma for every snapshot, shape (nt, n, n, n); cached."""
        if self._scaled is None:
            mags = self.traj.magnitudes()
            self._scaled = mags if self.m_sigma == 1.0 else mags / self.m_sigma
        return self._scaled

    def norm(self, stack: np.ndarray, ell: float) -> float:
        """spacetime_norm of a stack this memo (or its trajectory) holds."""
        return self._once("norm", spacetime_norm, stack, ell)

    def log_integrals(self, p: float) -> tuple[float, float, int]:
        """power_log_integrals of |u| / m_sigma at power p:
        (ln I0, I1/I0, clamped cell count)."""
        return self._once("log", power_log_integrals, self.magnitudes(), p)

    def scaled_psi(self, r: float) -> ScaledPsi:
        """The scaled field for exponent r; built once."""
        if r not in self._psi:
            self._psi[r] = build_scaled_psi(self, r)
        return self._psi[r]

    def _once(self, kind, fn, stack, exponent):
        # functions arrive through the module namespace, so patched or
        # wrapped versions are the ones called
        key = (kind, id(stack), exponent)
        if key not in self._memo:
            # the stack rides along, so its id is not reused while the memo lives
            self._memo[key] = (stack, fn(stack, exponent, self.grid, self.times))
        return self._memo[key][1]


def _field_stats(traj, m_sigma: float = 1.0) -> FieldStats:
    """The memo itself, or a fresh one for a bare trajectory."""
    if isinstance(traj, FieldStats):
        return traj
    return FieldStats(traj, m_sigma)


def build_scaled_psi(traj: Trajectory | FieldStats, r: float, m_sigma: float = 1.0) -> ScaledPsi:
    """psi = |u|^2 normalized by its space-time r-norm."""
    if not r > 1:
        raise BadExponents(f"need r > 1, got {r}")
    stats = _field_stats(traj, m_sigma)
    grid, times = stats.grid, stats.times
    if len(times) == 0:
        raise DegenerateField("empty trajectory")
    psi = stats.magnitudes() ** 2
    a_r = spacetime_norm(psi, r, grid, times)
    if a_r == 0.0:
        raise DegenerateField("identically zero field")
    psi_tilde = psi / a_r
    check = spacetime_norm(psi_tilde, r, grid, times)
    if not abs(check - 1.0) <= 1e-6:
        raise DegenerateField(f"normalization drifted: {check}")
    return ScaledPsi(psi, a_r, r, psi_tilde, grid, list(times))


def build_ladder(
    sp: ScaledPsi, k: float, n_max: int, enforce_threshold: bool = True
) -> LevelSetLadder:
    """Levels k_n = k - k/2^(n+1) and their super-level space-time measures."""
    if not k > 0:
        raise ThresholdTooSmall(f"threshold must be positive, got {k}")
    if enforce_threshold:
        initial_sup = float(sp.psi_tilde[0].max())
        if k < 2 * initial_sup:
            raise ThresholdTooSmall(
                f"threshold {k:.6g} below twice the initial sup {initial_sup:.6g}"
            )
    levels = [k - k / 2 ** (n + 1) for n in range(n_max + 1)]
    measures = level_set_measure(sp.sorted_tilde, levels, sp.grid, sp.times)
    return LevelSetLadder(k, levels, measures, n_max)


def estimate_threshold(
    sp: ScaledPsi,
    traj: Trajectory | FieldStats,
    params: ExponentParams,
    ell: float,
    m_sigma: float = 1.0,
) -> float:
    """Threshold guaranteed to dominate the normalized field per the
    estimate chain, assembled from measured norms with generic constants
    set to one and the first split weight fixed at 1/2."""
    N = params.N
    q, j, r, alpha, b = (float(params.q), float(params.j), float(params.r),
                         float(params.alpha), float(params.b))
    if not ell > r:
        raise BadExponents(f"need ell > r, got ell = {ell}, r = {r}")
    stats = _field_stats(traj, m_sigma)
    m_sigma = stats.m_sigma
    mags = stats.magnitudes()
    u2q = stats.norm(mags, 2 * q)
    u0_l2 = space_norm(mags[0], 2.0, stats.grid)
    psinorm = stats.norm(sp.psi_tilde, ell)
    if u2q == 0.0 or psinorm == 0.0 or u0_l2 == 0.0:
        raise DegenerateField("zero field has no nontrivial threshold")
    den = N * q - N - 2
    L1 = 0.5
    t1 = 2.0 * float(sp.psi_tilde[0].max())
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
    traj: Trajectory | FieldStats,
    params: ExponentParams,
    m_sigma: float = 1.0,
    dominating_ladder: Optional[LevelSetLadder] = None,
) -> CheckRecord:
    """Fit the smallest c with y_{n+1} <= c 4^n M^2 ||u||_{2q}^4/(k A_r) y_n^(1+a).

    The fit runs on the given (possibly exploratory) ladder; the vanishing
    condition y_0 <= C^(-1/a) 4^(-1/a^2) for the superlinear recursion is
    then evaluated on the dominating-threshold ladder when one is supplied.
    """
    a = float(params.alpha)
    q = float(params.q)
    stats = _field_stats(traj, m_sigma)
    m_sigma = stats.m_sigma
    u2q = stats.norm(stats.magnitudes(), 2 * q)
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


def check_energy(traj: Trajectory | FieldStats) -> CheckRecord:
    """Residual of the energy identity plus the fitted space-time constant."""
    stats = _field_stats(traj)
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
    lz = (traj.grid.dim + 2) / traj.grid.dim
    mags = traj.magnitudes()
    u0_l2 = space_norm(mags[0], 2.0, traj.grid)
    st_norm = stats.norm(mags, 2 * lz)
    fitted = st_norm / u0_l2
    ok = residual <= ENERGY_RESIDUAL_TOL
    return CheckRecord(
        "energy", residual, ENERGY_RESIDUAL_TOL, fitted, ok,
        ENERGY_RESIDUAL_TOL - residual,
        {"residual": residual, "viscosity": nu, "spacetime_over_initial_l2": fitted},
    )


def check_pressure(traj: Trajectory | FieldStats, s_values,
                   m_sigma: float = 1.0) -> list[CheckRecord]:
    """Per-snapshot ratios ||p||_s / (M^2 ||u||_{2s}^2), one record per s;
    the max over snapshots is c_s.

    One pass over the snapshots: the pressure does not depend on s, so each
    snapshot gets one pressure solve, measured at every s.
    """
    s_values = tuple(float(s) for s in s_values)
    for s in s_values:
        if not s > 1:
            raise BadExponents(f"need s > 1, got {s}")
    stats = _field_stats(traj, m_sigma)
    m_sigma, grid = stats.m_sigma, stats.grid
    ratios = [[] for _ in s_values]
    for i in range(len(stats.times)):
        mag = stats.magnitudes()[i]
        dens = [m_sigma**2 * space_norm(mag, 2 * s, grid) ** 2 for s in s_values]
        if any(dens):
            p = cz_pressure(stats.traj.coeffs[i] / m_sigma, grid, m_sigma)
        for s, den, out in zip(s_values, dens, ratios):
            out.append(space_norm(p.values, s, grid) / den if den else 0.0)
    return [
        CheckRecord(f"pressure_s{s:g}", max(r, default=0.0), 1.0, max(r, default=0.0),
                    True, 0.0, {"ratios": r, "s": s})
        for s, r in zip(s_values, ratios)
    ]


def check_interpolation(traj: Trajectory | FieldStats, ell: float, r: float,
                        m_sigma: float = 1.0) -> CheckRecord:
    """Interpolation bound against the sup norm plus the unit-norm chain."""
    stats = _field_stats(traj, m_sigma)
    lz = (stats.grid.dim + 2) / stats.grid.dim
    if not (math.isfinite(ell) and ell > r >= lz):
        raise BadExponents(f"need inf > ell > r >= {lz:g}, got ell = {ell}, r = {r}")
    f = stats.magnitudes()
    lhs1 = stats.norm(f, 2 * ell)
    sup = stats.norm(f, INF)
    base = stats.norm(f, 2 * lz)
    rhs1 = sup ** (1 - lz / ell) * base ** (lz / ell)
    margin1 = rhs1 - lhs1
    sp = stats.scaled_psi(r)
    psinorm = stats.norm(sp.psi_tilde, ell)
    lhs2 = psinorm ** (ell / (ell - r))
    rhs2 = stats.norm(sp.psi_tilde, INF)
    margin2 = rhs2 - lhs2
    ok = margin1 >= -ROUNDOFF_RTOL * rhs1 and margin2 >= -ROUNDOFF_RTOL * rhs2
    return CheckRecord(
        "interpolation", lhs1, rhs1, 1.0, ok, min(margin1, margin2),
        {"ell": ell, "r": r, "sup_margin": margin1, "unit_chain_margin": margin2,
         "exponent_identity": (1 - r / ell) * (1 + r / (ell - r))},
    )


def log_norm_limit(
    traj: Trajectory | FieldStats,
    r: float,
    params: Optional[ExponentParams] = None,
    m_sigma: float = 1.0,
) -> CheckRecord:
    """Compare the norm-ratio limit against its closed form as ell -> r.

    Also evaluates the convexity bound on the exponential factor when the
    parameter tuple puts r above q with a negative high-norm exponent.
    """
    # the limit is sampled at ell = r + 1e-4 and above, which must differ from r
    if not 1 < r < r + 1e-4:
        raise BadExponents(f"need r > 1 and r + 1e-4 != r in float64, got {r}")
    stats = _field_stats(traj, m_sigma)
    f = stats.magnitudes()
    base = stats.norm(f, 2 * r)
    if base == 0.0:
        return CheckRecord("log_norm_limit", 0.0, 0.0, 0.0, True, 0.0,
                           {"note": "vacuous on the zero field"})
    _, mean_log, clamped = stats.log_integrals(2 * r)
    closed = base ** (-1.0 / r) * math.exp(mean_log / r)
    values, diffs = [], []
    for kk in range(1, 5):
        ell = r + 10.0**-kk
        n2l = stats.norm(f, 2 * ell)
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
        u2q = stats.norm(f, 2 * q)
        u2r = stats.norm(f, 2 * rr)
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


def calibrate_final_constant(
    traj: Trajectory,
    params: ExponentParams,
    margin_factor: float = FINAL_MARGIN_FACTOR,
) -> float:
    """Minimal constant making the final bound hold on this run, widened by
    a safety factor so held-out runs test stability rather than equality."""
    v0max, bracket, vmax = _final_bound_pieces(traj, params)
    if v0max == 0.0:
        return margin_factor
    return margin_factor * vmax / (v0max * bracket)


def _final_bound_pieces(traj: Trajectory, params: ExponentParams):
    mags = traj.magnitudes()
    v0max = float(mags[0].max())
    v0_l2 = space_norm(mags[0], 2.0, traj.grid)
    try:
        d0 = float(params.delta0)
        n_exp = (params.N - 2) * d0 / 2
        bracket = 1.0 + v0max**n_exp * v0_l2**d0 if v0max > 0 else 1.0
    except OverflowError as exc:
        raise BadExponents(f"delta0 = {params.delta0} takes the final bound's bracket "
                           f"beyond float range") from exc
    vmax = float(mags.max())
    return v0max, bracket, vmax


def check_final_bound(
    traj: Trajectory,
    params: ExponentParams,
    c: float,
    delta0=None,
) -> CheckRecord:
    """Sup-norm bound in terms of the initial data; a violation is reported
    as a falsification candidate, never raised."""
    if delta0 is not None:
        params = params.with_sigma(params.sigma, delta0)
    v0max, bracket, vmax = _final_bound_pieces(traj, params)
    rhs = c * v0max * bracket
    ok = vmax <= rhs
    return CheckRecord(
        "final_bound", vmax, rhs, c, ok, rhs - vmax,
        {"initial_sup": v0max, "initial_l2_bracket": bracket,
         "delta0": float(params.delta0)},
    )


def dichotomy_branch(traj: Trajectory | FieldStats, params: ExponentParams,
                     m_sigma: float = 1.0) -> int:
    """Which side of the log-moment dichotomy this run falls on (1 or 2)."""
    r = float(params.r)
    A = float((params.q + params.B) / params.q)
    log_i0, mean_log, _ = _field_stats(traj, m_sigma).log_integrals(2 * r)
    return 1 if mean_log >= (A / (2 * r)) * log_i0 else 2


# ---------------------------------------------------------------------------
# full audit
# ---------------------------------------------------------------------------


def run_audit(
    traj: Trajectory,
    params: ExponentParams,
    spec: AuditSpec,
    constants: Optional[dict] = None,
    run_id: str = "",
) -> AuditReport:
    """Run every check on one trajectory and assemble the report.

    ``constants`` carries fitted constants from a calibration run; missing
    entries are fitted on this run (self-calibration, recorded as such).
    """
    constants = dict(constants or {})
    grid = traj.grid
    r = spec.effective_r(params)
    if len(traj) == 0:
        raise DegenerateField("empty trajectory")
    mags = traj.magnitudes()
    vmax = float(mags.max())
    lo, hi = AMPLITUDE_RANGE
    if vmax != 0.0 and not lo <= vmax <= hi:
        raise DegenerateField(f"sup |u| = {vmax:.3g} is outside the audited range [{lo:g}, {hi:g}]")
    v0max = float(mags[0].max())
    try:
        m_sigma = v0max ** float(params.sigma) if v0max > 0 else 1.0
    except OverflowError:
        m_sigma = math.inf
    if not lo <= m_sigma <= hi:
        raise BadExponents(f"sigma = {params.sigma} takes M_sigma = (sup |u0|)^sigma outside "
                           f"the audited range [{lo:g}, {hi:g}]")

    stats = FieldStats(traj, m_sigma)

    checks: list[CheckRecord] = []
    checks.append(check_energy(stats))
    constants.setdefault("c_energy", checks[-1].fitted_constant)
    for rec in check_pressure(stats, spec.s_values):
        checks.append(rec)
        constants.setdefault(f"c_{rec.check_id}", rec.fitted_constant)

    degenerate = v0max == 0.0
    branch = None
    if not degenerate:
        sp = stats.scaled_psi(r)
        for ell in spec.effective_ells(r):
            checks.append(check_interpolation(stats, float(ell), r))
        checks.append(log_norm_limit(stats, r, params))
        ell0 = spec.effective_ells(r)[0]
        if spec.ell_values is None and not ell0 > float(params.r):
            # the threshold's chain runs at the ledger's r, whatever r the
            # audit overrides; its default ell must exceed that r
            ell0 = float(params.r) + 1.0
        k_dom = estimate_threshold(sp, stats, params, ell0)
        dom_ladder = build_ladder(sp, k_dom, spec.n_max, enforce_threshold=True)
        # exploratory ladder keyed to a bulk quantile: far stabler across
        # seeds than anything keyed to the sup
        k_fit = 2.0 * float(np.quantile(sp.psi_tilde, 0.90))
        fit_ladder = build_ladder(sp, k_fit, spec.n_max, enforce_threshold=False)
        rec = check_recursion(fit_ladder, sp, stats, params,
                              dominating_ladder=dom_ladder)
        checks.append(rec)
        constants.setdefault("c_recursion", rec.fitted_constant)
        branch = dichotomy_branch(stats, params)

    if "c_final" not in constants:
        constants["c_final"] = calibrate_final_constant(traj, params)
        constants["c_final_self_calibrated"] = True
    checks.append(check_final_bound(traj, params, constants["c_final"]))

    env = {
        "grid_npts": grid.npts,
        "grid_length": grid.length,
        "dt": traj.config.dt,
        "t_final": traj.config.t_final,
        "viscosity": traj.config.viscosity,
        "scheme": traj.config.scheme,
        "snapshots": len(traj),
        "sigma": str(params.sigma),
        "m_sigma": m_sigma,
        "audit_r": r,
        "audit_q": spec.effective_q(params),
        "dichotomy_branch": branch,
        "viscous_number": traj.config.viscous_number(grid),
    }
    return AuditReport(run_id, checks, constants, env)
