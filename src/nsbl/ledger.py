"""Exact-rational evaluation and feasibility search for the exponent system.

The boundedness estimate chain hinges on a tuple of parameters
(N, q, B, K, delta, j, r, sigma) tied together by a web of strict
inequalities.  This module evaluates every one of those inequalities in
exact rational arithmetic, cross-validates the equivalent algebraic forms
of the derived exponents, and searches a deterministic lattice for a
fully certified tuple.

Generic multiplicative constants are never pinned here: every check is a
sign or ordering condition between exact rationals (square roots are
compared exactly by squaring).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

from .enclosure import SqrtAffine, pow_bounds, round_down, round_up

__all__ = [
    "DomainError",
    "DegenerateCoefficient",
    "SearchExhausted",
    "ConstraintReport",
    "ExponentParams",
    "KInterval",
    "parse_exact",
    "lambda_z",
    "alpha",
    "b_exponent",
    "b_exponent_forms",
    "big_m",
    "big_m_forms",
    "alpha_j_interval_sup",
    "m_delta",
    "m_delta_forms",
    "k_interval",
    "ratio_gates",
    "k_limit_ratio",
    "j_lower_bounds",
    "r_feasible",
    "constraint_suite",
    "diagnostics",
    "feasible",
    "select_parameters",
    "sigma_solve",
    "recursion_limit",
    "recursion_limit_bounds",
]

Rat = Union[int, str, Fraction]


class DomainError(ValueError):
    """A quantity was requested outside its domain of definition."""


class DegenerateCoefficient(ValueError):
    """The scaling-exponent equation has a vanishing leading coefficient."""


class SearchExhausted(RuntimeError):
    """No certified tuple exists on the search lattice below the ceiling."""


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def parse_exact(key: str, value, integer: bool = False):
    """``value``, a number or its text, as an exact rational (an int if
    ``integer``); DomainError naming ``key`` if it is not one."""
    try:
        x = Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"{key} = {value!r} is not a rational number") from exc
    if integer and x.denominator != 1:
        raise DomainError(f"{key} = {value!r} is not an integer")
    return int(x) if integer else x


# ---------------------------------------------------------------------------
# elementary derived exponents
# ---------------------------------------------------------------------------


def lambda_z(N: int) -> Fraction:
    """Space-time interpolation index (N+2)/N."""
    if N < 3:
        raise DomainError(f"dimension must be >= 3, got {N}")
    return Fraction(N + 2, N)


def alpha(N: int, q: Rat) -> Fraction:
    """Superlinearity gain 2(q-N-2)/(q(N+2)); positive only for q > N+2."""
    q = _frac(q)
    if N < 3:
        raise DomainError(f"dimension must be >= 3, got {N}")
    if q <= N + 2:
        raise DomainError(f"need q > N+2 = {N + 2}, got q = {q}")
    return 2 * (q - N - 2) / (q * (N + 2))


def b_exponent_forms(N: int, q: Rat, j: Rat) -> tuple[Fraction, Fraction, Fraction]:
    """The three equivalent algebraic forms of the high-norm exponent b."""
    q, j = _frac(q), _frac(j)
    if j < 0:
        raise DomainError(f"need j >= 0, got {j}")
    a = alpha(N, q)
    den = N * q - N - 2
    f1 = 4 - 2 * (j * a + 1) * N * q / den
    f2 = 2 * (N * q - 2 * (N + 2)) / den - 2 * N * q * a * j / den
    f3 = (2 * N * q / den) * (Fraction(N * q - 2 * (N + 2), N * q) - a * j)
    return f1, f2, f3


def b_exponent(N: int, q: Rat, j: Rat) -> Fraction:
    return b_exponent_forms(N, q, j)[0]


def alpha_j_interval_sup(N: int, q: Rat) -> Fraction:
    """Supremum of the admissible range for the product alpha*j."""
    q = _frac(q)
    a = alpha(N, q)
    return Fraction(N * q - 2 * (N + 2) + q * a * (N * q - N - 2), 1) / (N * q)


def big_m_forms(N: int, q: Rat, j: Rat) -> tuple[Fraction, Fraction]:
    """Both forms of the interpolation pivot M; they must agree exactly."""
    q, j = _frac(q), _frac(j)
    a = alpha(N, q)
    aj = a * j
    sup = alpha_j_interval_sup(N, q)
    if aj < 0 or aj >= sup:
        raise DomainError(f"alpha*j = {aj} outside [0, {sup})")
    b = b_exponent(N, q, j)
    den = b + 2 * q * a
    if den == 0:
        raise DomainError("vanishing denominator b + 2*q*alpha")
    f1 = 2 * q * (2 * aj + b) / den
    f2 = (
        2 * (N + 2) * (Fraction(N * q - 2 * (N + 2), N + 2) - aj)
        / (N * (Fraction(N * q - 2 * (N + 2) + q * a * (N * q - N - 2), N * q) - aj))
    )
    return f1, f2


def big_m(N: int, q: Rat, j: Rat) -> Fraction:
    return big_m_forms(N, q, j)[0]


def m_delta_forms(N: int, q: Rat, delta: Rat) -> tuple[Fraction, ...]:
    """The expansion chain for M at j = delta*(N+2), every line exact."""
    q, d = _frac(q), _frac(delta)
    if not 0 < d < 1:
        raise DomainError(f"need 0 < delta < 1, got {d}")
    a = alpha(N, q)
    h = N + 2
    f1 = big_m(N, q, d * h)
    f2 = (2 * (N * q - 2 * h) - 2 * a * d * h**2) / (N * a * (q - d * h) + N - 2)
    f3 = (2 * h * q * (N * q - 2 * h) - 4 * (q - h) * d * h**2) / (
        2 * N * (q - h) * (q - d * h) + (N - 2) * h * q
    )
    den4 = 2 * N * q**2 - h * ((1 + 2 * d) * N + 2) * q + 2 * N * d * h**2
    f4 = h * (2 * N * q**2 - 4 * h * (1 + d) * q + 4 * d * h**2) / den4
    f5 = h + h**2 * (N - 2) * ((1 + 2 * d) * q - 2 * d * h) / den4
    return f1, f2, f3, f4, f5


def m_delta(N: int, q: Rat, delta: Rat) -> Fraction:
    return m_delta_forms(N, q, delta)[0]


# ---------------------------------------------------------------------------
# constraint reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintReport:
    """One strict comparison, decided exactly.

    ``margin`` is the amount by which the required strict inequality holds,
    so ``satisfied`` is exactly ``margin > 0``.  For comparisons against an
    irrational endpoint, ``rhs`` is a certified rational bound tight enough
    to witness the verdict.
    """

    constraint_id: str
    lhs: Fraction
    rhs: Fraction
    satisfied: bool
    margin: Fraction
    note: str = ""
    details: tuple["ConstraintReport", ...] = ()

    def as_dict(self) -> dict:
        return {
            "id": self.constraint_id,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "satisfied": self.satisfied,
            "margin": str(self.margin),
            "note": self.note,
        }


def _gt(cid: str, lhs: Fraction, rhs: Fraction, note: str = "") -> ConstraintReport:
    m = lhs - rhs
    return ConstraintReport(cid, lhs, rhs, m > 0, m, note)


def _lt(cid: str, lhs: Fraction, rhs: Fraction, note: str = "") -> ConstraintReport:
    m = rhs - lhs
    return ConstraintReport(cid, lhs, rhs, m > 0, m, note)


def _infeasible(cid: str, note: str) -> ConstraintReport:
    return ConstraintReport(cid, Fraction(0), Fraction(0), False, Fraction(0), note)


# ---------------------------------------------------------------------------
# the parameter tuple
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentParams:
    """A concrete parameter tuple together with its derived exponents.

    Every derived field is reproducible from (N, q, B, K, delta, j, r)
    alone; ``beta1`` is evaluated at the reference interpolation index 2r.
    ``sigma`` and ``delta0`` default to 0 (unscaled) until a scaling solve
    supplies them.
    """

    N: int
    q: Fraction
    B: Fraction
    K: Fraction
    delta: Fraction
    j: Fraction
    r: Fraction
    sigma: Fraction = Fraction(0)
    alpha: Fraction = field(init=False)
    lambda_z: Fraction = field(init=False)
    b: Fraction = field(init=False)
    big_m: Optional[Fraction] = field(init=False)
    m_delta: Fraction = field(init=False)
    s1: Optional[Fraction] = field(init=False)
    beta1: Optional[Fraction] = field(init=False)
    delta0: Fraction = Fraction(0)

    def __post_init__(self):
        if self.N < 3:
            raise DomainError(f"dimension must be >= 3, got {self.N}")
        if not 0 < self.delta < 1:
            raise DomainError(f"need 0 < delta < 1, got {self.delta}")
        a = alpha(self.N, self.q)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "lambda_z", lambda_z(self.N))
        object.__setattr__(self, "b", b_exponent(self.N, self.q, self.j))
        try:
            object.__setattr__(self, "big_m", big_m(self.N, self.q, self.j))
        except DomainError:
            object.__setattr__(self, "big_m", None)
        object.__setattr__(self, "m_delta", m_delta(self.N, self.q, self.delta))
        if self.r != 2 * self.j:
            denom = (self.N * self.q - self.N - 2) * a * (self.r - 2 * self.j)
            object.__setattr__(
                self, "s1", (self.N + 2) * (1 + self.j * a) / denom
            )
            object.__setattr__(self, "beta1", 2 * self.j / (self.r - 2 * self.j))
        else:
            object.__setattr__(self, "s1", None)
            object.__setattr__(self, "beta1", None)

    @classmethod
    def derive(
        cls,
        N: int,
        q: Rat,
        B: Rat,
        K: Rat,
        delta: Rat = Fraction(1, 2),
        j: Rat | None = None,
        r: Rat | None = None,
        sigma: Rat = 0,
        delta0: Rat = 0,
    ) -> "ExponentParams":
        q, B, K = _frac(q), _frac(B), _frac(K)
        j = q / 2 if j is None else _frac(j)
        r = K * q if r is None else _frac(r)
        return cls(N, q, B, K, _frac(delta), j, r, _frac(sigma), delta0=_frac(delta0))

    def with_sigma(self, sigma: Rat, delta0: Rat) -> "ExponentParams":
        return replace(self, sigma=_frac(sigma), delta0=_frac(delta0))

    def as_dict(self) -> dict:
        out = {
            "N": self.N,
            "q": str(self.q),
            "B": str(self.B),
            "K": str(self.K),
            "delta": str(self.delta),
            "j": str(self.j),
            "r": str(self.r),
            "sigma": str(self.sigma),
            "delta0": str(self.delta0),
            "alpha": str(self.alpha),
            "lambda_z": str(self.lambda_z),
            "b": str(self.b),
            "m_delta": str(self.m_delta),
        }
        out["big_m"] = None if self.big_m is None else str(self.big_m)
        out["s1"] = None if self.s1 is None else str(self.s1)
        out["beta1"] = None if self.beta1 is None else str(self.beta1)
        return out


# ---------------------------------------------------------------------------
# interval for the scaled-radius multiplier K
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KInterval:
    """Open admissible interval (1, sup) for the radius multiplier."""

    lower: Fraction
    upper: SqrtAffine

    def contains(self, K: Rat) -> bool:
        K = _frac(K)
        return K > self.lower and self.upper.cmp(K) > 0


def k_interval(N: int, B: Rat, digits: int = 7) -> KInterval:
    """Admissible interval for K; the sup is (2B + sqrt(4B(B-(N-1)lz)))/(2B)."""
    B = _frac(B)
    lz = lambda_z(N)
    disc = 4 * B * (B - (N - 1) * lz)
    if disc <= 0:
        raise DomainError(f"need B > (N-1)*(N+2)/N = {(N - 1) * lz}, got B = {B}")
    return KInterval(Fraction(1), SqrtAffine(2 * B, disc, 2 * B))


def ratio_gates(N: int, B: Rat) -> tuple[Fraction, Fraction, Fraction]:
    """The three ratios that must all drop below 1/2 for B to qualify."""
    B = _frac(B)
    lz = lambda_z(N)
    if B <= lz or 2 * B <= (N - 2) * lz:
        raise DomainError(f"B = {B} too small for the ratio gates")
    return (
        (N - 2) * lz / (2 * (B - lz)),
        (N - 2) * lz / (2 * B - (N - 2) * lz),
        (N - 1) * lz / (2 * B - (N - 2) * lz),
    )


def k_limit_ratio(N: int, B: Rat, K: Rat) -> Fraction:
    """Large-q limit of (j threshold)/q at radius multiplier K; must be < 1/2."""
    B, K = _frac(B), _frac(K)
    lz = lambda_z(N)
    den = -B * K * K + 2 * B * K - lz
    if den <= 0:
        raise DomainError(f"K = {K} outside the admissible interval for B = {B}")
    return (N - 2) * lz * K / (2 * den)


# ---------------------------------------------------------------------------
# lower bounds on j
# ---------------------------------------------------------------------------


def _j_sign_threshold(N: int, q: Fraction) -> Fraction:
    # j above this makes the exponent b strictly negative
    lz = lambda_z(N)
    return (q - 2 * lz) / (q * alpha(N, q))


def _j_interp_threshold(N: int, q: Fraction, B: Fraction, delta: Fraction) -> Fraction:
    lz = lambda_z(N)
    a = alpha(N, q)
    md = m_delta(N, q, delta)
    den = a * ((2 * lz + 2 * B - md) * q - 2 * B * lz)
    if den <= 0:
        raise DomainError("interpolation threshold undefined: nonpositive denominator")
    return ((q - 2 * lz) * (2 * q - md) - 2 * lz * a * q * (q - lz)) / den


def _reduced_quadratic_coeffs(
    N: int, q: Fraction, B: Fraction, K: Fraction
) -> tuple[Fraction, Fraction]:
    """Coefficients (a1, a2) of the linear-in-j reduction used by the recipe.

    The selection recipe rests on this reduction; a1 < 0 there, so the
    screening condition a1*j + a2 < 0 becomes a lower bound on j.  The
    direct quadratic form disagrees with this reduction on real tuples;
    it is evaluated separately in :func:`diagnostics`.
    """
    lz = lambda_z(N)
    a = alpha(N, q)
    a1 = a * q * ((B * K**2 - 2 * B * K + lz) * q - (K - 1) * lz * B)
    a2 = (
        (1 - lz * a) * K * q**3
        + (-B * K**2 + 2 * B * K - lz - 2 * lz * K - lz * a * K * (B - lz)) * q**2
        + (-2 * lz * (-B * K**2 + 2 * B * K - lz) - lz * B + lz**2 * B * a * K) * q
        + 2 * lz**2 * B
    )
    return a1, a2


def _j_scaled_threshold(N: int, q: Fraction, B: Fraction, K: Fraction) -> Fraction:
    a1, a2 = _reduced_quadratic_coeffs(N, q, B, K)
    if a1 >= 0:
        raise DomainError("scaled threshold undefined: nonnegative leading coefficient")
    return a2 / (-a1)


def j_lower_bounds(params: ExponentParams) -> list[ConstraintReport]:
    """Reports for each lower bound on j, stating whether params.j exceeds it."""
    N, q, B, K, d, j = params.N, params.q, params.B, params.K, params.delta, params.j
    out = [_gt("j_above_sign_threshold", j, _j_sign_threshold(N, q))]
    try:
        out.append(_gt("j_above_interp_threshold", j, _j_interp_threshold(N, q, B, d)))
    except DomainError as e:
        out.append(_infeasible("j_above_interp_threshold", str(e)))
    try:
        out.append(_gt("j_above_scaled_threshold", j, _j_scaled_threshold(N, q, B, K)))
    except DomainError as e:
        out.append(_infeasible("j_above_scaled_threshold", str(e)))
    return out


# ---------------------------------------------------------------------------
# feasibility of the radius r
# ---------------------------------------------------------------------------


def _r_min(N: int, q: Fraction, B: Fraction, delta: Fraction, j: Fraction) -> Fraction:
    lz = lambda_z(N)
    a = alpha(N, q)
    md = m_delta(N, q, delta)
    A = (q + B) / q
    den = -(2 - A) * j + lz - (q - 2 * lz - a * q * j) * (2 * q - md) / (2 * a * q * (q - lz))
    if den <= 0:
        raise DomainError("minimal radius undefined: j below the interpolation threshold")
    return lz * A * j / den


def _r_max(N: int, q: Fraction, B: Fraction, j: Fraction) -> Fraction:
    lz = lambda_z(N)
    a = alpha(N, q)
    den = B * (a * q * j - q + 2 * lz)
    if den <= 0:
        raise DomainError("maximal radius undefined: j below the sign threshold")
    return q + (q + B) * (q - lz) * a * q * j / den


def _direct_quadratic(
    N: int, q: Fraction, B: Fraction, j: Fraction, r: Fraction
) -> Fraction:
    """Value of the direct quadratic in r; the screening wants it < 0."""
    lz = lambda_z(N)
    a = alpha(N, q)
    A = (q + B) / q
    b = b_exponent(N, q, j)
    return (
        -(A - 1) * b * r**2
        + ((2 * A - 1) * b * q + 2 * A * a * q * j - 2 * lz * A * a * q) * r
        - lz * A * b * q
    )


def r_feasible(params: ExponentParams) -> ConstraintReport:
    """Verify every constraint on the radius r; the report carries failures."""
    N, q, B, K = params.N, params.q, params.B, params.K
    d, j, r = params.delta, params.j, params.r
    subs: list[ConstraintReport] = []
    try:
        subs.append(_gt("r_above_min", r, _r_min(N, q, B, d, j)))
    except DomainError as e:
        subs.append(_infeasible("r_above_min", str(e)))
    a1, a2 = _reduced_quadratic_coeffs(N, q, B, K)
    subs.append(
        _lt(
            "r_scaled_quadratic",
            a1 * j + a2,
            Fraction(0),
            "linear-in-j reduction at r = K*q",
        )
    )
    subs.append(_gt("r_gt_2j", r, 2 * j))
    subs.append(_gt("r_gt_q", r, q))
    try:
        subs.append(_lt("r_below_max", r, _r_max(N, q, B, j)))
    except DomainError as e:
        subs.append(_infeasible("r_below_max", str(e)))
    ok = all(s.satisfied for s in subs)
    worst = min((s.margin for s in subs), default=Fraction(0))
    return ConstraintReport("r_feasible", worst, Fraction(0), ok, worst,
                            "aggregate of the radius constraints", tuple(subs))


# ---------------------------------------------------------------------------
# the full certified suite
# ---------------------------------------------------------------------------


def _k_interval_report(N: int, B: Fraction, K: Fraction) -> ConstraintReport:
    try:
        ival = k_interval(N, B)
    except DomainError as e:
        return _infeasible("K_below_interval_sup", str(e))
    sign = ival.upper.cmp(K)
    digits = 7
    while True:
        lo, hi = ival.upper.bounds(digits)
        if sign > 0 and K < lo:
            return ConstraintReport("K_below_interval_sup", K, lo, True, lo - K,
                                    "rhs is a certified lower bound on the interval sup")
        if sign <= 0 and K >= hi:
            return ConstraintReport("K_below_interval_sup", K, hi, False, hi - K,
                                    "rhs is a certified upper bound on the interval sup")
        if sign == 0 and ival.upper.is_rational():
            v = ival.upper.exact_value()
            return ConstraintReport("K_below_interval_sup", K, v, False, Fraction(0),
                                    "K equals the open interval endpoint")
        digits *= 2


def constraint_suite(params: ExponentParams) -> list[ConstraintReport]:
    """Every gating constraint, evaluated exactly."""
    N, q, B, K = params.N, params.q, params.B, params.K
    out: list[ConstraintReport] = [
        _gt("q_above_dim", q, Fraction(N + 2)),
        _gt("alpha_positive", params.alpha, Fraction(0)),
        _lt("b_negative", params.b, Fraction(0)),
        _gt("m_delta_above", params.m_delta, Fraction(N + 2)),
        _lt("m_delta_below", params.m_delta, 2 * q),
    ]
    try:
        g1, g2, g3 = ratio_gates(N, B)
        out.append(_lt("B_ratio_gate_1", g1, Fraction(1, 2)))
        out.append(_lt("B_ratio_gate_2", g2, Fraction(1, 2)))
        out.append(_lt("B_ratio_gate_3", g3, Fraction(1, 2)))
    except DomainError as e:
        out.append(_infeasible("B_ratio_gate_1", str(e)))
    out.append(_gt("K_gt_1", K, Fraction(1)))
    out.append(_k_interval_report(N, B, K))
    try:
        out.append(_lt("K_limit_ratio", k_limit_ratio(N, B, K), Fraction(1, 2)))
    except DomainError as e:
        out.append(_infeasible("K_limit_ratio", str(e)))
    out.extend(j_lower_bounds(params))
    r_rep = r_feasible(params)
    out.extend(r_rep.details)
    return out


def diagnostics(params: ExponentParams) -> list[ConstraintReport]:
    """Non-gating cross-checks.

    The direct quadratic form of the radius screening disagrees with the
    linear-in-j reduction that the selection recipe is built on; it is
    reported here so certificates expose the discrepancy.
    """
    val = _direct_quadratic(params.N, params.q, params.B, params.j, params.r)
    return [
        _lt("r_quadratic_direct", val, Fraction(0),
            "direct quadratic at the chosen r; disagrees with the reduced form")
    ]


def feasible(params: ExponentParams) -> bool:
    return all(rep.satisfied for rep in constraint_suite(params))


# ---------------------------------------------------------------------------
# deterministic parameter selection
# ---------------------------------------------------------------------------


def _select_B(N: int) -> Fraction:
    lz = lambda_z(N)
    B = Fraction(max(1, int((N - 1) * lz) + 1))
    while True:
        try:
            if all(g < Fraction(1, 2) for g in ratio_gates(N, B)) and B > (N - 1) * lz:
                return B
        except DomainError:
            pass
        B += 1


def _select_K(N: int, B: Fraction) -> Fraction:
    ival = k_interval(N, B)
    for m in range(1, 64):
        K = 1 + Fraction(1, 2**m)
        if not ival.contains(K):
            continue
        if k_limit_ratio(N, B, K) < Fraction(1, 2):
            return K
    raise SearchExhausted(f"no admissible K found for N={N}, B={B}")


def select_parameters(
    N: int,
    q_ceiling: int = 1_000_000,
    delta: Rat = Fraction(1, 2),
) -> ExponentParams:
    """Deterministic lattice search for a fully certified parameter tuple.

    B is the smallest qualifying integer, K the first lattice point
    1 + 2**-m inside its interval with the limit ratio below 1/2, then q
    doubles from 2(N+2) with j = q/2 and r = K*q until every constraint
    report passes.  Raises :class:`SearchExhausted` above the ceiling.
    """
    d = _frac(delta)
    B = _select_B(N)
    K = _select_K(N, B)
    q = Fraction(2 * (N + 2))
    last_failures: list[str] = []
    while q <= q_ceiling:
        params = ExponentParams.derive(N, q, B, K, d)
        reports = constraint_suite(params)
        if all(rep.satisfied for rep in reports):
            return params
        last_failures = [rep.constraint_id for rep in reports if not rep.satisfied]
        q *= 2
    raise SearchExhausted(
        f"no certified tuple for N={N} with q <= {q_ceiling}; "
        f"last failures: {last_failures}"
    )


# ---------------------------------------------------------------------------
# scaling exponent
# ---------------------------------------------------------------------------


def sigma_solve(
    params: ExponentParams, sigma0: Rat, s3: Rat, theta: Rat
) -> tuple[Fraction, Fraction]:
    """Solve the scale-invariance equation for (sigma, delta0)."""
    sigma0, s3, theta = _frac(sigma0), _frac(s3), _frac(theta)
    if sigma0 <= 0 or s3 <= 0:
        raise DomainError("need sigma0 > 0 and s3 > 0")
    if not 0 < theta < 1:
        raise DomainError(f"need theta in (0,1), got {theta}")
    coeff = sigma0 / theta - s3 / theta + 1
    if coeff == 0:
        raise DegenerateCoefficient("sigma0/theta - s3/theta + 1 vanishes")
    sigma = (1 + (params.N - 2) * s3 / (2 * theta)) / coeff
    return sigma, s3 / theta


# ---------------------------------------------------------------------------
# the superlinear recursion
# ---------------------------------------------------------------------------

_SIZE_CAP_BITS = 4096


def _bits(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def recursion_limit_bounds(
    c: Rat,
    b: Rat,
    alpha_exp: Rat,
    y0: Rat,
    n_max: int,
    *,
    stop_below: Fraction = Fraction(1, 10**40),
    stop_above: Fraction = Fraction(10**12),
    sig: int = 50,
) -> list[tuple[Fraction, Fraction]]:
    """Certified enclosures of the extremal recursion y_{n+1} = c b^n y_n^(1+a).

    Exact as long as the exponent is an integer and the representations stay
    small; otherwise each step is bracketed by directed rounding to ``sig``
    significant decimal digits, so ordering verdicts between successive
    terms remain certified.  Iteration stops early once the value is
    certified to have escaped [stop_below, stop_above].
    """
    c, b, a, y0 = _frac(c), _frac(b), _frac(alpha_exp), _frac(y0)
    if b <= 1:
        raise DomainError(f"need b > 1, got {b}")
    if c <= 0 or a <= 0:
        raise DomainError("need c > 0 and alpha > 0")
    if y0 < 0:
        raise DomainError(f"need y0 >= 0, got {y0}")
    e = 1 + a
    out = [(y0, y0)]
    lo, hi = y0, y0
    for n in range(n_max):
        if (0 < hi < stop_below) or lo > stop_above:
            break
        scale = c * b**n
        if e.denominator == 1:
            nlo, nhi = scale * lo**e.numerator, scale * hi**e.numerator
        else:
            digits = sig + max(0, -_mag10(lo) + 2) if lo > 0 else sig
            plo, _ = pow_bounds(lo, e, digits)
            _, phi = pow_bounds(hi, e, digits)
            nlo, nhi = scale * plo, scale * phi
        if _bits(nlo) > _SIZE_CAP_BITS:
            nlo = round_down(nlo, sig)
        if _bits(nhi) > _SIZE_CAP_BITS:
            nhi = round_up(nhi, sig)
        lo, hi = nlo, nhi
        out.append((lo, hi))
    return out


def _mag10(x: Fraction) -> int:
    if x <= 0:
        return 0
    return (x.numerator.bit_length() - x.denominator.bit_length()) * 30103 // 100000


def recursion_limit(
    c: Rat, b: Rat, alpha_exp: Rat, y0: Rat, n_max: int, **kw
) -> list[Fraction]:
    """Lower-bound track of :func:`recursion_limit_bounds`.

    Values are exact Fractions until directed rounding kicks in (integer
    exponent, small representations); the enclosure variant exposes both
    bounds when the distinction matters.
    """
    return [lo for lo, _ in recursion_limit_bounds(c, b, alpha_exp, y0, n_max, **kw)]
