import random
from fractions import Fraction as F

import pytest

from nsbl import ledger as L
from nsbl.ledger import ExponentParams


def rand_q(rng, N):
    # rationals strictly above N+2
    return F(N + 2) + F(rng.randint(1, 400), rng.randint(1, 40))


class TestAlpha:
    def test_values(self):
        assert L.alpha(3, 10) == F(1, 5)
        assert L.alpha(4, 12) == F(1, 6)

    def test_boundary_raises(self):
        with pytest.raises(L.DomainError):
            L.alpha(3, 5)
        with pytest.raises(L.DomainError):
            L.alpha(3, 4)

    def test_positive_and_increasing_in_q(self):
        rng = random.Random(1)
        for _ in range(200):
            N = rng.choice([3, 4, 5, 6])
            q1 = rand_q(rng, N)
            q2 = q1 + F(rng.randint(1, 50), rng.randint(1, 9))
            a1, a2 = L.alpha(N, q1), L.alpha(N, q2)
            assert a1 > 0
            assert a2 > a1


class TestLambdaZ:
    def test_values(self):
        assert L.lambda_z(3) == F(5, 3)
        assert L.lambda_z(4) == F(3, 2)
        assert L.lambda_z(6) == F(4, 3)

    def test_low_dim_raises(self):
        with pytest.raises(L.DomainError):
            L.lambda_z(2)


class TestBExponent:
    def test_values(self):
        assert L.b_exponent(3, 10, 0) == F(8, 5)
        assert L.b_exponent(3, 10, F(10, 3)) == 0
        assert L.b_exponent(3, 10, 5) < 0

    def test_three_forms_agree(self):
        # exact equality across 1000 random in-domain samples
        rng = random.Random(2)
        for _ in range(1000):
            N = rng.choice([3, 4, 5])
            q = rand_q(rng, N)
            j = F(rng.randint(0, 300), rng.randint(1, 30))
            f1, f2, f3 = L.b_exponent_forms(N, q, j)
            assert f1 == f2 == f3

    def test_sign_boundary_matches_threshold(self):
        # b vanishes exactly at j = (q - 2*lz)/(q*alpha)
        for N, q in [(3, 10), (4, 17), (5, F(49, 6))]:
            lz = L.lambda_z(N)
            j_star = (q - 2 * lz) / (q * L.alpha(N, q))
            assert L.b_exponent(N, q, j_star) == 0


class TestBigM:
    def test_values(self):
        assert L.big_m(3, 10, 0) == F(40, 7)
        assert L.big_m(3, 10, F(5, 2)) == F(70, 11)

    def test_closed_form_at_zero(self):
        for N, q in [(3, F(10)), (4, F(20)), (5, F(31, 2))]:
            closed = 2 * (N + 2) * (N * q - 2 * (N + 2)) / (2 * N * q - (N + 2) ** 2)
            assert L.big_m(N, q, 0) == closed
            assert L.big_m(N, q, 0) > N + 2

    def test_two_forms_agree(self):
        rng = random.Random(3)
        for _ in range(1000):
            N = rng.choice([3, 4, 5])
            q = rand_q(rng, N)
            sup = L.alpha_j_interval_sup(N, q)
            a = L.alpha(N, q)
            j = sup * F(rng.randint(0, 99), 100) / a
            f1, f2 = L.big_m_forms(N, q, j)
            assert f1 == f2

    def test_monotone_in_alpha_j(self):
        rng = random.Random(4)
        for _ in range(200):
            N = rng.choice([3, 4])
            q = rand_q(rng, N)
            a = L.alpha(N, q)
            sup = L.alpha_j_interval_sup(N, q)
            t1 = F(rng.randint(0, 900), 1000)
            t2 = t1 + F(rng.randint(1, 99), 1000)
            m1 = L.big_m(N, q, sup * t1 / a)
            m2 = L.big_m(N, q, sup * t2 / a)
            assert m2 > m1

    def test_out_of_interval_raises(self):
        q = F(10)
        sup = L.alpha_j_interval_sup(3, q)
        bad_j = sup / L.alpha(3, q)
        with pytest.raises(L.DomainError):
            L.big_m(3, q, bad_j)


class TestMDelta:
    def test_value(self):
        assert L.m_delta(3, 10, F(1, 2)) == F(70, 11)

    def test_expansion_chain_exact(self):
        rng = random.Random(5)
        for _ in range(1000):
            N = rng.choice([3, 4, 5])
            q = rand_q(rng, N)
            d = F(rng.randint(1, 99), 100)
            forms = L.m_delta_forms(N, q, d)
            assert len(set(forms)) == 1

    def test_strict_bounds(self):
        rng = random.Random(6)
        for _ in range(500):
            N = rng.choice([3, 4, 5, 6])
            q = rand_q(rng, N)
            d = F(rng.randint(1, 99), 100)
            md = L.m_delta(N, q, d)
            assert N + 2 < md < 2 * q

    def test_large_q_limit(self):
        md = L.m_delta(3, 10**6, F(1, 2))
        assert md - 5 < F(1, 10**4)
        assert md > 5


class TestKInterval:
    def test_boundary_raises(self):
        with pytest.raises(L.DomainError):
            L.k_interval(3, F(10, 3))

    def test_enclosure_value(self):
        ival = L.k_interval(3, 10)
        lo, hi = ival.upper.bounds(7)
        assert hi - lo <= F(1, 10**6)
        assert abs(float(lo) - 1.8164966) < 1e-4
        assert ival.contains(F(3, 2))
        assert not ival.contains(F(19, 10))
        assert not ival.contains(F(1))

    def test_large_B_limit(self):
        lo, hi = L.k_interval(3, 10**6).upper.bounds(7)
        assert abs(float(lo) - 2.0) < 1e-3


class TestJLowerBounds:
    def test_sign_threshold(self):
        p = ExponentParams.derive(3, 10, 10, F(6, 5), j=4, r=12)
        rep = {r.constraint_id: r for r in L.j_lower_bounds(p)}
        sign = rep["j_above_sign_threshold"]
        assert sign.satisfied
        assert sign.margin == F(2, 3)
        assert sign.rhs == F(10, 3)

    def test_sign_threshold_violated(self):
        p = ExponentParams.derive(3, 10, 10, F(6, 5), j=3, r=12)
        rep = {r.constraint_id: r for r in L.j_lower_bounds(p)}
        assert not rep["j_above_sign_threshold"].satisfied

    def test_scaled_threshold_large_q_limit(self):
        # at K = 1 the threshold/q tends to (N-2)*lz/(2*(B - lz)) = 1/10
        p = ExponentParams.derive(3, 10**7, 10, F(1, 1) + F(1, 10**9), j=10**7 // 2)
        rep = {r.constraint_id: r for r in L.j_lower_bounds(p)}
        ratio = rep["j_above_scaled_threshold"].rhs / p.q
        assert abs(ratio - F(1, 10)) < F(1, 1000)


class TestRFeasible:
    def test_reference_tuple_all_pass(self):
        p = ExponentParams.derive(3, 200, 10, F(6, 5), j=100, r=240)
        reps = L.r_feasible(p)
        assert reps and all(s.satisfied for s in reps)

    def test_r_equal_2j_violated(self):
        p = ExponentParams.derive(3, 200, 10, F(6, 5), j=100, r=200)
        subs = {s.constraint_id: s for s in L.r_feasible(p)}
        assert not subs["r_gt_2j"].satisfied
        assert subs["r_gt_2j"].margin == 0

    def test_r_equal_q_violated(self):
        p = ExponentParams.derive(3, 200, 10, F(6, 5), j=90, r=200)
        subs = {s.constraint_id: s for s in L.r_feasible(p)}
        assert not subs["r_gt_q"].satisfied

    def test_direct_quadratic_diagnostic_disagrees(self):
        # the reduced screening passes while the direct quadratic fails;
        # certificates must expose this
        p = ExponentParams.derive(3, 200, 10, F(6, 5), j=100, r=240)
        subs = {s.constraint_id: s for s in L.r_feasible(p)}
        assert subs["r_scaled_quadratic"].satisfied
        diag = L.diagnostics(p)[0]
        assert diag.constraint_id == "r_quadratic_direct"
        assert not diag.satisfied


class TestSelectParameters:
    def test_n3_certified(self):
        p = L.select_parameters(3)
        assert p.j == p.q / 2
        assert p.r == p.K * p.q
        reports = L.constraint_suite(p)
        assert all(r.satisfied for r in reports)

    def test_low_ceiling_exhausts(self):
        with pytest.raises(L.SearchExhausted):
            L.select_parameters(3, q_ceiling=10)

    def test_n4_certified(self):
        p = L.select_parameters(4)
        assert all(r.satisfied for r in L.constraint_suite(p))

    def test_deterministic(self):
        a = L.select_parameters(3)
        b = L.select_parameters(3)
        assert a == b


class TestRecursion:
    def test_at_threshold(self):
        seq = L.recursion_limit(1, 2, 1, F(1, 2), 10)
        assert seq[:4] == [F(1, 2), F(1, 4), F(1, 8), F(1, 16)]

    def test_above_threshold_diverges(self):
        seq = L.recursion_limit(1, 2, 1, 1, 30)
        assert seq[:4] == [1, 1, 2, 16]
        assert any(v > 10**6 for v in seq)

    def test_zero_fixed_point(self):
        assert L.recursion_limit(1, 2, 1, 0, 5) == [0] * 6

    def test_below_threshold_decreases_to_zero(self):
        bnds = L.recursion_limit_bounds(1, 2, 1, F(499, 1000), 200)
        assert all(bnds[i + 1][1] < bnds[i][0] for i in range(len(bnds) - 1))
        assert any(hi < F(1, 10**30) for _, hi in bnds)

    def test_noninteger_exponent_certified(self):
        bnds = L.recursion_limit_bounds(1, 2, F(2, 5), F(1, 100), 80)
        assert all(lo <= hi for lo, hi in bnds)
        assert all(bnds[i + 1][1] < bnds[i][0] for i in range(len(bnds) - 1))

    def test_bad_args(self):
        with pytest.raises(L.DomainError):
            L.recursion_limit(1, 1, 1, F(1, 2), 5)
        with pytest.raises(L.DomainError):
            L.recursion_limit(0, 2, 1, F(1, 2), 5)


def test_interpolation_exponent_identity():
    # (1 - r/l)(1 + r/(l - r)) == 1 exactly
    rng = random.Random(8)
    for _ in range(500):
        r = F(rng.randint(1, 500), rng.randint(1, 50))
        ell = r + F(rng.randint(1, 300), rng.randint(1, 30))
        assert (1 - r / ell) * (1 + r / (ell - r)) == 1


def test_params_derived_reproducible():
    p = L.select_parameters(3)
    q2 = ExponentParams.derive(p.N, p.q, p.B, p.K, p.delta, p.j, p.r)
    assert (q2.alpha, q2.b, q2.big_m, q2.m_delta, q2.s1, q2.beta1) == (
        p.alpha, p.b, p.big_m, p.m_delta, p.s1, p.beta1)
