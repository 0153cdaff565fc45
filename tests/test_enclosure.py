import random
from fractions import Fraction as F

from nsbl.enclosure import SqrtAffine, iroot, pow_bounds, root_bounds, round_down, round_up, sqrt_cmp


def test_iroot_small():
    assert iroot(0, 3) == 0
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert iroot(28, 3) == 3
    assert iroot(10**30, 2) == 10**15


def test_iroot_random():
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randint(2, 7)
        n = rng.randint(0, 10**24)
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k


def test_sqrt_cmp_exact():
    assert sqrt_cmp(F(2), F(1)) > 0
    assert sqrt_cmp(F(2), F(3, 2)) < 0
    assert sqrt_cmp(F(9, 4), F(3, 2)) == 0
    assert sqrt_cmp(F(2), F(-1)) > 0


def test_root_bounds_certified():
    rng = random.Random(11)
    for _ in range(100):
        x = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
        k = rng.randint(2, 5)
        lo, hi = root_bounds(x, k, 10)
        assert lo**k <= x <= hi**k
        assert hi - lo <= F(2, 10**10)


def test_pow_bounds_integer_exact():
    lo, hi = pow_bounds(F(3, 7), F(4), 5)
    assert lo == hi == F(81, 2401)


def test_pow_bounds_fractional():
    lo, hi = pow_bounds(F(1, 2), F(3, 2), 12)
    true = 0.5**1.5
    assert float(lo) <= true <= float(hi)
    assert hi - lo <= F(2, 10**12)


def test_rounding_directed():
    x = F(123456789, 1000000007)
    assert round_down(x, 6) <= x <= round_up(x, 6)
    assert round_down(F(1, 16), 50) == F(1, 16)
    tiny = F(1, 10**37)
    assert round_down(tiny, 5) <= tiny <= round_up(tiny, 5)
    assert round_up(tiny, 5) > 0


def test_sqrt_affine_cmp_and_bounds():
    # (20 + sqrt(800/3)) / 20
    v = SqrtAffine(F(20), F(800, 3), F(20))
    assert v.cmp(F(18, 10)) > 0
    assert v.cmp(F(19, 10)) < 0
    lo, hi = v.bounds(7)
    assert hi - lo <= F(1, 10**6)
    assert abs(float(lo) - 1.8164966) < 1e-6


def test_sqrt_affine_rational_case():
    v = SqrtAffine(F(0), F(9, 4), F(1))
    assert v.is_rational()
    assert v.exact_value() == F(3, 2)
    assert v.cmp(F(3, 2)) == 0
