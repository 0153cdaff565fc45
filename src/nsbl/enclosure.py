"""Certified rational enclosures and exact sign decisions for algebraic roots.

Everything here works on :class:`fractions.Fraction` and plain integers, so
enclosures are genuine two-sided bounds rather than floating approximations.
Square-root comparisons are decided exactly by squaring; decimal enclosures
are produced only for reporting and for quantities that must leave the
rational world (interval endpoints, fractional powers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "iroot",
    "sqrt_cmp",
    "root_bounds",
    "pow_bounds",
    "round_down",
    "round_up",
    "SqrtAffine",
]


def iroot(n: int, k: int) -> int:
    """Floor of the integer k-th root of n >= 0."""
    if n < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    # Newton iteration on integers; the bit-length seed avoids float overflow.
    x = 1 << ((n.bit_length() + k - 1) // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def sqrt_cmp(radicand: Fraction, x: Fraction) -> int:
    """Exact sign of sqrt(radicand) - x for radicand >= 0."""
    if radicand < 0:
        raise ValueError("negative radicand")
    if x < 0:
        return 1
    diff = radicand - x * x
    return (diff > 0) - (diff < 0)


def root_bounds(x: Fraction, k: int, digits: int) -> tuple[Fraction, Fraction]:
    """Certified lo <= x**(1/k) <= hi with hi - lo <= 2 * 10**-digits."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    scale = 10**digits
    num = x.numerator * scale**k
    lo = iroot(num // x.denominator, k)
    hi = iroot(-(-num // x.denominator), k) + 1
    return Fraction(lo, scale), Fraction(hi, scale)


def pow_bounds(y: Fraction, e: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of y**e for y >= 0 and rational e >= 0.

    Exact (zero-width) when e is an integer.
    """
    y, e = Fraction(y), Fraction(e)
    if y < 0 or e < 0:
        raise ValueError("pow_bounds requires y >= 0 and e >= 0")
    if e.denominator == 1:
        v = y ** e.numerator
        return v, v
    return root_bounds(y ** e.numerator, e.denominator, digits)


def round_down(x: Fraction, sig: int) -> Fraction:
    """Largest decimal fraction with ~sig significant digits that is <= x."""
    if x == 0:
        return Fraction(0)
    if x < 0:
        return -round_up(-x, sig)
    mag = len(str(x.numerator // x.denominator)) if x >= 1 else -_leading_zeros(x)
    shift = sig - mag
    scale = 10**shift if shift >= 0 else 1
    if shift < 0:
        return Fraction(x.numerator // (x.denominator * 10**-shift)) * 10**-shift
    return Fraction(x.numerator * scale // x.denominator, scale)


def round_up(x: Fraction, sig: int) -> Fraction:
    """Smallest decimal fraction with ~sig significant digits that is >= x."""
    if x == 0:
        return Fraction(0)
    if x < 0:
        return -round_down(-x, sig)
    mag = len(str(x.numerator // x.denominator)) if x >= 1 else -_leading_zeros(x)
    shift = sig - mag
    if shift < 0:
        q = -(-x.numerator // (x.denominator * 10**-shift))
        return Fraction(q) * 10**-shift
    scale = 10**shift
    return Fraction(-(-x.numerator * scale // x.denominator), scale)


def _leading_zeros(x: Fraction) -> int:
    """Number of zeros after the decimal point before the first digit of 0 < x < 1."""
    count = 0
    num, den = x.numerator, x.denominator
    while num * 10 <= den:
        num *= 10
        count += 1
    return count


@dataclass(frozen=True)
class SqrtAffine:
    """The number (offset + sqrt(radicand)) / scale with scale > 0, radicand >= 0.

    Comparisons against rationals are decided exactly; ``bounds`` yields a
    certified decimal enclosure of requested width for reporting.
    """

    offset: Fraction
    radicand: Fraction
    scale: Fraction

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.radicand < 0:
            raise ValueError("negative radicand")

    def cmp(self, x: Fraction) -> int:
        """Exact sign of self - x."""
        return sqrt_cmp(self.radicand, Fraction(x) * self.scale - self.offset)

    def is_rational(self) -> bool:
        r = self.radicand
        return (
            iroot(r.numerator, 2) ** 2 == r.numerator
            and iroot(r.denominator, 2) ** 2 == r.denominator
        )

    def exact_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("irrational value has no exact rational form")
        root = Fraction(iroot(self.radicand.numerator, 2), iroot(self.radicand.denominator, 2))
        return (self.offset + root) / self.scale

    def bounds(self, digits: int = 7) -> tuple[Fraction, Fraction]:
        lo, hi = root_bounds(self.radicand, 2, digits)
        return (self.offset + lo) / self.scale, (self.offset + hi) / self.scale
