"""The other algebraic forms of the ledger's derived exponents, for tests to
compare against: the package computes each of b, M and m_delta in one form
(``nsbl.ledger.b_exponent``, ``big_m`` and ``m_delta``) and never forms
these.

Each function returns the forms that are not the package's, written out as
the constraint system states them; in exact arithmetic every one equals the
package's value, so tests compare them with ``==``.  They assume their
arguments lie in the domain the package checks.
"""

from fractions import Fraction

from nsbl.ledger import alpha


def b_exponent_forms(N: int, q, j) -> tuple[Fraction, Fraction]:
    """b = 2(Nq - 2(N+2))/D - 2Nq*alpha*j/D = (2Nq/D)((Nq - 2(N+2))/(Nq) - alpha*j),
    with D = Nq - N - 2."""
    q, j = Fraction(q), Fraction(j)
    a = alpha(N, q)
    den = N * q - N - 2
    return (
        2 * (N * q - 2 * (N + 2)) / den - 2 * N * q * a * j / den,
        (2 * N * q / den) * (Fraction(N * q - 2 * (N + 2), N * q) - a * j),
    )


def big_m_forms(N: int, q, j) -> tuple[Fraction]:
    """M = 2(N+2)((Nq - 2(N+2))/(N+2) - alpha*j) / (N(S - alpha*j)), with S
    the supremum of alpha*j."""
    q, j = Fraction(q), Fraction(j)
    a = alpha(N, q)
    aj = a * j
    sup = Fraction(N * q - 2 * (N + 2) + q * a * (N * q - N - 2), N * q)
    return (2 * (N + 2) * (Fraction(N * q - 2 * (N + 2), N + 2) - aj) / (N * (sup - aj)),)


def m_delta_forms(N: int, q, delta) -> tuple[Fraction, ...]:
    """The expansion chain of M at j = delta*(N+2), with h = N + 2, one line
    per step."""
    q, d = Fraction(q), Fraction(delta)
    a = alpha(N, q)
    h = N + 2
    den4 = 2 * N * q**2 - h * ((1 + 2 * d) * N + 2) * q + 2 * N * d * h**2
    return (
        (2 * (N * q - 2 * h) - 2 * a * d * h**2) / (N * a * (q - d * h) + N - 2),
        (2 * h * q * (N * q - 2 * h) - 4 * (q - h) * d * h**2)
        / (2 * N * (q - h) * (q - d * h) + (N - 2) * h * q),
        h * (2 * N * q**2 - 4 * h * (1 + d) * q + 4 * d * h**2) / den4,
        h + h**2 * (N - 2) * ((1 + 2 * d) * q - 2 * d * h) / den4,
    )
