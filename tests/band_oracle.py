"""The full (n, n, n) layout of band coefficients, for tests to compare
against: the package itself never forms it.

``compact`` cuts the band out of full- or half-layout coefficients and
``expand`` puts band coefficients back into the full layout, zero outside
the band.
"""

import numpy as np


def compact(band, coeff):
    """The band entries of full- or half-layout data, as a copy."""
    return coeff[..., band.rows[:, None], band.rows, : band.planes]


def expand(band, coeff):
    """Full-layout coefficients of band data, zero outside the band.

    The band goes in as it is; each k_z plane 1..c goes in once more,
    conjugated, at the negated indices, c(-k) = conj(c(k)).  The k_z = 0
    plane is its own mirror and goes in once.
    """
    n, c = band.npts, band.cut
    # the row of -k for each row of k
    mirror = -band.rows % n
    full = np.zeros(coeff.shape[:-3] + (n, n, n), dtype=np.complex128)
    full[..., band.rows[:, None], band.rows, : band.planes] = coeff
    full[..., mirror[:, None], mirror, n - c :] = np.conj(coeff[..., c:0:-1])
    return full
