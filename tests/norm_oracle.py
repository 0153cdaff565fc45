"""Lebesgue norms and log-weighted integrals taken with ``pow``, cell by
cell, for tests to compare against: the package reads every one of them
from one logarithm per snapshot (``nsbl.norms.PowerTable``) and never
forms these powers.

Each follows the formula as written, scaled by the max so nothing
overflows: ``space_norm`` of one field, ``spacetime_norm`` of a stack with
trapezoidal time weights, and ``power_log_integrals`` with |f| clamped
below ``LOG_CLAMP`` and the clamped cells counted.
"""

import math

import numpy as np

from nsbl.audit import LOG_CLAMP
from nsbl.norms import INF, time_weights


def space_norm(values, ell, grid):
    """( integral |f|^ell dx )^(1/ell) over the box; ell = inf gives max |f|."""
    a = np.abs(np.asarray(values, dtype=np.float64))
    m = float(a.max())
    if ell == INF or m == 0.0:
        return m
    return float(m * (np.sum((a / m) ** ell) * grid.cell_volume) ** (1.0 / ell))


def spacetime_norm(stack, ell, grid, times):
    """Space-time ell-norm of an (nt, n, n, n) stack, the max of the whole
    stack factored out."""
    a = np.abs(np.asarray(stack, dtype=np.float64))
    m = float(a.max())
    if ell == INF or m == 0.0:
        return m
    per_t = np.sum((a / m) ** ell, axis=(1, 2, 3)) * grid.cell_volume
    return float(m * float(np.dot(time_weights(times), per_t)) ** (1.0 / ell))


def power_log_integrals(stack, p, grid, times):
    """(ln I0, I1/I0, clamped cell count) for I0 = integral |f|^p and
    I1 = integral |f|^p ln|f|, with |f| clamped below LOG_CLAMP."""
    w = time_weights(times)
    a = np.abs(np.asarray(stack, dtype=np.float64))
    clamped = int(np.sum(a < LOG_CLAMP))
    a = np.maximum(a, LOG_CLAMP)
    m = float(a.max())
    g = a / m
    gp = g**p
    j0 = float(np.dot(w, np.sum(gp, axis=(1, 2, 3)) * grid.cell_volume))
    j1 = float(np.dot(w, np.sum(gp * np.log(g), axis=(1, 2, 3)) * grid.cell_volume))
    return math.log(j0) + p * math.log(m), j1 / j0 + math.log(m), clamped
