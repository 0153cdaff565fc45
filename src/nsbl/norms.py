"""Discrete Lebesgue norms, super-level-set measures, and log-weighted integrals.

Space integrals are cell sums weighted by the cell volume; space-time
integrals use trapezoidal weights over the stored snapshot times.  Large
exponents are evaluated after rescaling by the max so nothing overflows;
the log-weighted integrals return the logarithm and a ratio, with the
scale put back analytically.  Super-level-set measures answer a whole
ladder of thresholds from one per-snapshot sort.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import TorusGrid

__all__ = [
    "BadExponent",
    "INF",
    "time_weights",
    "space_norm",
    "spacetime_norm",
    "level_set_measure",
    "power_log_integrals",
]

INF = math.inf

# clamp applied under logarithms so log-weighted integrals never see log(0)
LOG_CLAMP = 1e-300


class BadExponent(ValueError):
    pass


def time_weights(times) -> np.ndarray:
    """Trapezoidal quadrature weights; a single snapshot gets unit weight."""
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1d sequence")
    if t.size == 1:
        return np.ones(1)
    w = np.empty_like(t)
    w[0] = (t[1] - t[0]) / 2
    w[-1] = (t[-1] - t[-2]) / 2
    w[1:-1] = (t[2:] - t[:-2]) / 2
    return w


def _check_exponent(ell):
    if ell != INF and (not np.isfinite(ell) or ell < 1):
        raise BadExponent(f"exponent must be >= 1 or inf, got {ell}")


def space_norm(values: np.ndarray, ell: float, grid: TorusGrid) -> float:
    """( integral |f|^ell dx )^(1/ell) over the box; ell = inf gives max |f|."""
    _check_exponent(ell)
    a = np.abs(np.asarray(values, dtype=np.float64))
    if ell == INF:
        return float(a.max())
    m = float(a.max())
    if m == 0.0:
        return 0.0
    s = np.sum((a / m) ** ell) * grid.cell_volume
    return float(m * s ** (1.0 / ell))


def spacetime_norm(stack: np.ndarray, ell: float, grid: TorusGrid, times) -> float:
    """Space-time norm over stored snapshots with trapezoidal time weights."""
    _check_exponent(ell)
    a = np.abs(np.asarray(stack, dtype=np.float64))
    if a.ndim == 3:
        a = a[None]
    if ell == INF:
        return float(a.max())
    w = time_weights(times)
    if w.size != a.shape[0]:
        raise ValueError(f"{a.shape[0]} snapshots but {w.size} time weights")
    m = float(a.max())
    if m == 0.0:
        return 0.0
    # a is a fresh array from np.abs; scale and power it in place
    a /= m
    a **= ell
    per_t = np.sum(a, axis=(1, 2, 3)) * grid.cell_volume
    return float(m * float(np.dot(w, per_t)) ** (1.0 / ell))


def level_set_measure(sorted_stack: np.ndarray, thresholds, grid: TorusGrid,
                      times) -> list[float]:
    """Space-time measure of {f >= k} over the stored snapshots, for each
    threshold k.

    ``sorted_stack`` holds each snapshot's values in ascending order, shape
    (nt, cells), as ``np.sort(stack.reshape(nt, -1), axis=1)`` gives them;
    a binary search per snapshot and threshold then counts the cells at or
    above k.
    """
    a = np.asarray(sorted_stack, dtype=np.float64)
    w = time_weights(times)
    below = np.stack([np.searchsorted(row, thresholds, side="left") for row in a], axis=1)
    # one contiguous row of per-snapshot counts per threshold
    counts = (a.shape[1] - below).astype(np.float64)
    return [float(np.dot(w, c)) * grid.cell_volume for c in counts]


def power_log_integrals(
    stack: np.ndarray, p: float, grid: TorusGrid, times
) -> tuple[float, float, int]:
    """(ln I0, I1/I0, clamped cell count) for I0 = integral |f|^p and
    I1 = integral |f|^p ln|f|; I1/I0 is the |f|^p-weighted mean of ln|f|.

    Both integrals are taken of |f|/m with m = max |f|, and the scale goes
    back in analytically: ln I0 gains p ln m and I1/I0 gains ln m, so
    neither leaves float64 whatever m and p are.  |f| is clamped below
    LOG_CLAMP so the logarithm stays finite; the number of clamped cells is
    reported alongside.
    """
    a = np.abs(np.asarray(stack, dtype=np.float64))
    if a.ndim == 3:
        a = a[None]
    w = time_weights(times)
    clamped = int(np.sum(a < LOG_CLAMP))
    a = np.maximum(a, LOG_CLAMP)
    m = float(a.max())
    g = a / m
    gp = g**p
    j0 = float(np.dot(w, np.sum(gp, axis=(1, 2, 3)) * grid.cell_volume))
    j1 = float(np.dot(w, np.sum(gp * np.log(g), axis=(1, 2, 3)) * grid.cell_volume))
    log_m = math.log(m)
    return math.log(j0) + p * log_m, j1 / j0 + log_m, clamped
