"""Discrete Lebesgue norms, super-level-set measures, and log-weighted integrals.

Space integrals are cell sums weighted by the cell volume; space-time
integrals use trapezoidal weights over the stored snapshot times.  Large
exponents are evaluated after rescaling by the max so nothing overflows;
the log-weighted integrals return the logarithm and a ratio, with the
scale put back analytically.  Super-level-set measures answer a whole
ladder of thresholds, and quantiles are selected, from one per-snapshot sort.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import TorusGrid, over_snapshots

__all__ = [
    "BadExponent",
    "INF",
    "time_weights",
    "space_norm",
    "spacetime_norm",
    "level_set_measure",
    "sorted_quantile",
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
    # the one temporary, scaled and powered in place
    a /= m
    a **= ell
    s = np.sum(a) * grid.cell_volume
    return float(m * s ** (1.0 / ell))


def _snapshots(stack):
    # anything with len() and [i] giving one (n, n, n) snapshot is a stack
    if not isinstance(stack, np.ndarray):
        return stack
    a = stack.astype(np.float64, copy=False)
    return a[None] if a.ndim == 3 else a


def _maxima(stack):
    """Each snapshot's max |f|: the stack's own ``maxima`` when it carries
    them (the audit's views do), else one pass over the snapshots."""
    maxima = getattr(stack, "maxima", None)
    if maxima is None:
        maxima = over_snapshots(lambda i: np.abs(stack[i]).max(), len(stack))
    return maxima


def spacetime_norm(stack, ell: float, grid: TorusGrid, times) -> float:
    """Space-time norm over stored snapshots with trapezoidal time weights.

    Each snapshot's sum of (|f|/m)^ell is computed on its own
    (``over_snapshots``), with m the max of the snapshots' maxima
    (``_maxima``); the time sum over the snapshots is taken here, in
    snapshot order.
    """
    _check_exponent(ell)
    a = _snapshots(stack)
    m = float(np.max(_maxima(a)))
    if ell == INF:
        return m
    w = time_weights(times)
    if w.size != len(a):
        raise ValueError(f"{len(a)} snapshots but {w.size} time weights")
    if m == 0.0:
        return 0.0

    def power_sum(i):
        # one snapshot's temporary, scaled and powered in place
        g = np.abs(a[i])
        g /= m
        g **= ell
        return np.sum(g)

    per_t = np.array(over_snapshots(power_sum, len(a))) * grid.cell_volume
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


def sorted_quantile(sorted_stack: np.ndarray, q: float) -> float:
    """``np.quantile(stack, q)`` of a non-negative stack, bit for bit, from
    its sorted rows (as level_set_measure takes them) with no copy.

    The order statistics at floor((N-1) q) and the next are selected: every
    row is searched for a sample of 16 values from each row, and only the
    values between two neighbouring samples are partitioned.  They are then
    interpolated as numpy's default linear method (``_lerp``) does.
    """
    a = np.asarray(sorted_stack, dtype=np.float64)
    sample = np.unique(a[:, :: max(1, a.shape[1] // 16)])
    below = np.stack([np.searchsorted(row, sample) for row in a])
    n_below = below.sum(axis=0)

    def select(k):
        # the k-th value is the last sample s with at most k values below
        # it, or lies strictly between s and the next sample
        j = int(np.searchsorted(n_below, k, side="right")) - 1
        start = [np.searchsorted(row, sample[j], side="right") for row in a]
        if (k := k - sum(start)) < 0:
            return sample[j]
        stop = below[:, j + 1] if j + 1 < sample.size else [a.shape[1]] * len(a)
        return np.partition(np.concatenate([r[i:s] for r, i, s in zip(a, start, stop)]), k)[k]

    virtual = (a.size - 1) * q
    lo, gamma = math.floor(virtual), virtual - math.floor(virtual)
    prev, nxt = select(lo), select(min(lo + 1, a.size - 1))
    diff = nxt - prev
    return float(nxt - diff * (1 - gamma) if gamma >= 0.5 else prev + diff * gamma)


def power_log_integrals(
    stack, p: float, grid: TorusGrid, times
) -> tuple[float, float, int]:
    """(ln I0, I1/I0, clamped cell count) for I0 = integral |f|^p and
    I1 = integral |f|^p ln|f|; I1/I0 is the |f|^p-weighted mean of ln|f|.

    Both integrals are taken of |f|/m with m = max |f|, and the scale goes
    back in analytically: ln I0 gains p ln m and I1/I0 gains ln m, so
    neither leaves float64 whatever m and p are.  |f| is clamped below
    LOG_CLAMP so the logarithm stays finite; the number of clamped cells is
    reported alongside.
    """
    a = _snapshots(stack)
    w = time_weights(times)
    # the max of the clamped values, from the snapshots' maxima
    m = max(float(np.max(_maxima(a))), LOG_CLAMP)

    def sums(i):
        # one snapshot's temporaries: |f|/m (clamped) and its p-th power
        g = np.abs(a[i])
        clamped = np.count_nonzero(g < LOG_CLAMP)
        np.maximum(g, LOG_CLAMP, out=g)
        g /= m
        gp = g**p
        np.log(g, out=g)
        g *= gp
        return clamped, np.sum(gp), np.sum(g)

    per_t = over_snapshots(sums, len(a))
    clamped = sum(row[0] for row in per_t)
    s0, s1 = np.array([row[1:] for row in per_t]).T
    j0 = float(np.dot(w, s0 * grid.cell_volume))
    j1 = float(np.dot(w, s1 * grid.cell_volume))
    log_m = math.log(m)
    return math.log(j0) + p * log_m, j1 / j0 + log_m, clamped
