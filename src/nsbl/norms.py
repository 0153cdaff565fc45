"""Discrete Lebesgue norms from per-snapshot power sums, super-level-set
measures, and log-weighted integrals.

Space integrals are cell sums weighted by the cell volume; space-time
integrals use trapezoidal weights over the stored snapshot times, which
must increase strictly.  A ``PowerTable`` measures each snapshot f once:
it takes L = ln(|f| / sup_i), sup_i = max |f|, one time and reads every
power sum it holds from it, sum exp(e L) = sum (|f| / sup_i)^e, and every
log-moment, sum exp(p L) L.  The scale goes back analytically: a
space-time norm adds the snapshots' sums in snapshot order, each scaled by
(sup_i / m)^e with m the largest sup, so nothing overflows at any
exponent, and the log-weighted integrals return the logarithm and a
ratio.  Super-level-set measures answer a whole ladder of thresholds, and
quantiles are selected, from one per-snapshot sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import TorusGrid

__all__ = [
    "BadExponents",
    "UnmeasuredExponent",
    "INF",
    "time_weights",
    "PowerTable",
    "level_set_measure",
    "sorted_quantile",
]

INF = math.inf

# |f| / sup is floored here before its logarithm, so the log is finite; a
# cell under the floor adds at most _FLOOR^e to a power sum
_FLOOR = np.finfo(np.float64).tiny


class BadExponents(ValueError):
    """An exponent outside the range a norm, a bound or an audit check is defined on."""


class UnmeasuredExponent(LookupError):
    """A norm asked of a ``PowerTable`` at an exponent it does not hold."""


def time_weights(times) -> np.ndarray:
    """Trapezoidal quadrature weights; a single snapshot gets unit weight.
    Times that do not increase strictly would give weights of zero or
    below, so they are refused."""
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1d sequence")
    if not np.all(t[1:] > t[:-1]):
        raise ValueError(f"times must increase strictly, got {t.tolist()}")
    if t.size == 1:
        return np.ones(1)
    w = np.empty_like(t)
    w[0] = (t[1] - t[0]) / 2
    w[-1] = (t[-1] - t[-2]) / 2
    w[1:-1] = (t[2:] - t[:-2]) / 2
    return w


@dataclass(frozen=True, eq=False)
class PowerTable:
    """One stack's power sums at a fixed set of exponents, one row per
    snapshot: ``sums[e][i]`` is the sum of (|f_i| / sups[i])^e and
    ``log_sums[p][i]`` the sum of (|f_i| / sups[i])^p ln(|f_i| / sups[i]).
    Norms and log-weighted integrals of f / scale follow for any scale; an
    exponent the table does not hold raises UnmeasuredExponent, as the
    table never goes back to the stack."""

    sups: np.ndarray
    sums: dict
    log_sums: dict
    weights: np.ndarray  # trapezoidal time weights
    cell_volume: float

    @classmethod
    def empty(cls, exponents, log_exponents, times, grid: TorusGrid) -> "PowerTable":
        """A table of zeros for ``len(times)`` snapshots, holding power sums
        at each exponent and log exponent, each finite and at least 1."""
        exponents = sorted({*exponents, *log_exponents})
        for e in exponents:
            if not (math.isfinite(e) and e >= 1):
                raise BadExponents(f"exponent must be finite and >= 1, got {e}")
        nt = len(times)
        return cls(np.zeros(nt), {e: np.zeros(nt) for e in exponents},
                   {p: np.zeros(nt) for p in sorted(set(log_exponents))},
                   time_weights(times), grid.cell_volume)

    def add(self, i: int, values: np.ndarray) -> None:
        """Row i from snapshot f = values, whose max |f| the caller stored in
        ``sups[i]``; a zero snapshot adds nothing.  The cells near the sup
        dominate every sum and have L near 0, where exp(e L) is as accurate
        as pow."""
        if self.sups[i] == 0.0:
            return
        log = np.divide(values, self.sups[i])
        np.abs(log, out=log)
        np.maximum(log, _FLOOR, out=log)
        np.log(log, out=log)
        # with one exponent and no log-moment, the powers overwrite the logs
        power = log if len(self.sums) == 1 and not self.log_sums else np.empty_like(log)
        for e, column in self.sums.items():
            np.multiply(log, e, out=power)
            np.exp(power, out=power)
            column[i] = np.sum(power)
            if e in self.log_sums:
                power *= log
                self.log_sums[e][i] = np.sum(power)

    def _column(self, table: dict, e: float) -> np.ndarray:
        if e not in table:
            raise UnmeasuredExponent(f"no power sums at exponent {e!r}; the table holds "
                                     f"{sorted(table)}")
        return table[e]

    def space_norm(self, i: int, e: float, scale: float = 1.0) -> float:
        """( integral |f_i / scale|^e dx )^(1/e) of snapshot i."""
        total = self._column(self.sums, e)[i] * self.cell_volume
        return float(self.sups[i] / scale * total ** (1.0 / e))

    def norm(self, e: float, scale: float = 1.0) -> float:
        """The space-time e-norm of f / scale; e = INF gives max |f| / scale."""
        m = self.sups.max()
        if e == INF:
            return float(m / scale)
        sums = self._column(self.sums, e)
        if m == 0.0:
            return 0.0
        per_t = sums * (self.sups / m) ** e * self.cell_volume
        return float(m / scale * float(np.dot(self.weights, per_t)) ** (1.0 / e))

    def log_integrals(self, p: float, scale: float = 1.0) -> tuple[float, float]:
        """(ln I0, I1/I0) of g = f / scale: I0 = integral |g|^p and I1 =
        integral |g|^p ln|g|, so I1/I0 is the |g|^p-weighted mean of ln|g|.
        Both are taken of |f|/m, m the largest sup, and the scale goes back
        in analytically: ln I0 gains p ln(m/scale), I1/I0 gains ln(m/scale),
        so neither leaves float64 whatever m and p are."""
        sums, logs = self._column(self.sums, p), self._column(self.log_sums, p)
        m = float(self.sups.max())
        if m == 0.0:
            raise ValueError("the zero field has no log-weighted integrals")
        ratio = self.sups / m
        # ln(sup_i / m), 0 for a zero snapshot, which adds nothing
        log_ratio = np.log(ratio, out=np.zeros_like(ratio), where=ratio > 0)
        weight = ratio**p * self.cell_volume
        j0 = float(np.dot(self.weights, weight * sums))
        j1 = float(np.dot(self.weights, weight * (logs + log_ratio * sums)))
        log_m = math.log(m / scale)
        return math.log(j0) + p * log_m, j1 / j0 + log_m


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
