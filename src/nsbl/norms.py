"""Discrete Lebesgue norms, super-level-set measures, and log-weighted integrals.

Space integrals are cell sums weighted by the cell volume; space-time
integrals use trapezoidal weights over the stored snapshot times.  Large
exponents are evaluated after rescaling by the max so nothing overflows.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import SpectralVelocity, TorusGrid

__all__ = [
    "BadExponent",
    "INF",
    "time_weights",
    "space_norm",
    "spacetime_norm",
    "level_set_measure",
    "power_log_integrals",
    "spectral_l2_norm",
    "gradient_l2_squared",
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


def level_set_measure(stack: np.ndarray, threshold: float, grid: TorusGrid, times) -> float:
    """Space-time measure of {f >= threshold} over the stored snapshots."""
    a = np.asarray(stack, dtype=np.float64)
    if a.ndim == 3:
        a = a[None]
    w = time_weights(times)
    counts = np.sum(a >= threshold, axis=(1, 2, 3)).astype(np.float64)
    return float(np.dot(w, counts)) * grid.cell_volume


def power_log_integrals(
    stack: np.ndarray, p: float, grid: TorusGrid, times
) -> tuple[float, float, int]:
    """(integral |f|^p, integral |f|^p ln|f|, clamped cell count).

    |f| is clamped below LOG_CLAMP so the logarithm stays finite; the number
    of clamped cells is reported alongside.
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
    log_a = np.log(g) + math.log(m)
    i0_t = np.sum(gp, axis=(1, 2, 3)) * grid.cell_volume
    i1_t = np.sum(gp * log_a, axis=(1, 2, 3)) * grid.cell_volume
    scale = m**p
    return scale * float(np.dot(w, i0_t)), scale * float(np.dot(w, i1_t)), clamped


def spectral_l2_norm(v: SpectralVelocity) -> float:
    """Spatial L2 norm evaluated from the coefficients (volume-weighted)."""
    return float(np.sqrt(v.grid.volume * np.sum(np.abs(v.coeff) ** 2)))


def gradient_l2_squared(v: SpectralVelocity) -> float:
    """|grad u|^2 integrated over the box, evaluated spectrally."""
    return float(v.grid.volume * np.sum(v.grid.k_squared * np.abs(v.coeff) ** 2))
