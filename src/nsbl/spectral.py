"""Torus grids, spectral fields, and the Fourier-multiplier operators on them.

The whole-space problem is discretized on a periodic box of side ``length``;
on the torus the singular-integral pressure operator is the exact multiplier
k_i k_j / |k|^2, and decay at infinity becomes periodicity.  Coefficients are
forward-normalized, so the zero mode of a field is its mean value.

Public fields use the full (..., n, n, n) layout.  Computation runs on the
real-FFT half spectrum (..., n, n, n//2+1): the k_z >= 0 half that
``numpy.fft.rfftn`` returns, which fixes a real field through the conjugate
symmetry c(-k) = conj(c(k)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ShapeMismatch",
    "NotDivergenceFree",
    "TorusGrid",
    "SpectralVelocity",
    "ScalarField",
    "transform_forward",
    "transform_inverse",
    "half_spectrum",
    "full_spectrum",
    "half_inverse",
    "quadratic_products",
    "leray_project",
    "divergence_max",
    "cz_pressure",
]

TWO_PI = 2.0 * np.pi

# relative tolerance on the discrete divergence for "divergence-free" inputs
DIV_TOL = 1e-12


class ShapeMismatch(ValueError):
    pass


class NotDivergenceFree(ValueError):
    pass


@dataclass(eq=False)
class TorusGrid:
    """Uniform periodic grid: ``npts`` points per axis on a box of side ``length``.

    Treated as immutable after construction.  Acceptance studies use both
    power-of-two and 48-point grids, so any even npts >= 8 is allowed.
    """

    npts: int
    length: float = TWO_PI
    dim: int = 3

    def __post_init__(self):
        if self.dim != 3:
            raise ShapeMismatch(f"only dim=3 grids are implemented, got {self.dim}")
        if self.npts < 8 or self.npts % 2:
            raise ShapeMismatch(f"npts must be even and >= 8, got {self.npts}")
        if not self.length > 0:
            raise ShapeMismatch(f"box length must be positive, got {self.length}")

    @cached_property
    def freqs(self) -> np.ndarray:
        """Integer mode numbers along one axis, FFT layout."""
        return np.rint(np.fft.fftfreq(self.npts) * self.npts).astype(np.int64)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Scaled wavevectors, shape (3, n, n, n)."""
        scale = TWO_PI / self.length
        m = self.freqs.astype(np.float64)
        kx, ky, kz = np.meshgrid(m, m, m, indexing="ij")
        return scale * np.stack([kx, ky, kz])

    @cached_property
    def k_squared(self) -> np.ndarray:
        k = self.wavenumbers
        return k[0] ** 2 + k[1] ** 2 + k[2] ** 2

    @cached_property
    def inv_k_squared(self) -> np.ndarray:
        """1/|k|^2 with the zero mode mapped to 0 (callers treat it separately)."""
        k2 = self.k_squared.copy()
        k2[0, 0, 0] = 1.0
        out = 1.0 / k2
        out[0, 0, 0] = 0.0
        return out

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Keep modes with |m_i| <= npts/3 on every axis (2/3 rule)."""
        cut = self.npts // 3
        keep1d = np.abs(self.freqs) <= cut
        return (
            keep1d[:, None, None] & keep1d[None, :, None] & keep1d[None, None, :]
        )

    # The half-spectrum operators are the first n//2+1 k_z planes of the full
    # ones, so the Nyquist plane keeps the full layout's k_z = -n/2.

    @cached_property
    def half_wavenumbers(self) -> np.ndarray:
        return half_spectrum(self.wavenumbers, self)

    @cached_property
    def half_k_squared(self) -> np.ndarray:
        return half_spectrum(self.k_squared, self)

    @cached_property
    def half_inv_k_squared(self) -> np.ndarray:
        return half_spectrum(self.inv_k_squared, self)

    @cached_property
    def half_dealias_mask(self) -> np.ndarray:
        return half_spectrum(self.dealias_mask, self)

    @cached_property
    def half_weights(self) -> np.ndarray:
        """Weights of the k_z planes in sums over the half spectrum.

        An interior plane also stands for its conjugate mirror, so it counts
        twice; the k_z = 0 and Nyquist planes are their own mirrors.
        """
        w = np.full(self.npts // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w

    @property
    def cell_volume(self) -> float:
        return (self.length / self.npts) ** self.dim

    @property
    def volume(self) -> float:
        return self.length**self.dim

    @property
    def kmax(self) -> float:
        return TWO_PI / self.length * (self.npts // 2)

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = self.length * np.arange(self.npts) / self.npts
        return np.meshgrid(x, x, x, indexing="ij")

    def compatible(self, other: "TorusGrid") -> bool:
        return self.npts == other.npts and self.length == other.length


def transform_forward(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Real-space data to forward-normalized coefficients (mean sits in mode 0)."""
    values = np.asarray(values)
    if values.shape[-3:] != (grid.npts,) * 3:
        raise ShapeMismatch(f"data shape {values.shape} does not match grid {grid.npts}^3")
    return np.fft.fftn(values, axes=(-3, -2, -1), norm="forward")


def transform_inverse(coeff: np.ndarray, grid: TorusGrid) -> np.ndarray:
    if coeff.shape[-3:] != (grid.npts,) * 3:
        raise ShapeMismatch(f"coefficient shape {coeff.shape} does not match grid {grid.npts}^3")
    return np.fft.ifftn(coeff, axes=(-3, -2, -1), norm="forward").real


def half_spectrum(coeff: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The first n//2+1 k_z planes of full-layout data, as a contiguous copy."""
    return np.ascontiguousarray(coeff[..., : grid.npts // 2 + 1])


def full_spectrum(half: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Full layout of a half spectrum by conjugate mirroring, c(-k) = conj(c(k))."""
    n = grid.npts
    # entries k_z = n/2-1 .. 1 at (-k_x, -k_y), for the full layout's k_z = n/2+1 .. n-1
    mirrored = np.roll(half[..., ::-1, ::-1, n // 2 - 1 : 0 : -1], 1, axis=(-3, -2))
    return np.concatenate([half, np.conj(mirrored)], axis=-1)


def half_inverse(half: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Half-spectrum coefficients to real-space data."""
    return np.fft.irfftn(half, s=(grid.npts,) * 3, axes=(-3, -2, -1), norm="forward")


# the six index pairs i <= j of the symmetric tensor u_i u_j, in stacking order
PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def quadratic_products(u: np.ndarray, grid: TorusGrid, dealias: bool = True) -> np.ndarray:
    """hat(u_i u_j) for the six ``PAIRS``, half-spectrum layout (6, n, n, n//2+1).

    ``u`` is the real velocity, shape (3, n, n, n).  The products are
    transformed in one batched real FFT and, with ``dealias``, truncated to
    the 2/3-rule mask.
    """
    prods = np.empty((len(PAIRS),) + u.shape[1:])
    for p, (i, j) in enumerate(PAIRS):
        np.multiply(u[i], u[j], out=prods[p])
    w = np.fft.rfftn(prods, axes=(-3, -2, -1), norm="forward")
    if dealias:
        w *= grid.half_dealias_mask
    return w


@dataclass(eq=False)
class SpectralVelocity:
    """Velocity field as forward-normalized Fourier coefficients, shape (3, n, n, n)."""

    coeff: np.ndarray
    grid: TorusGrid
    t: float = 0.0

    def __post_init__(self):
        if self.coeff.shape != (3,) + (self.grid.npts,) * 3:
            raise ShapeMismatch(f"velocity coefficients have shape {self.coeff.shape}")

    def copy(self, t: float | None = None) -> "SpectralVelocity":
        return SpectralVelocity(self.coeff.copy(), self.grid, self.t if t is None else t)

    def components(self) -> np.ndarray:
        """Physical velocity components, shape (3, n, n, n)."""
        return transform_inverse(self.coeff, self.grid)

    def magnitude(self) -> np.ndarray:
        u = self.components()
        return np.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2)

    def coeff_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeff) ** 2)))

    def divergence_max(self) -> float:
        return divergence_max(self.coeff, self.grid)

    def hermitian_error(self) -> float:
        """Max deviation of coeff from the symmetry of a real field."""
        c = self.coeff
        mirrored = np.conj(c[:, ::-1, ::-1, ::-1])
        mirrored = np.roll(mirrored, 1, axis=(1, 2, 3))
        return float(np.max(np.abs(c - mirrored)))


@dataclass(eq=False)
class ScalarField:
    values: np.ndarray
    grid: TorusGrid

    def __post_init__(self):
        if self.values.shape != (self.grid.npts,) * 3:
            raise ShapeMismatch(f"scalar field has shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scalar field contains non-finite entries")


def _project(coeff: np.ndarray, k: np.ndarray, inv_k_squared: np.ndarray) -> np.ndarray:
    kdotv = k[0] * coeff[0] + k[1] * coeff[1] + k[2] * coeff[2]
    kdotv = kdotv * inv_k_squared
    return coeff - k * kdotv[None]


def _project_coeff(coeff: np.ndarray, grid: TorusGrid) -> np.ndarray:
    return _project(coeff, grid.wavenumbers, grid.inv_k_squared)


def leray_project(v: SpectralVelocity) -> SpectralVelocity:
    """Project onto divergence-free fields; the zero mode passes through."""
    return SpectralVelocity(_project_coeff(v.coeff, v.grid), v.grid, v.t)


def divergence_max(coeff: np.ndarray, grid: TorusGrid) -> float:
    k = grid.wavenumbers
    div = k[0] * coeff[0] + k[1] * coeff[1] + k[2] * coeff[2]
    return float(np.max(np.abs(div)))


def cz_pressure(v: SpectralVelocity, m_sigma: float = 1.0) -> ScalarField:
    """Pressure from the velocity through the exact multiplier k_i k_j/|k|^2.

    Solves -lap(p) = m_sigma^2 d_i d_j (u_j u_i) spectrally; the zero mode of
    p is fixed to 0.  Quadratic products are dealiased on the grid mask.
    """
    grid = v.grid
    div = v.divergence_max()
    if div > DIV_TOL * max(1.0, v.coeff_norm()):
        raise NotDivergenceFree(f"divergence {div:.3e} exceeds tolerance")
    w = quadratic_products(half_inverse(half_spectrum(v.coeff, grid), grid), grid)
    k = grid.half_wavenumbers
    p_hat = np.zeros(w.shape[1:], dtype=np.complex128)
    for p, (i, j) in enumerate(PAIRS):
        factor = 1.0 if i == j else 2.0
        p_hat -= factor * k[i] * k[j] * w[p]
    p_hat *= (m_sigma**2) * grid.half_inv_k_squared
    p_hat[0, 0, 0] = 0.0
    return ScalarField(half_inverse(p_hat, grid), grid)
