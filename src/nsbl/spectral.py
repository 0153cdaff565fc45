"""Torus grids, spectral fields, and the Fourier-multiplier operators on them.

The whole-space problem is discretized on a periodic box of side ``length``;
on the torus the singular-integral pressure operator is the exact multiplier
k_i k_j / |k|^2, and decay at infinity becomes periodicity.  Coefficients are
forward-normalized, so the zero mode of a field is its mean value.

Layouts.  Public fields (``SpectralVelocity``, ``Trajectory.velocity``,
what ``read_checkpoint`` returns) use the full (..., n, n, n) layout.  The
real-FFT half spectrum (..., n, n, n//2+1) is the k_z >= 0 half that
``numpy.fft.rfftn`` returns; it fixes a real field through the conjugate
symmetry c(-k) = conj(c(k)).  Everything a run computes and stores is the
band (``SpectralBand``): the modes the 2/3 rule keeps, cut out of the
half spectrum, (..., 2c+1, 2c+1, c+1) with c = n//3: 3.6 times fewer
entries than the half spectrum and 6.8 times fewer than the full layout at
n = 32.
The solver steps it, trajectories hold it, NSBL2 checkpoints store it and
the audit reads it: ``cz_pressure`` takes band coefficients, and |u| comes
from the band's ``inverse``.  ``SpectralBand.compact`` takes a full or half
layout to the band, ``expand`` takes the band back to the full layout with
zeros outside, and its ``forward`` and ``inverse`` transform only the lines
that carry band modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "SpectralBand",
    "quadratic_products",
    "divergence_max",
    "cz_pressure",
]

TWO_PI = 2.0 * np.pi

# relative tolerance on the discrete divergence for "divergence-free" inputs
DIV_TOL = 1e-12
# box lengths on which a run and its audit end in a result or a typed error,
# never a float64 overflow, for every amplitude in audit.AMPLITUDE_RANGE
LENGTH_RANGE = (1e-30, 1e30)


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
    _band: "SpectralBand | None" = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.dim != 3:
            raise ShapeMismatch(f"only dim=3 grids are implemented, got {self.dim}")
        if self.npts < 8 or self.npts % 2:
            raise ShapeMismatch(f"npts must be even and >= 8, got {self.npts}")
        lo, hi = LENGTH_RANGE
        if not lo <= self.length <= hi:
            raise ShapeMismatch(f"box length must lie in [{lo:g}, {hi:g}], got {self.length}")

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

    @property
    def band(self) -> "SpectralBand":
        """The modes a run on this grid keeps (2/3 rule); built on first use."""
        if self._band is None:
            self._band = SpectralBand(self)
        return self._band

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


class SpectralBand:
    """The modes a run keeps, as a compact block of the half spectrum.

    These are the modes with every |m_i| <= n//3 (2/3 rule), stored as
    (..., 2c+1, 2c+1, c+1) with c = n//3: the kept k_x and k_y indices
    ``rows`` in FFT order (0..c, n-c..n-1) and the k_z planes 0..c.

    The operators are the full-layout ones at the kept indices.  The
    transforms skip the lines that only carry modes outside the band; every
    line they do compute is the line ``rfftn`` or ``irfftn`` would compute.

    The band holds no reference to its grid, which caches it: a cycle
    would keep both alive until the cyclic garbage collector runs.
    """

    def __init__(self, grid: TorusGrid):
        n = grid.npts
        cut = n // 3
        self.npts = n
        self.volume = grid.volume
        self.cut = cut
        self.rows = np.flatnonzero(np.abs(grid.freqs) <= cut)
        # the row of -k for each row of k
        self.mirror_rows = -self.rows % n
        self.planes = cut + 1
        self.shape = (self.rows.size, self.rows.size, self.planes)
        # the grid's operators at the kept indices, built from one axis
        # without the grid's full-layout arrays (same values, bit for bit)
        k = TWO_PI / grid.length * grid.freqs.astype(np.float64)
        self.wavenumbers = np.stack(np.meshgrid(k[self.rows], k[self.rows], k[: self.planes],
                                                indexing="ij"))
        w = self.wavenumbers
        self.k_squared = w[0] ** 2 + w[1] ** 2 + w[2] ** 2
        k2 = self.k_squared.copy()
        k2[0, 0, 0] = 1.0
        self.inv_k_squared = 1.0 / k2
        self.inv_k_squared[0, 0, 0] = 0.0
        # in sums over the band a k_z plane 1..c also stands for its
        # mirror, so it counts twice
        self.weights = np.ones(self.planes)
        self.weights[1:] = 2.0

    def compact(self, coeff: np.ndarray) -> np.ndarray:
        """The band entries of full- or half-layout data, as a copy."""
        return coeff[..., self.rows[:, None], self.rows, : self.planes]

    def expand(self, band: np.ndarray) -> np.ndarray:
        """Full-layout coefficients of band data, zero outside the band.

        The band goes in as it is; each k_z plane 1..c goes in once more,
        conjugated, at the negated indices, c(-k) = conj(c(k)).  The k_z = 0
        plane is its own mirror and goes in once.
        """
        n, c = self.npts, self.cut
        full = np.zeros(band.shape[:-3] + (n, n, n), dtype=np.complex128)
        full[..., self.rows[:, None], self.rows, : self.planes] = band
        full[..., self.mirror_rows[:, None], self.mirror_rows, n - c :] = np.conj(
            band[..., c:0:-1]
        )
        return full

    def sum_squares(self, band: np.ndarray) -> float:
        """The sum of |c|^2 over the full layout, taken on the band: a k_z
        plane 1..c counts for its mirror too."""
        return float(np.sum(self.weights * (band.real**2 + band.imag**2)))

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Band coefficients of one real field (n, n, n): rfft along z, keep
        the band planes, fft along y, keep the band rows, fft along x."""
        w = np.fft.rfft(values, axis=-1, norm="forward")[..., : self.planes]
        w = np.fft.fft(w, axis=-2, norm="forward")[:, self.rows]
        return np.fft.fft(w, axis=-3, norm="forward")[self.rows]

    def inverse(self, band: np.ndarray) -> np.ndarray:
        """Real-space data of band coefficients (..., *shape): zero-pad x and
        ifft, zero-pad y and ifft, then irfft along z."""
        n = self.npts
        lead = band.shape[:-3]
        w = np.zeros(lead + (n,) + self.shape[1:], dtype=np.complex128)
        w[..., self.rows, :, :] = band
        w = np.fft.ifft(w, axis=-3, norm="forward")
        padded = np.zeros(lead + (n, n, self.planes), dtype=np.complex128)
        padded[..., self.rows, :] = w
        padded = np.fft.ifft(padded, axis=-2, norm="forward")
        return np.fft.irfft(padded, n=n, axis=-1, norm="forward")


# the six index pairs i <= j of the symmetric tensor u_i u_j, in stacking order
PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def quadratic_products(u: np.ndarray, band: SpectralBand) -> np.ndarray:
    """hat(u_i u_j) for the six ``PAIRS`` on the band, shape (6, *band.shape).

    ``u`` is the real velocity, shape (3, n, n, n).  Each product is formed
    and transformed on its own, so only one real-space product is alive.
    """
    w = np.empty((len(PAIRS),) + band.shape, dtype=np.complex128)
    prod = np.empty(u.shape[1:])
    for p, (i, j) in enumerate(PAIRS):
        np.multiply(u[i], u[j], out=prod)
        w[p] = band.forward(prod)
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

    def components(self) -> np.ndarray:
        """Physical velocity components, shape (3, n, n, n)."""
        return transform_inverse(self.coeff, self.grid)

    def magnitude(self) -> np.ndarray:
        u = self.components()
        return np.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2)

    def divergence_max(self) -> float:
        return divergence_max(self.coeff, self.grid.wavenumbers)


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


def divergence_max(coeff: np.ndarray, k: np.ndarray) -> float:
    """max |k . c| over coefficients ``coeff`` at wavevectors ``k``, in
    either layout."""
    div = k[0] * coeff[0] + k[1] * coeff[1] + k[2] * coeff[2]
    return float(np.max(np.abs(div)))


def cz_pressure(coeff: np.ndarray, grid: TorusGrid, m_sigma: float = 1.0) -> ScalarField:
    """Pressure from the velocity through the exact multiplier k_i k_j/|k|^2.

    Solves -lap(p) = m_sigma^2 d_i d_j (u_j u_i) spectrally; the zero mode of
    p is fixed to 0.  ``coeff`` holds the velocity's 2/3-rule band, shape
    (3, *grid.band.shape), as trajectories store it; the quadratic
    products and p are dealiased to the same band.
    """
    band = grid.band
    if coeff.shape != (3,) + band.shape:
        raise ShapeMismatch(f"velocity band has shape {coeff.shape}, "
                            f"not the 2/3-rule band's {(3,) + band.shape}")
    div = divergence_max(coeff, band.wavenumbers)
    if div > DIV_TOL * max(1.0, np.sqrt(band.sum_squares(coeff))):
        raise NotDivergenceFree(f"divergence {div:.3e} exceeds tolerance")
    w = quadratic_products(band.inverse(coeff), band)
    k = band.wavenumbers
    p_hat = np.zeros(band.shape, dtype=np.complex128)
    for p, (i, j) in enumerate(PAIRS):
        factor = 1.0 if i == j else 2.0
        p_hat -= factor * k[i] * k[j] * w[p]
    p_hat *= (m_sigma**2) * band.inv_k_squared
    p_hat[0, 0, 0] = 0.0
    return ScalarField(band.inverse(p_hat), grid)
