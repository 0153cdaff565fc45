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
band (``SpectralBand``): the modes the run keeps, cut out of the half
spectrum.  With the 2/3 rule that is (..., 2c+1, 2c+1, c+1) with c = n//3,
3.6 times fewer entries than the half spectrum and 6.8 times fewer than the
full layout at n = 32; without dealiasing it is the whole half spectrum.
The solver steps it, trajectories hold it and NSBL2 checkpoints store it.
``SpectralBand.compact`` takes a full or half layout to the band,
``expand`` takes the band back to the full layout with zeros outside, and
its ``forward`` and ``inverse`` transform only the lines that carry band
modes.
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
    _bands: dict = field(default_factory=dict, init=False, repr=False)

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

    def band(self, dealias: bool = True) -> "SpectralBand":
        """The modes a run on this grid keeps; built once per grid and flag."""
        dealias = bool(dealias)
        if dealias not in self._bands:
            self._bands[dealias] = SpectralBand(self, dealias)
        return self._bands[dealias]

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


def half_inverse(half: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Half-spectrum coefficients to real-space data."""
    return np.fft.irfftn(half, s=(grid.npts,) * 3, axes=(-3, -2, -1), norm="forward")


class SpectralBand:
    """The modes a run keeps, as a compact block of the half spectrum.

    With the 2/3 rule these are the modes with every |m_i| <= n//3, stored
    as (..., 2c+1, 2c+1, c+1) with c = n//3: the kept k_x and k_y indices
    ``rows`` in FFT order (0..c, n-c..n-1) and the k_z planes 0..c.  Without
    dealiasing the band is the whole half spectrum (..., n, n, n//2+1).

    The operators are the full-layout ones at the kept indices, so the
    Nyquist entries keep the full layout's -n/2.  The transforms skip the
    lines that only carry modes outside the band; every line they do
    compute is the line ``rfftn`` or ``irfftn`` would compute.

    The band holds no reference to its grid, which caches it: a cycle
    would keep both alive until the cyclic garbage collector runs.
    """

    def __init__(self, grid: TorusGrid, dealias: bool):
        n = grid.npts
        cut = n // 3 if dealias else n // 2
        self.npts = n
        self.volume = grid.volume
        self.cut = cut
        self.rows = np.flatnonzero(np.abs(grid.freqs) <= cut)
        # the row of -k for each row of k; the Nyquist row is its own mirror
        self.mirror_rows = -self.rows % n
        self.planes = cut + 1
        # The interior k_z planes 1..inner-1 have their conjugate mirrors
        # n-1..n-inner+1 outside the half spectrum; the k_z = 0 and Nyquist
        # planes are their own mirrors.
        self.inner = cut if 2 * cut == n else cut + 1
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
        # in sums over the band an interior plane also stands for its
        # mirror, so it counts twice
        self.weights = np.ones(self.planes)
        self.weights[1 : self.inner] = 2.0

    def compact(self, coeff: np.ndarray) -> np.ndarray:
        """The band entries of full- or half-layout data, as a copy."""
        return coeff[..., self.rows[:, None], self.rows, : self.planes]

    def expand(self, band: np.ndarray) -> np.ndarray:
        """Full-layout coefficients of band data, zero outside the band.

        The band goes in as it is; each interior k_z plane goes in once
        more, conjugated, at the negated indices, c(-k) = conj(c(k)).  The
        k_z = 0 and Nyquist planes are their own mirrors and go in once.
        """
        n, m = self.npts, self.inner
        full = np.zeros(band.shape[:-3] + (n, n, n), dtype=np.complex128)
        full[..., self.rows[:, None], self.rows, : self.planes] = band
        full[..., self.mirror_rows[:, None], self.mirror_rows, n - m + 1 :] = np.conj(
            band[..., m - 1 : 0 : -1]
        )
        return full

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
    p is fixed to 0.  The velocity is taken in full, band-limited or not;
    the quadratic products and p are dealiased to the 2/3-rule band.
    """
    grid = v.grid
    div = v.divergence_max()
    if div > DIV_TOL * max(1.0, v.coeff_norm()):
        raise NotDivergenceFree(f"divergence {div:.3e} exceeds tolerance")
    band = grid.band()
    w = quadratic_products(half_inverse(v.coeff[..., : grid.npts // 2 + 1], grid), band)
    k = band.wavenumbers
    p_hat = np.zeros(band.shape, dtype=np.complex128)
    for p, (i, j) in enumerate(PAIRS):
        factor = 1.0 if i == j else 2.0
        p_hat -= factor * k[i] * k[j] * w[p]
    p_hat *= (m_sigma**2) * band.inv_k_squared
    p_hat[0, 0, 0] = 0.0
    return ScalarField(band.inverse(p_hat), grid)
