"""Torus grids, spectral fields, and the Fourier-multiplier operators on them.

The whole-space problem is discretized on a periodic box of side ``length``;
on the torus the singular-integral pressure operator is the exact multiplier
k_i k_j / |k|^2, and decay at infinity becomes periodicity.  Coefficients are
forward-normalized, so the zero mode of a field is its mean value.

Layouts.  Every field is its band (``SpectralBand``): the modes the 2/3
rule keeps, cut out of the k_z >= 0 half spectrum that ``numpy.fft.rfftn``
returns, (..., 2c+1, 2c+1, c+1) with c = ``band_cut(n)``; the conjugate
symmetry c(-k) = conj(c(k)) fixes the rest of a real field.  At n = 32 that
is 3.6 times fewer entries than the half spectrum and 6.8 times fewer than
the full (..., n, n, n) layout.  Initial data, ``SpectralVelocity``, the
solver's states, trajectories and NSBL2 checkpoints hold it; each audited
snapshot's velocity comes from one ``inverse`` of its band, and |u|
(``speed``) and ``cz_pressure`` (which checks the band's divergence) both
take it.  The band's transforms compute only the lines that carry band
modes, and nothing in the package forms the full layout.

Threads.  ``over_snapshots`` splits an audit's per-snapshot passes, and
``quadratic_products`` (the solver's nonlinear term and the pressure) its
x-slabs, into one contiguous chunk per usable CPU on one team of threads,
each parked on a raw lock until the main thread hands it a chunk; the
team starts on first use, never on import.  From any thread but the main
one (a suite's workers, a snapshot chunk) both run inline, so threads
never nest.  The chunks compute per-snapshot values or whole 1-D
transform lines, so no result depends on the CPU count.  Every numpy call
releases and retakes the GIL, so the kernel batches: a slab walks
x-blocks that fit in L2 and transforms the six products of a block in one
call per stage.  A run passes the kernel one set of ``ProductBuffers`` for
all its steps; the pressure, solved on many threads at once, allocates
its own per call.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

__all__ = [
    "ShapeMismatch",
    "NotDivergenceFree",
    "TorusGrid",
    "SpectralVelocity",
    "speed",
    "SpectralBand",
    "band_cut",
    "ProductBuffers",
    "quadratic_products",
    "divergence_max",
    "cz_pressure",
    "over_snapshots",
]

TWO_PI = 2.0 * np.pi

# relative tolerance on the discrete divergence for "divergence-free" inputs
DIV_TOL = 1e-12
# box lengths on which a run and its audit end in a result or a typed error,
# never a float64 overflow, for every amplitude in audit.AMPLITUDE_RANGE
LENGTH_RANGE = (1e-30, 1e30)


# CPUs this process may run on: an audit splits its snapshots, and the
# quadratic kernel its x-slabs, into this many chunks.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# At most one malloc arena per usable CPU, not glibc's eight: nsbl never
# has more than CPUS threads busy at once, so more arenas add no speed.
# They only each keep what their threads freed, and new threads (a suite's
# workers) would take whichever arena is free, so a suite's peak memory
# would depend on which member ran in which thread.  M_ARENA_MAX is -8 in
# glibc; elsewhere there is no mallopt and nothing to do.
try:
    ctypes.CDLL(None).mallopt(-8, CPUS)
except (AttributeError, OSError, TypeError):
    pass


class _Team:
    """``size`` persistent threads, each parked on a raw lock of its own.

    ``run`` hands chunk k to thread k by releasing that thread's lock and
    then takes one done-lock per chunk: two lock hand-offs per chunk, where
    a pool's futures cost a condition variable and a queue each.  Only one
    thread at a time may call ``run``; ``_over_chunks`` calls it from the
    main thread only.
    """

    def __init__(self, size: int):
        self._go = [threading.Lock() for _ in range(size)]
        self._done = [threading.Lock() for _ in range(size)]
        # (fn, chunk) handed to each thread, then (ok, value) back; None to stop
        self._slots: list = [None] * size
        for lock in self._go + self._done:
            lock.acquire()
        self._threads = [threading.Thread(target=self._serve, args=(k,), daemon=True,
                                          name=f"nsbl-team-{k}") for k in range(size)]
        for t in self._threads:
            t.start()

    def _serve(self, k: int):
        go, done, slots = self._go[k], self._done[k], self._slots
        while True:
            go.acquire()
            work = slots[k]
            if work is None:
                return
            try:
                slots[k] = (True, work[0](work[1]))
            except BaseException as exc:  # handed back to the caller
                slots[k] = (False, exc)
            # a parked thread holds no reference to the chunk's function,
            # which may hold a whole audit's arrays
            del work
            done.release()

    def _start(self, k: int, fn, chunk):
        self._slots[k] = (fn, chunk)
        self._go[k].release()

    def run(self, fn, chunks: list) -> list:
        """[fn(chunk) for chunk in chunks], chunk k on thread k; every chunk
        ends before the first failed chunk's error, in chunk order, is raised."""
        for k, chunk in enumerate(chunks):
            self._start(k, fn, chunk)
        waited = 0
        try:
            for done in self._done[: len(chunks)]:
                done.acquire()
                waited += 1
        finally:
            # interrupted (say by Ctrl-C): the threads still finish their chunks
            for done in self._done[waited : len(chunks)]:
                done.acquire()
        outcomes, self._slots[: len(chunks)] = self._slots[: len(chunks)], [None] * len(chunks)
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _, value in outcomes]

    def close(self):
        """Let every parked thread end; the team takes no more chunks."""
        for go in self._go:
            go.release()


# the team of ``_over_chunks``, started on first use, never on import
_TEAM: _Team | None = None


def _chunks(n: int) -> list:
    """range(n) as ``_over_chunks`` cuts it on the calling thread: one
    contiguous chunk per usable CPU on the main thread, one chunk on any
    other, so threads never nest."""
    if threading.current_thread() is not threading.main_thread():
        return [range(n)]
    bounds = [n * k // CPUS for k in range(CPUS + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:]) if a < b] or [range(n)]


def _over_chunks(fn, n: int) -> list:
    """[fn(chunk) for chunk in _chunks(n)], each chunk run on a thread of the
    module's team while the caller waits; a single chunk runs inline.

    Every chunk ends before an error is raised, and the error raised is the
    one of the first chunk that failed.
    """
    global _TEAM
    chunks = _chunks(n)
    if len(chunks) < 2:
        return [fn(chunks[0])]
    if _TEAM is None:
        _TEAM = _Team(CPUS)
    return _TEAM.run(fn, chunks)


def over_snapshots(fn, nt: int) -> list:
    """[fn(i) for i in range(nt)], run in snapshot order within each chunk
    of ``_over_chunks``.

    ``fn`` computes one snapshot's values only; sums and maxima over the
    snapshots stay with the caller, in snapshot order, so results do not
    depend on the CPU count.  The error raised is the one of the first
    snapshot that failed.
    """
    return [value for chunk in _over_chunks(lambda c: [fn(i) for i in c], nt)
            for value in chunk]


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

    dim: ClassVar[int] = 3
    npts: int
    length: float = TWO_PI
    _band: "SpectralBand | None" = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.npts < 8 or self.npts % 2:
            raise ShapeMismatch(f"npts must be even and >= 8, got {self.npts}")
        lo, hi = LENGTH_RANGE
        if not lo <= self.length <= hi:
            raise ShapeMismatch(f"box length must lie in [{lo:g}, {hi:g}], got {self.length}")

    @cached_property
    def freqs(self) -> np.ndarray:
        """Integer mode numbers along one axis, FFT layout."""
        return np.rint(np.fft.fftfreq(self.npts) * self.npts).astype(np.int64)

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


def band_cut(n: int) -> int:
    """The largest |m_i| the band of an n-point grid keeps (2/3 rule)."""
    return n // 3


class SpectralBand:
    """The modes a run keeps, as a compact block of the half spectrum.

    These are the modes with every |m_i| <= c = ``band_cut(n)`` (2/3 rule),
    stored as (..., 2c+1, 2c+1, c+1): the kept k_x and k_y indices
    ``rows`` in FFT order (0..c, n-c..n-1) and the k_z planes 0..c.

    The transforms skip the lines that only carry modes outside the band;
    every line they do compute is the line ``rfftn`` or ``irfftn`` would
    compute.

    The band holds no reference to its grid, which caches it: a cycle
    would keep both alive until the cyclic garbage collector runs.
    """

    def __init__(self, grid: TorusGrid):
        n = grid.npts
        cut = band_cut(n)
        self.npts = n
        self.volume = grid.volume
        self.cut = cut
        self.rows = np.flatnonzero(np.abs(grid.freqs) <= cut)
        self.planes = cut + 1
        self.shape = (self.rows.size, self.rows.size, self.planes)
        # k, |k|^2 and 1/|k|^2 at the kept indices, built from one axis
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
        # the weights of |c|^2 in the dissipation sum
        self.weighted_k_squared = self.weights * self.k_squared

    def sum_squares(self, band: np.ndarray) -> float:
        """The sum of |c|^2 over the full layout, taken on the band: a k_z
        plane 1..c counts for its mirror too.  It runs on a C-order copy
        unless band is in C order, so its bits do not depend on the
        band's memory order."""
        band = np.ascontiguousarray(band)
        return float(np.sum(self.weights * (band.real**2 + band.imag**2)))

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Band coefficients of real fields (..., n, n, n): rfft along z, keep
        the band planes, fft along y, keep the band rows, fft along x."""
        return self._forward_x(self._forward_zy(values))

    def inverse(self, band: np.ndarray) -> np.ndarray:
        """Real-space data of band coefficients (..., *shape): zero-pad x and
        ifft, zero-pad y and ifft, then irfft along z."""
        w = np.zeros(band.shape[:-3] + (self.npts,) + self.shape[1:], dtype=np.complex128)
        return self._inverse_yz(self._inverse_x(band, w))

    # each transform in two stages, so that the y- and z-stages can run on
    # x-slabs; a stage transforms in place wherever the shape allows

    def _take_rows(self, w: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
        """The band rows of w along ``axis``, the first c+1 and the last c,
        copied into ``out`` if given (``np.take`` would copy a strided w
        first)."""
        c = self.cut
        if out is None:
            shape = list(w.shape)
            shape[axis] = 2 * c + 1
            out = np.empty(shape, dtype=w.dtype)
        src, dst = np.moveaxis(w, axis, 0), np.moveaxis(out, axis, 0)
        dst[: c + 1] = src[: c + 1]
        dst[c + 1 :] = src[self.npts - c :]
        return out

    def _forward_zy(self, values: np.ndarray, out: np.ndarray | None = None,
                    spectrum: np.ndarray | None = None) -> np.ndarray:
        """Real (..., m, n, n) to (..., m, 2c+1, c+1), into ``out`` if given,
        with the rfft along z into ``spectrum`` (..., m, n, n//2+1) if given."""
        w = np.fft.rfft(values, axis=-1, norm="forward", out=spectrum)[..., : self.planes]
        np.fft.fft(w, axis=-2, norm="forward", out=w)
        return self._take_rows(w, -2, out)

    def _forward_x(self, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The band rows of the fft along x of (..., n, 2c+1, c+1), taken in
        w, into ``out`` if given."""
        np.fft.fft(w, axis=-3, norm="forward", out=w)
        return self._take_rows(w, -3, out)

    def _inverse_x(self, band: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Band data (..., *shape) into the band rows of w (zero elsewhere), ifft'd along x."""
        w[..., self.rows, :, :] = band
        return np.fft.ifft(w, axis=-3, norm="forward", out=w)

    def _inverse_yz(self, w: np.ndarray, padded: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
        """(..., m, 2c+1, c+1) to real (..., m, n, n), into ``out`` if given.

        A ``padded`` buffer (..., m, n, c+1) from an earlier call has its
        rows outside the band zeroed again: the y-ifft filled them.
        """
        n = self.npts
        if padded is None:
            padded = np.zeros(w.shape[:-2] + (n, self.planes), dtype=np.complex128)
        else:
            padded[..., self.cut + 1 : n - self.cut, :] = 0
        padded[..., self.rows, :] = w
        np.fft.ifft(padded, axis=-2, norm="forward", out=padded)
        return np.fft.irfft(padded, n=n, axis=-1, norm="forward", out=out)


# the six index pairs i <= j of the symmetric tensor u_i u_j, in stacking order
PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


# x-blocks of at most this many grid cells, sized to a core's L2 cache: 16
# x-planes at 32^3, 7 at 48^3
BLOCK_CELLS = 16384


def _block_width(n: int) -> int:
    return max(1, BLOCK_CELLS // (n * n))


def _prefix(flat: np.ndarray | None, *shape: int) -> np.ndarray | None:
    """The first prod(shape) entries of a 1-D array as an array of that
    shape, contiguous for any block width; None for None."""
    return None if flat is None else flat[: math.prod(shape)].reshape(shape)


class ProductBuffers:
    """The arrays of a ``quadratic_products`` call on a band, for every later
    call on the same band and thread to reuse.

    ``stages`` (6, n, 2c+1, c+1) holds the x-stage of the velocity and
    then the products between their x- and y-stages, and ``out`` the
    products' band, the return value; each slab takes its x-rows of both.
    Each slab also has one block of its own: the six products' grid values
    and their rfft along z for one x-block, so their size does not grow
    with the grid.  The block's velocity lives in the last three product
    rows and its y-padding in the rfft's memory, each overwritten only once
    it is used.
    """

    def __init__(self, band: SpectralBand):
        n = self.npts = band.npts
        self.stages = np.empty((len(PAIRS), n) + band.shape[1:], dtype=np.complex128)
        self.out = np.empty((len(PAIRS),) + band.shape, dtype=np.complex128)
        # the blocks of the slabs this thread will use, made with the rest:
        # made inside the slabs, on the team's threads, they left the main
        # heap fragmented after a run, and a later peak 5 MB higher
        self._blocks: dict[int, tuple] = {}
        for xs in _chunks(n):
            self.block(xs, min(_block_width(n), len(xs)))

    def block(self, xs: range, width: int) -> tuple:
        """Flat (products, spectra) for blocks of up to ``width`` x-planes of
        the slab ``xs``, kept by its start."""
        n = self.npts
        size = len(PAIRS) * width * n * n
        if xs.start not in self._blocks or self._blocks[xs.start][0].size < size:
            self._blocks[xs.start] = (np.empty(size), np.empty(
                len(PAIRS) * width * n * (n // 2 + 1), dtype=np.complex128))
        return self._blocks[xs.start]


def quadratic_products(coeff: np.ndarray, band: SpectralBand,
                       velocity: np.ndarray | None = None,
                       buffers: ProductBuffers | None = None) -> np.ndarray:
    """hat(u_i u_j) for the six ``PAIRS`` on the band, shape (6, *band.shape).

    ``coeff`` holds the velocity's band coefficients; a caller that has
    formed ``velocity = band.inverse(coeff)`` already passes it too.  After
    the x-stage of the inverse, ``_over_chunks`` shares out x-slabs.  A slab
    walks x-blocks of at most ``BLOCK_CELLS`` grid cells; each block forms
    its velocity in one y/z inverse of the three components, the six
    products in four multiplies, and transforms all six along z and y at
    once: 12 numpy calls a block, each one releasing the GIL, where a slab
    took 34 one field at a time.  The x-stage of the forward transforms
    comes last.  Every 1-D line is one that ``band.inverse`` or
    ``band.forward`` transforms, so no result depends on the number of
    slabs or blocks.

    With ``buffers`` the call writes into them and returns ``buffers.out``.
    Without, it allocates each array only where it needs it, as the
    pressure does, on many threads at once: arrays held for the whole call
    raised an audit's peak memory.  Its blocks are narrower for the same
    reason.
    """
    n, b, planes = band.npts, buffers, band.planes
    stages = b.stages if b else np.empty((len(PAIRS), n) + band.shape[1:], dtype=np.complex128)
    if velocity is None:
        # the x-stage of the inverse, in the rows that the products take
        # later: a block reads its rows of it before it writes any product
        stages[:3, band.cut + 1 : n - band.cut] = 0
        band._inverse_x(coeff, stages[:3])
    width = _block_width(n)
    if not b:
        # the pressure, solved on many threads at once, takes at most n//6
        # x-planes a block: its six products then hold no more than one
        # product of the whole grid, so an audit's peak memory does not grow
        width = max(1, min(width, n // len(PAIRS)))

    def slab(xs):
        m = min(width, len(xs))
        prod, spectrum = b.block(xs, m) if b else (np.empty(len(PAIRS) * m * n * n), None)
        for x0 in range(xs.start, xs.stop, m):
            x = slice(x0, min(x0 + m, xs.stop))
            k = x.stop - x0
            p = _prefix(prod, len(PAIRS), k, n, n)
            if velocity is None:
                u = band._inverse_yz(stages[:3, x], _prefix(spectrum, 3, k, n, planes), p[3:])
            else:
                u = velocity[:, x]
            # in PAIRS order, each product row written once the velocity
            # component it may hold is used: u0 u0, u0 u1, u0 u2 from one
            # broadcast, then u1 u1 over u0, u1 u2 over u1, u2 u2 over u2
            np.multiply(u[0], u, out=p[:3])
            np.multiply(u[1], u[1], out=p[3])
            np.multiply(u[1], u[2], out=p[4])
            np.multiply(u[2], u[2], out=p[5])
            band._forward_zy(p, stages[:, x], _prefix(spectrum, len(PAIRS), k, n, n // 2 + 1))

    _over_chunks(slab, n)
    return band._forward_x(stages, b and b.out)


@dataclass(eq=False)
class SpectralVelocity:
    """Velocity field as band coefficients of ``grid.band``, shape
    (3, *grid.band.shape)."""

    coeff: np.ndarray
    grid: TorusGrid
    t: float = 0.0

    def __post_init__(self):
        shape = (3,) + self.grid.band.shape
        if self.coeff.shape != shape:
            raise ShapeMismatch(f"velocity coefficients have shape {self.coeff.shape}, "
                                f"not the 2/3-rule band's {shape}")

    def components(self) -> np.ndarray:
        """Physical velocity components, shape (3, n, n, n)."""
        return self.grid.band.inverse(self.coeff)

    def magnitude(self) -> np.ndarray:
        return speed(self.components())


def speed(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|u| = sqrt((u0² + u1²) + u2²) of velocity components u, shape
    (3, n, n, n), into ``out`` if given.  The initial data's sup, the
    audit's |u| and ``SpectralVelocity.magnitude`` all take this order of
    sums, so they agree bit for bit."""
    mag = np.square(u[0], out=out)
    sq = np.empty_like(mag)
    mag += np.square(u[1], out=sq)
    mag += np.square(u[2], out=sq)
    return np.sqrt(mag, out=mag)


def _project(coeff: np.ndarray, k: np.ndarray, inv_k_squared: np.ndarray,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """The Leray projection coeff - k (k . coeff)/|k|^2, in place; ``scratch``
    holds two complex arrays of one component's shape, allocated if not
    given."""
    if scratch is None:
        scratch = np.empty((2,) + coeff.shape[1:], dtype=np.complex128)
    kdotv, tmp = scratch
    np.multiply(k[0], coeff[0], out=kdotv)
    kdotv += np.multiply(k[1], coeff[1], out=tmp)
    kdotv += np.multiply(k[2], coeff[2], out=tmp)
    kdotv *= inv_k_squared
    for c, ki in zip(coeff, k):
        c -= np.multiply(ki, kdotv, out=tmp)
    return coeff


def divergence_max(coeff: np.ndarray, k: np.ndarray) -> float:
    """max |k . c| over coefficients ``coeff`` at wavevectors ``k``."""
    div = k[0] * coeff[0] + k[1] * coeff[1] + k[2] * coeff[2]
    return float(np.max(np.abs(div)))


def cz_pressure(coeff: np.ndarray, velocity: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Pressure from the velocity through the exact multiplier k_i k_j/|k|^2.

    Solves -lap(p) = d_i d_j (u_j u_i) spectrally; the zero mode of
    p is fixed to 0.  ``coeff`` holds the velocity's 2/3-rule band, shape
    (3, *grid.band.shape), as trajectories store it, and its divergence is
    checked; ``velocity`` is the same field on the grid, shape (3, n, n, n),
    ``grid.band.inverse(coeff)`` up to roundoff, which the caller has
    already formed.  The quadratic products and p are dealiased to the band.
    Returns p on the grid, shape (n, n, n); non-finite entries raise
    ValueError.
    """
    band = grid.band
    if coeff.shape != (3,) + band.shape:
        raise ShapeMismatch(f"velocity band has shape {coeff.shape}, "
                            f"not the 2/3-rule band's {(3,) + band.shape}")
    if velocity.shape != (3,) + (grid.npts,) * 3:
        raise ShapeMismatch(f"velocity has shape {velocity.shape}, "
                            f"not {(3,) + (grid.npts,) * 3}")
    # measured on the integer mode numbers m = k / (2 pi / L), so the
    # verdict does not depend on the box length (the factor is 1 at L = 2 pi)
    div = divergence_max(coeff, band.wavenumbers) / (TWO_PI / grid.length)
    if div > DIV_TOL * max(1.0, np.sqrt(band.sum_squares(coeff))):
        raise NotDivergenceFree(f"divergence {div:.3e} exceeds tolerance")
    w = quadratic_products(coeff, band, velocity)
    k = band.wavenumbers
    p_hat = np.zeros(band.shape, dtype=np.complex128)
    for p, (i, j) in enumerate(PAIRS):
        factor = 1.0 if i == j else 2.0
        p_hat -= factor * k[i] * k[j] * w[p]
    p_hat *= band.inv_k_squared
    p_hat[0, 0, 0] = 0.0
    p = band.inverse(p_hat)
    if not np.all(np.isfinite(p)):
        raise ValueError("pressure contains non-finite entries")
    return p
