"""Time integration of the incompressible flow on the torus.

The viscous term is handled exactly by an integrating factor; the projected
nonlinear term is advanced by the four stages of classical RK4, the one
time scheme.  Initial data stays band-limited to the 2/3-rule band, so the
semi-discrete system conserves energy up to viscous dissipation and the
discrete energy identity is a genuine fourth-order statement.

The viscous dissipation integral is accumulated inside the stepper with the
same RK4 weights, which keeps the energy-identity residual at the scheme's
fourth order instead of the snapshot quadrature's.

Everything here is band coefficients of the 2/3-rule band (see
``spectral.SpectralBand``): the initial data ``make_initial`` draws, the
states ``step`` and ``run`` advance, the tendency ``nonlinear_term`` gives
and the snapshots a ``Trajectory`` holds; the audit reads |u| off those
bands (``audit.FieldStats.measure``).  A run allocates its stage arrays
and the quadratic kernel's buffers once (``_Workspace``), so each step
allocates only its new state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    ProductBuffers,
    ShapeMismatch,
    SpectralBand,
    SpectralVelocity,
    TorusGrid,
    _project,
    quadratic_products,
    speed,
)

__all__ = [
    "Instability",
    "BadSpec",
    "SolverConfig",
    "Trajectory",
    "nonlinear_term",
    "step",
    "run",
    "make_initial",
]

BLOWUP_LIMIT = 1e15


class Instability(RuntimeError):
    """The discrete scheme blew up; carries the failing time."""

    def __init__(self, time: float, message: str = ""):
        super().__init__(message or f"discrete blow-up at t = {time:.6g}")
        self.time = time


class BadSpec(ValueError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    viscosity: float = 1.0
    dt: float = 1e-3
    t_final: float = 0.5
    snapshot_stride: int = 10

    def validate(self, grid: TorusGrid) -> int:
        """Check the run is well-posed and return the step count."""
        if self.viscosity <= 0:
            raise BadSpec(f"viscosity must be positive, got {self.viscosity}")
        if self.dt <= 0:
            raise BadSpec(f"dt must be positive, got {self.dt}")
        if self.t_final < 0:
            raise BadSpec(f"t_final must be >= 0, got {self.t_final}")
        if self.snapshot_stride < 1:
            raise BadSpec(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        ratio = self.t_final / self.dt
        n_steps = round(ratio)
        if abs(ratio - n_steps) > 64 * np.finfo(float).eps * max(1.0, ratio):
            raise BadSpec(f"t_final/dt = {ratio!r} is not integral")
        return n_steps

    def viscous_number(self, grid: TorusGrid) -> float:
        """dt * nu * kmax^2; integrated exactly here, recorded for reports."""
        return self.dt * self.viscosity * grid.kmax**2


@dataclass(eq=False)
class Trajectory:
    """Snapshots of one run plus the step-resolved dissipation integral:
    what the run wrote, and nothing measured from it.

    ``coeffs`` holds each snapshot as band coefficients of ``grid.band``;
    the audit's ``FieldStats.measure`` forms |u| from them.
    """

    grid: TorusGrid
    config: SolverConfig
    times: list[float]
    coeffs: list[np.ndarray]
    dissipation: list[float]

    def __post_init__(self):
        shape = (3,) + self.grid.band.shape
        for c in self.coeffs:
            if c.shape != shape:
                raise ShapeMismatch(f"snapshot coefficients have shape {c.shape}, "
                                    f"not the band's {shape}")

    def __len__(self):
        return len(self.times)


class _Workspace:
    """The arrays a run reuses on every step, so that a step allocates only
    its new state; the stages' only given a config.

    numpy casts a real array to complex each time it multiplies complex
    data; k, 1/|k|^2 and the integrating factors (with dt and 2 times
    exp(-nu k^2 dt/2)) are cast here once, to the same values.
    """

    def __init__(self, band: SpectralBand, cfg: SolverConfig | None = None):
        shape = (3,) + band.shape
        self.wavenumbers = band.wavenumbers.astype(np.complex128)
        self.inv_k_squared = band.inv_k_squared.astype(np.complex128)
        self.products = ProductBuffers(band)
        # _project's scratch; the second array is _nonlinear's too
        self.projection = np.empty((2,) + band.shape, dtype=np.complex128)
        if cfg is None:
            return
        e_half = np.exp(-cfg.viscosity * band.k_squared * cfg.dt / 2)
        self.e_half = e_half.astype(np.complex128)
        self.e_full = (e_half * e_half).astype(np.complex128)
        self.dt_e_half = (cfg.dt * e_half).astype(np.complex128)
        self.two_e_half = (2 * e_half).astype(np.complex128)
        self.slopes = np.empty((3,) + shape, dtype=np.complex128)
        self.scratch = np.empty(shape, dtype=np.complex128)
        self.stage = np.empty(shape, dtype=np.complex128)
        # |c|^2 and its scratch, in C order: band sums run in this order
        # whatever the order of the coefficients
        self.power = (np.empty(shape), np.empty(shape))


def _nonlinear(coeff: np.ndarray, band: SpectralBand, work: _Workspace,
               out: np.ndarray) -> np.ndarray:
    """-P[d_j (u_j u_i)] evaluated pseudo-spectrally on band coefficients,
    into ``out``."""
    w = quadratic_products(coeff, band, buffers=work.products)
    k, tmp = work.wavenumbers, work.projection[1]
    # row i of k_j hat(u_i u_j), with w stacked in PAIRS order
    for row, (a, b, c) in zip(out, ((0, 1, 2), (1, 3, 4), (2, 4, 5))):
        np.multiply(k[0], w[a], out=row)
        row += np.multiply(k[1], w[b], out=tmp)
        row += np.multiply(k[2], w[c], out=tmp)
    _project(out, k, work.inv_k_squared, work.projection)
    return np.multiply(-1j, out, out=out)


def nonlinear_term(v: SpectralVelocity) -> SpectralVelocity:
    """Projected advection tendency -P[div(u x u)] as a velocity-shaped field."""
    band = v.grid.band
    out = np.empty((3,) + band.shape, dtype=np.complex128)
    return SpectralVelocity(_nonlinear(v.coeff, band, _Workspace(band), out), v.grid, v.t)


def _dissipation_rate(coeff: np.ndarray, band: SpectralBand, nu: float,
                      power: tuple[np.ndarray, np.ndarray]) -> float:
    """nu |grad u|^2 integrated over the box, from band coefficients.

    ``power`` is two C-order real arrays of coeff's shape
    (``_Workspace.power``), so the sum runs in C order whatever coeff's
    memory order.
    """
    sq, scratch = power
    np.square(coeff.real, out=sq)
    sq += np.square(coeff.imag, out=scratch)
    np.multiply(band.weighted_k_squared, sq, out=sq)
    return nu * band.volume * float(np.sum(sq))


def _step_fields(coeff, band, cfg, t, work):
    """One time step of band coefficients; returns (new_coeff, dissipation_increment).

    The stages are formed in ``work``'s arrays by the operations of the
    formulas in the comments, in their order; new_coeff is a new array in
    C order.
    """
    nu, dt = cfg.viscosity, cfg.dt
    e_half, e_full = work.e_half, work.e_full
    k1, k2, k3 = work.slopes
    stage, scratch = work.stage, work.scratch
    nl = lambda c, out: _nonlinear(c, band, work, out)
    diss = lambda c: _dissipation_rate(c, band, nu, work.power)
    new = np.empty_like(stage)

    nl(coeff, k1)
    # a = e_half * (coeff + (dt / 2) * k1)
    np.multiply(dt / 2, k1, out=scratch)
    np.add(coeff, scratch, out=scratch)
    np.multiply(e_half, scratch, out=scratch)
    diss_a = diss(scratch)
    nl(scratch, k2)
    diss_0 = diss(coeff)
    # b = e_half * coeff + (dt / 2) * k2
    np.multiply(e_half, coeff, out=stage)
    stage += np.multiply(dt / 2, k2, out=scratch)
    diss_b = diss(stage)
    nl(stage, k3)
    # c = e_full * coeff + dt * e_half * k3
    np.multiply(e_full, coeff, out=stage)
    stage += np.multiply(work.dt_e_half, k3, out=scratch)
    diss_c = diss(stage)
    # new = e_full * coeff + (dt / 6) * (e_full * k1 + 2 * e_half * (k2 + k3) + k4),
    # with k4 in k3's array once k2 + k3 is formed
    k2 += k3
    k4 = nl(stage, k3)
    np.multiply(e_full, k1, out=scratch)
    scratch += np.multiply(work.two_e_half, k2, out=k2)
    scratch += k4
    np.multiply(dt / 6, scratch, out=scratch)
    np.multiply(e_full, coeff, out=new)
    new += scratch
    dd = (dt / 6) * (diss_0 + 2 * diss_a + 2 * diss_b + diss_c)
    # NaN and inf both fail the comparison
    if not np.max(np.abs(new, out=work.power[0])) <= BLOWUP_LIMIT:
        raise Instability(t + dt)
    return new, dd


def step(v: SpectralVelocity, cfg: SolverConfig) -> SpectralVelocity:
    """Advance one dt.  Output stays divergence-free."""
    if cfg.dt <= 0 or cfg.viscosity <= 0:
        raise BadSpec("dt and viscosity must be positive")
    band = v.grid.band
    new, _ = _step_fields(v.coeff, band, cfg, v.t, _Workspace(band, cfg))
    return SpectralVelocity(new, v.grid, v.t + cfg.dt)


def run(v0: SpectralVelocity, cfg: SolverConfig) -> Trajectory:
    """Integrate from v0 to t_final, snapshotting every ``snapshot_stride`` steps.

    The first and last states are always snapshotted; the first is a copy
    of v0's band.  Every snapshot is in C order.  Instability surfaces as
    an exception carrying the failing time.
    """
    grid = v0.grid
    n_steps = cfg.validate(grid)
    band = grid.band
    state = v0.coeff.copy()
    times = [0.0]
    coeffs = [state]
    dissipation = [0.0]
    acc = 0.0
    work = _Workspace(band, cfg)
    for n in range(n_steps):
        t = n * cfg.dt
        state, dd = _step_fields(state, band, cfg, t, work)
        acc += dd
        if (n + 1) % cfg.snapshot_stride == 0 or n + 1 == n_steps:
            times.append((n + 1) * cfg.dt)
            coeffs.append(state)
            dissipation.append(acc)
    return Trajectory(grid, cfg, times, coeffs, dissipation)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def _beltrami(grid: TorusGrid, amplitude: float) -> np.ndarray:
    """ABC field with A = B = C = amplitude; curl u = u, so the advection
    term is a pure gradient and each mode decays like exp(-nu t)."""
    x, y, z = grid.mesh()
    a = amplitude
    return np.stack([
        a * np.sin(z) + a * np.cos(y),
        a * np.sin(x) + a * np.cos(z),
        a * np.sin(y) + a * np.cos(x),
    ])


def _taylor_green(grid: TorusGrid, amplitude: float) -> np.ndarray:
    x, y, z = grid.mesh()
    return np.stack([
        amplitude * np.sin(x) * np.cos(y) * np.cos(z),
        -amplitude * np.cos(x) * np.sin(y) * np.cos(z),
        np.zeros_like(x),
    ])


# the analytic kinds, as velocities on the grid
_ANALYTIC = {"beltrami": _beltrami, "taylor_green": _taylor_green}


def _half_space_modes(kmax: int) -> np.ndarray:
    """Canonical representatives of conjugate mode pairs with 0 < |m| <= kmax,
    shape (M, 3), in lexicographic order: the modes whose first nonzero
    entry is positive."""
    m = np.arange(-kmax, kmax + 1)
    mx, my, mz = (a.ravel() for a in np.meshgrid(m, m, m, indexing="ij"))
    canonical = (mx > 0) | ((mx == 0) & ((my > 0) | ((my == 0) & (mz > 0))))
    keep = canonical & (mx * mx + my * my + mz * mz <= kmax * kmax)
    return np.stack([mx[keep], my[keep], mz[keep]], axis=1)


def _random_spectrum(band: SpectralBand, seed: int, amplitude: float, kmax: int) -> np.ndarray:
    """Band coefficients of a Gaussian low-mode field with a fixed radial profile.

    The modes populated and the draw order do not depend on the grid size,
    so different resolutions sample the same band-limited field.  Each mode
    and its conjugate go into the band where their k_z >= 0.
    """
    if kmax > band.cut:
        raise BadSpec(f"kmax = {kmax} does not fit the dealias band of n = {band.npts}")
    rng = np.random.default_rng(seed)
    modes = _half_space_modes(kmax)
    draws = rng.normal(size=(len(modes), 6))
    mag2 = modes[:, 0] ** 2 + modes[:, 1] ** 2 + modes[:, 2] ** 2
    k0 = max(kmax / 2.5, 1.0)
    profile = mag2**2 * np.exp(-2.0 * mag2 / k0**2)
    vec = np.sqrt(profile)[:, None] * (draws[:, 0::2] + 1j * draws[:, 1::2])
    modes = np.concatenate([modes, -modes])
    vec = np.concatenate([vec, np.conj(vec)])
    upper = modes[:, 2] >= 0
    # mode number m sits at band row m mod (2c+1)
    ix, iy, iz = (modes[upper] % (band.shape[0], band.shape[1], band.planes)).T
    coeff = np.zeros((3,) + band.shape, dtype=np.complex128)
    coeff[:, ix, iy, iz] = vec[upper].T
    coeff = _project(coeff, band.wavenumbers, band.inv_k_squared)
    coeff[:, 0, 0, 0] = 0.0
    # |u| as the audit forms it
    sup = float(np.max(speed(band.inverse(coeff))))
    if sup > 0:
        coeff *= amplitude / sup
    return coeff


def make_initial(
    kind: str,
    grid: TorusGrid,
    seed: int = 0,
    amplitude: float = 1.0,
    kmax: int = 8,
) -> SpectralVelocity:
    """Divergence-free, real, mean-zero initial data on the 2/3-rule band.

    ``random_spectrum`` is normalized so the initial sup norm equals
    ``amplitude``; the analytic kinds use ``amplitude`` as their coefficient
    and keep the band transform of their grid values.
    """
    band = grid.band
    if kind in _ANALYTIC:
        coeff = band.forward(_ANALYTIC[kind](grid, amplitude))
    elif kind == "random_spectrum":
        coeff = _random_spectrum(band, seed, amplitude, kmax)
    else:
        raise BadSpec(f"unknown initial data kind {kind!r}")
    coeff = _project(coeff, band.wavenumbers, band.inv_k_squared)
    coeff[:, 0, 0, 0] = 0.0
    return SpectralVelocity(coeff, grid, 0.0)
