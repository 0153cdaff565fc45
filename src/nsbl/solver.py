"""Time integration of the incompressible flow on the torus.

The viscous term is handled exactly by an integrating factor; the projected
nonlinear term is advanced by explicit Runge-Kutta stages.  Initial data
stays band-limited to the 2/3-rule band, so the semi-discrete system
conserves energy up to viscous dissipation and the discrete energy identity
is a genuine fourth-order statement for the RK4 scheme.

The viscous dissipation integral is accumulated inside the stepper with the
same Runge-Kutta weights, which keeps the energy-identity residual at the
scheme's order instead of the snapshot quadrature's.

The stepper works on the kept band of the half spectrum (see
``spectral.SpectralBand``), and a trajectory stores its snapshots as that
band; ``step``, ``nonlinear_term`` and ``Trajectory.velocity`` take and
give the full layout, and ``Trajectory.magnitudes`` reads the band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    ShapeMismatch,
    SpectralBand,
    SpectralVelocity,
    TorusGrid,
    _project,
    _project_coeff,
    quadratic_products,
    transform_forward,
    transform_inverse,
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
    scheme: str = "rk4"

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
        if self.scheme not in ("rk4", "rk2"):
            raise BadSpec(f"unknown scheme {self.scheme!r}")
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
    """Snapshots of one run plus the step-resolved dissipation integral.

    ``coeffs`` holds each snapshot as band coefficients of ``grid.band``;
    ``velocity`` expands one to the full layout on demand, and
    ``magnitudes`` reads the bands directly.
    """

    grid: TorusGrid
    config: SolverConfig
    times: list[float]
    coeffs: list[np.ndarray]
    dissipation: list[float]

    _magnitudes: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        shape = (3,) + self.grid.band.shape
        for c in self.coeffs:
            if c.shape != shape:
                raise ShapeMismatch(f"snapshot coefficients have shape {c.shape}, "
                                    f"not the band's {shape}")

    def __len__(self):
        return len(self.times)

    def velocity(self, i: int) -> SpectralVelocity:
        """Snapshot i in the full layout."""
        band = self.grid.band
        return SpectralVelocity(band.expand(self.coeffs[i]), self.grid, self.times[i])

    def magnitudes(self) -> np.ndarray:
        """|u| on the grid for every snapshot, shape (nt, n, n, n); cached.

        Each snapshot's velocity comes from one pruned inverse transform of
        its band and lives only until its |u| is written.
        """
        if self._magnitudes is None:
            band = self.grid.band
            mags = np.empty((len(self.coeffs),) + (self.grid.npts,) * 3)
            for c, out in zip(self.coeffs, mags):
                u = band.inverse(c)
                np.square(u, out=u)
                np.sqrt(u[0] + u[1] + u[2], out=out)
            self._magnitudes = mags
        return self._magnitudes


def _nonlinear(coeff: np.ndarray, band: SpectralBand) -> np.ndarray:
    """-P[d_j (u_j u_i)] evaluated pseudo-spectrally on band coefficients."""
    w = quadratic_products(band.inverse(coeff), band)
    k = band.wavenumbers
    # row i of k_j hat(u_i u_j), with w stacked in PAIRS order
    div = np.stack([
        k[0] * w[0] + k[1] * w[1] + k[2] * w[2],
        k[0] * w[1] + k[1] * w[3] + k[2] * w[4],
        k[0] * w[2] + k[1] * w[4] + k[2] * w[5],
    ])
    return -1j * _project(div, k, band.inv_k_squared)


def nonlinear_term(v: SpectralVelocity) -> SpectralVelocity:
    """Projected advection tendency -P[div(u x u)] as a velocity-shaped field.

    Modes of ``v`` outside the 2/3-rule band are dropped first, as ``run``
    drops them from its initial data.
    """
    band = v.grid.band
    out = _nonlinear(band.compact(v.coeff), band)
    return SpectralVelocity(band.expand(out), v.grid, v.t)


def _dissipation_rate(coeff: np.ndarray, band: SpectralBand, nu: float) -> float:
    """nu |grad u|^2 integrated over the box, from band coefficients."""
    weighted = band.weights * band.k_squared
    power = coeff.real**2 + coeff.imag**2
    return nu * band.volume * float(np.sum(weighted * power))


def _integrating_factors(band: SpectralBand, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """exp(-nu k^2 dt/2) and exp(-nu k^2 dt) on the band."""
    e_half = np.exp(-cfg.viscosity * band.k_squared * cfg.dt / 2)
    return e_half, e_half * e_half


def _step_fields(coeff, band, cfg, t, factors):
    """One time step of band coefficients; returns (new_coeff, dissipation_increment)."""
    nu, dt = cfg.viscosity, cfg.dt
    e_half, e_full = factors
    nl = lambda c: _nonlinear(c, band)
    diss = lambda c: _dissipation_rate(c, band, nu)

    k1 = nl(coeff)
    if cfg.scheme == "rk2":
        mid = e_half * (coeff + (dt / 2) * k1)
        new = e_full * coeff + dt * e_half * nl(mid)
        dd = dt * diss(mid)
    else:
        a = e_half * (coeff + (dt / 2) * k1)
        k2 = nl(a)
        b = e_half * coeff + (dt / 2) * k2
        k3 = nl(b)
        c = e_full * coeff + dt * e_half * k3
        k4 = nl(c)
        new = e_full * coeff + (dt / 6) * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)
        dd = (dt / 6) * (diss(coeff) + 2 * diss(a) + 2 * diss(b) + diss(c))
    if not np.all(np.isfinite(new)) or np.max(np.abs(new)) > BLOWUP_LIMIT:
        raise Instability(t + dt)
    return new, dd


def step(v: SpectralVelocity, cfg: SolverConfig) -> SpectralVelocity:
    """Advance one dt.  Output stays divergence-free and band-limited.

    Modes of ``v`` outside the 2/3-rule band are dropped first, as ``run``
    drops them from its initial data.
    """
    if cfg.dt <= 0 or cfg.viscosity <= 0:
        raise BadSpec("dt and viscosity must be positive")
    if cfg.scheme not in ("rk4", "rk2"):
        raise BadSpec(f"unknown scheme {cfg.scheme!r}")
    band = v.grid.band
    new, _ = _step_fields(band.compact(v.coeff), band, cfg, v.t,
                          _integrating_factors(band, cfg))
    return SpectralVelocity(band.expand(new), v.grid, v.t + cfg.dt)


def run(v0: SpectralVelocity, cfg: SolverConfig) -> Trajectory:
    """Integrate from v0 to t_final, snapshotting every ``snapshot_stride`` steps.

    The first and last states are always snapshotted; the first is the band
    of v0.  Snapshots are the band states as they are.  Instability
    surfaces as an exception carrying the failing time.
    """
    grid = v0.grid
    n_steps = cfg.validate(grid)
    band = grid.band
    state = band.compact(v0.coeff)
    times = [0.0]
    coeffs = [state]
    dissipation = [0.0]
    acc = 0.0
    factors = _integrating_factors(band, cfg)
    for n in range(n_steps):
        t = n * cfg.dt
        state, dd = _step_fields(state, band, cfg, t, factors)
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
    u = np.stack([
        a * np.sin(z) + a * np.cos(y),
        a * np.sin(x) + a * np.cos(z),
        a * np.sin(y) + a * np.cos(x),
    ])
    return transform_forward(u, grid)


def _taylor_green(grid: TorusGrid, amplitude: float) -> np.ndarray:
    x, y, z = grid.mesh()
    u = np.stack([
        amplitude * np.sin(x) * np.cos(y) * np.cos(z),
        -amplitude * np.cos(x) * np.sin(y) * np.cos(z),
        np.zeros_like(x),
    ])
    return transform_forward(u, grid)


def _half_space_modes(kmax: int) -> list[tuple[int, int, int]]:
    """Canonical representatives of conjugate mode pairs with 0 < |m| <= kmax."""
    modes = []
    for mx in range(-kmax, kmax + 1):
        for my in range(-kmax, kmax + 1):
            for mz in range(-kmax, kmax + 1):
                m = (mx, my, mz)
                if m == (0, 0, 0) or mx * mx + my * my + mz * mz > kmax * kmax:
                    continue
                if m > tuple(-c for c in m):
                    modes.append(m)
    modes.sort()
    return modes


def _random_spectrum(grid: TorusGrid, seed: int, amplitude: float, kmax: int) -> np.ndarray:
    """Gaussian low-mode field with a fixed radial profile.

    The modes populated and the draw order do not depend on the grid size,
    so different resolutions sample the same band-limited field.
    """
    if 3 * kmax > grid.npts:
        raise BadSpec(f"kmax = {kmax} does not fit the dealias band of n = {grid.npts}")
    rng = np.random.default_rng(seed)
    n = grid.npts
    coeff = np.zeros((3, n, n, n), dtype=np.complex128)
    k0 = max(kmax / 2.5, 1.0)
    for m in _half_space_modes(kmax):
        draws = rng.normal(size=6)
        mag2 = m[0] ** 2 + m[1] ** 2 + m[2] ** 2
        profile = mag2**2 * np.exp(-2.0 * mag2 / k0**2)
        amp = np.sqrt(profile)
        vec = amp * (draws[0::2] + 1j * draws[1::2])
        idx = tuple(c % n for c in m)
        cidx = tuple(-c % n for c in m)
        for comp in range(3):
            coeff[(comp,) + idx] = vec[comp]
            coeff[(comp,) + cidx] = np.conj(vec[comp])
    coeff = _project_coeff(coeff, grid)
    coeff[:, 0, 0, 0] = 0.0
    sup = float(np.max(np.sqrt(np.sum(transform_inverse(coeff, grid) ** 2, axis=0))))
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
    ``amplitude``; the analytic kinds use ``amplitude`` as their coefficient.
    The coefficients are exactly the expansion of their band, so a run and
    its checkpoints hold this very field.
    """
    if kind == "beltrami":
        coeff = _beltrami(grid, amplitude)
    elif kind == "taylor_green":
        coeff = _taylor_green(grid, amplitude)
    elif kind == "random_spectrum":
        coeff = _random_spectrum(grid, seed, amplitude, kmax)
    else:
        raise BadSpec(f"unknown initial data kind {kind!r}")
    band = grid.band
    coeff = _project(band.compact(coeff), band.wavenumbers, band.inv_k_squared)
    coeff[:, 0, 0, 0] = 0.0
    return SpectralVelocity(band.expand(coeff), grid, 0.0)
