import numpy as np
import pytest

from nsbl.spectral import (
    NotDivergenceFree,
    ScalarField,
    ShapeMismatch,
    SpectralVelocity,
    TorusGrid,
    cz_pressure,
    leray_project,
    transform_forward,
    transform_inverse,
)
from nsbl.norms import space_norm
from nsbl.solver import make_initial


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(32)


class TestGrid:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ShapeMismatch):
            TorusGrid(6)
        with pytest.raises(ShapeMismatch):
            TorusGrid(33)
        with pytest.raises(ShapeMismatch):
            TorusGrid(32, length=-1.0)

    def test_accepts_non_power_of_two(self):
        TorusGrid(48)

    def test_dealias_mask(self, grid):
        m = grid.dealias_mask
        f = grid.freqs
        assert m[0, 0, 0]
        hi = np.argmax(np.abs(f) == grid.npts // 2)
        assert not m[hi, 0, 0]
        cut = grid.npts // 3
        edge = np.argmax(f == cut)
        assert m[edge, 0, 0]
        assert not m[np.argmax(f == cut + 1), 0, 0]


class TestTransforms:
    def test_constant_field_dc_only(self, grid):
        c = transform_forward(np.full((32, 32, 32), 2.5), grid)
        assert c[0, 0, 0] == pytest.approx(2.5)
        c[0, 0, 0] = 0
        assert np.abs(c).max() < 1e-13

    def test_cosine_pair(self, grid):
        x, _, _ = grid.mesh()
        c = transform_forward(np.cos(2 * np.pi * x / grid.length), grid)
        assert abs(c[1, 0, 0] - 0.5) < 1e-13
        assert abs(c[-1, 0, 0] - 0.5) < 1e-13

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_round_trip(self, n):
        g = TorusGrid(n)
        rng = np.random.default_rng(n)
        f = rng.normal(size=(n, n, n))
        back = transform_inverse(transform_forward(f, g), g)
        assert np.abs(back - f).max() <= 1e-12 * np.abs(f).max()

    def test_parseval(self, grid):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(32, 32, 32))
        c = transform_forward(f, grid)
        phys = np.sum(f**2) / 32**3
        spec = np.sum(np.abs(c) ** 2)
        assert abs(phys - spec) <= 1e-12 * phys

    def test_shape_mismatch(self, grid):
        with pytest.raises(ShapeMismatch):
            transform_forward(np.zeros((16, 16, 16)), grid)


class TestLerayProjection:
    def test_divergence_free_unchanged(self, grid):
        v = make_initial("beltrami", grid)
        pv = leray_project(v)
        assert np.abs(pv.coeff - v.coeff).max() < 1e-14

    def test_gradient_killed(self, grid):
        rng = np.random.default_rng(2)
        phi = transform_forward(rng.normal(size=(32, 32, 32)), grid)
        k = grid.wavenumbers
        gradient = SpectralVelocity(1j * k * phi[None], grid)
        out = leray_project(gradient)
        assert np.abs(out.coeff).max() < 1e-12 * np.abs(gradient.coeff).max()

    def test_idempotent(self, grid):
        rng = np.random.default_rng(3)
        c = rng.normal(size=(3, 32, 32, 32)) + 1j * rng.normal(size=(3, 32, 32, 32))
        once = leray_project(SpectralVelocity(c, grid))
        twice = leray_project(once)
        assert np.abs(twice.coeff - once.coeff).max() <= 1e-14

    def test_self_adjoint(self, grid):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 32, 32, 32)) + 1j * rng.normal(size=(3, 32, 32, 32))
        b = rng.normal(size=(3, 32, 32, 32)) + 1j * rng.normal(size=(3, 32, 32, 32))
        pa = leray_project(SpectralVelocity(a, grid)).coeff
        pb = leray_project(SpectralVelocity(b, grid)).coeff
        ip1 = np.sum(pa * np.conj(b))
        ip2 = np.sum(a * np.conj(pb))
        assert abs(ip1 - ip2) <= 1e-12 * max(1.0, abs(ip1))

    def test_projected_divergence(self, grid):
        rng = np.random.default_rng(6)
        c = rng.normal(size=(3, 32, 32, 32)) + 1j * rng.normal(size=(3, 32, 32, 32))
        out = leray_project(SpectralVelocity(c, grid))
        assert out.divergence_max() <= 1e-12 * out.coeff_norm()


def pressure(v, m_sigma=1.0):
    """cz_pressure of a full-layout field, through its band."""
    return cz_pressure(v.grid.band().compact(v.coeff), v.grid, m_sigma)


class TestPressure:
    def test_zero_velocity(self, grid):
        p = cz_pressure(np.zeros((3,) + grid.band().shape, dtype=complex), grid)
        assert np.all(p.values == 0)

    def test_beltrami_closed_form(self, grid):
        v = make_initial("beltrami", grid, amplitude=1.0)
        p = pressure(v, m_sigma=1.0)
        u2 = v.magnitude() ** 2
        closed = -(u2 / 2 - u2.mean() / 2)
        assert np.abs(p.values - closed).max() <= 1e-8

    def test_zero_mean_mode(self, grid):
        # the operator zeroes the mean mode by construction; going back
        # through physical space only leaves transform roundoff
        v = make_initial("random_spectrum", grid, seed=9, amplitude=2.0)
        p = pressure(v)
        c = transform_forward(p.values, grid)
        assert abs(c[0, 0, 0]) <= 1e-15 * np.abs(p.values).max()

    def test_not_divergence_free_rejected(self, grid):
        rng = np.random.default_rng(7)
        c = rng.normal(size=(3, 32, 32, 32)) + 1j * rng.normal(size=(3, 32, 32, 32))
        with pytest.raises(NotDivergenceFree):
            pressure(SpectralVelocity(c, grid))

    @pytest.mark.parametrize("plane", [0, 1, 10])
    def test_band_divergence_checked_on_every_plane(self, grid, plane):
        # a gradient mode u_x ~ cos(x + z k_z) on an otherwise solenoidal
        # band: the k_z = 0 plane, an interior plane and the last kept plane
        band = grid.band()
        v = make_initial("random_spectrum", grid, seed=5, amplitude=1.0)
        c = band.compact(v.coeff)
        cz_pressure(c, grid)
        c[0, 1, 0, plane] += 1e-6
        with pytest.raises(NotDivergenceFree):
            cz_pressure(c, grid)

    def test_full_layout_rejected(self, grid):
        v = make_initial("beltrami", grid, amplitude=1.0)
        with pytest.raises(ShapeMismatch):
            cz_pressure(v.coeff, grid)

    def test_rescaling_invariance(self, grid):
        # both sides of the bound scale like amplitude^2
        v = make_initial("random_spectrum", grid, seed=11, amplitude=1.0)
        w = SpectralVelocity(2.0 * v.coeff, grid)
        for s in (2.0, 3.0):
            r1 = _pressure_ratio(v, s)
            r2 = _pressure_ratio(w, s)
            assert abs(r1 - r2) <= 1e-10 * r1

    def test_bound_over_random_fields(self, grid):
        # ||p||_s <= c_s ||u||_{2s}^2 with one constant across draws
        s = 2.0
        ratios = [
            _pressure_ratio(make_initial("random_spectrum", grid, seed=k, amplitude=1.0), s)
            for k in range(100)
        ]
        c_fit = ratios[0] * 1.5
        assert all(r <= c_fit for r in ratios)


def _pressure_ratio(v, s):
    p = pressure(v)
    num = space_norm(p.values, s, v.grid)
    den = space_norm(v.magnitude(), 2 * s, v.grid) ** 2
    return num / den


def test_scalar_field_validation(grid):
    with pytest.raises(ShapeMismatch):
        ScalarField(np.zeros((16, 16, 16)), grid)
    bad = np.zeros((32, 32, 32))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(bad, grid)
