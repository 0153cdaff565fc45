import math

import numpy as np
import pytest

from nsbl.norms import (
    INF,
    BadExponent,
    level_set_measure,
    power_log_integrals,
    space_norm,
    spacetime_norm,
    time_weights,
)
from nsbl.spectral import TorusGrid
from nsbl.solver import make_initial


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(16)


def test_constant_field(grid):
    c = 3.0
    f = np.full((16, 16, 16), c)
    for ell in (1.0, 2.0, 5.0):
        assert space_norm(f, ell, grid) == pytest.approx(c * grid.volume ** (1 / ell))


def test_inf_norm(grid):
    f = np.zeros((16, 16, 16))
    f[3, 4, 5] = -7.0
    assert space_norm(f, INF, grid) == 7.0


def test_bad_exponent(grid):
    with pytest.raises(BadExponent):
        space_norm(np.ones((16, 16, 16)), 0.5, grid)


def test_parseval_l2(grid):
    v = make_initial("random_spectrum", grid, seed=1, amplitude=1.0, kmax=4)
    phys = space_norm(v.magnitude(), 2.0, grid)
    spec = float(np.sqrt(grid.volume * np.sum(np.abs(v.coeff) ** 2)))
    assert abs(phys - spec) <= 1e-10 * spec


def test_interpolation_inequality(grid):
    # ||f||_{2l} <= ||f||_inf^(1-lz/l) ||f||_{2lz}^(lz/l) with lz = 5/3, l = 4
    v = make_initial("random_spectrum", grid, seed=2, amplitude=1.5, kmax=4)
    f = v.magnitude()
    lz, ell = 5.0 / 3.0, 4.0
    lhs = space_norm(f, 2 * ell, grid)
    rhs = space_norm(f, INF, grid) ** (1 - lz / ell) * space_norm(f, 2 * lz, grid) ** (lz / ell)
    assert lhs <= rhs * (1 + 1e-12)


def test_time_weights_trapezoid():
    w = time_weights([0.0, 1.0, 2.0, 3.0])
    assert np.allclose(w, [0.5, 1.0, 1.0, 0.5])
    assert time_weights([2.0]).tolist() == [1.0]


def test_spacetime_norm_constant(grid):
    stack = np.full((4, 16, 16, 16), 2.0)
    times = [0.0, 0.1, 0.2, 0.3]
    vol = grid.volume * 0.3
    assert spacetime_norm(stack, 3.0, grid, times) == pytest.approx(2.0 * vol ** (1 / 3))


def sorted_cells(stack):
    """Each snapshot's values in ascending order, as level_set_measure takes them."""
    return np.sort(stack.reshape(len(stack), -1), axis=1)


class TestLevelSets:
    def test_empty(self, grid):
        stack = np.ones((2, 16, 16, 16))
        assert level_set_measure(sorted_cells(stack), [2.0], grid, [0.0, 1.0]) == [0.0]

    def test_full(self, grid):
        stack = np.ones((3, 16, 16, 16))
        times = [0.0, 0.5, 1.0]
        [m] = level_set_measure(sorted_cells(stack), [0.5], grid, times)
        assert m == pytest.approx(grid.volume * 1.0)

    def test_half_occupancy_exact(self, grid):
        f = np.zeros((16, 16, 16))
        f[:8] = 1.0
        [m] = level_set_measure(sorted_cells(f[None]), [0.5], grid, [0.0])
        assert m == pytest.approx(grid.volume / 2)

    def test_nonincreasing_in_threshold(self, grid):
        rng = np.random.default_rng(0)
        stack = rng.random((3, 16, 16, 16))
        times = [0.0, 0.1, 0.2]
        ks = np.linspace(0.05, 0.95, 10)
        ms = level_set_measure(sorted_cells(stack), ks, grid, times)
        assert all(a >= b for a, b in zip(ms, ms[1:]))

    def test_matches_per_threshold_scan(self, grid):
        # ties with the threshold count as inside, as a >= k does; the
        # measures equal a scan of the stack per threshold bit for bit
        rng = np.random.default_rng(1)
        stack = np.round(rng.random((4, 16, 16, 16)), 2)
        times = [0.0, 0.1, 0.25, 0.3]
        w = time_weights(times)
        ks = [0.0, 0.5, 0.37, 0.99, 1.0, 1.5, float(stack[2, 3, 4, 5])]
        scans = [float(np.dot(w, np.sum(stack >= k, axis=(1, 2, 3)).astype(np.float64)))
                 * grid.cell_volume for k in ks]
        assert level_set_measure(sorted_cells(stack), ks, grid, times) == scans


def test_power_log_integrals_bruteforce(grid):
    rng = np.random.default_rng(3)
    stack = rng.random((2, 16, 16, 16)) + 0.1
    times = [0.0, 0.2]
    p = 4.0
    log_i0, mean_log, clamped = power_log_integrals(stack, p, grid, times)
    w = time_weights(times)
    ref0 = sum(wi * np.sum(s**p) * grid.cell_volume for wi, s in zip(w, stack))
    ref1 = sum(wi * np.sum(s**p * np.log(s)) * grid.cell_volume for wi, s in zip(w, stack))
    assert log_i0 == pytest.approx(math.log(ref0), rel=1e-12)
    assert mean_log == pytest.approx(ref1 / ref0, rel=1e-12)
    assert clamped == 0


@pytest.mark.parametrize("scale", [1e20, 1e-20])
def test_power_log_integrals_scale_out(grid, scale):
    # at p = 24 the integral of |f|^p itself leaves float64 for either
    # scale; its log and the mean of ln|f| shift by the scale's log
    rng = np.random.default_rng(4)
    stack = rng.random((3, 16, 16, 16)) + 0.1
    times = [0.0, 0.1, 0.3]
    p = 24.0
    log_i0, mean_log, _ = power_log_integrals(stack, p, grid, times)
    log_i0_s, mean_log_s, clamped = power_log_integrals(scale * stack, p, grid, times)
    assert log_i0_s == pytest.approx(log_i0 + p * math.log(scale), rel=1e-12)
    assert mean_log_s == pytest.approx(mean_log + math.log(scale), rel=1e-12)
    assert clamped == 0


def test_power_log_clamps_zeros(grid):
    stack = np.zeros((1, 16, 16, 16))
    stack[0, 0, 0, 0] = 1.0
    log_i0, mean_log, clamped = power_log_integrals(stack, 2.0, grid, [0.0])
    assert math.isfinite(log_i0) and math.isfinite(mean_log)
    assert clamped == 16**3 - 1
