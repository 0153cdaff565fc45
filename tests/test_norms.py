import math

import numpy as np
import pytest

import norm_oracle as oracle
from band_oracle import expand
from nsbl.norms import (
    INF,
    BadExponent,
    PowerTable,
    UnmeasuredExponent,
    level_set_measure,
    time_weights,
)
from nsbl.spectral import TorusGrid, over_snapshots
from nsbl.solver import make_initial

# the table against the pow-based oracle
RTOL = 1e-13


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(16)


def table(stack, exponents, grid, times=(0.0,), log_exponents=()):
    """The PowerTable of an (nt, n, n, n) stack, its rows taken on
    ``over_snapshots``' workers."""
    t = PowerTable.empty(exponents, log_exponents, times, grid)

    def add(i):
        t.sups[i] = np.abs(stack[i]).max()
        t.add(i, stack[i])

    over_snapshots(add, len(stack))
    return t


def test_constant_field(grid):
    c = 3.0
    f = np.full((1, 16, 16, 16), c)
    t = table(f, (1.0, 2.0, 5.0), grid)
    for ell in (1.0, 2.0, 5.0):
        assert t.space_norm(0, ell) == pytest.approx(c * grid.volume ** (1 / ell), rel=RTOL)


def test_inf_norm(grid):
    f = np.zeros((1, 16, 16, 16))
    f[0, 3, 4, 5] = -7.0
    assert table(f, (2.0,), grid).norm(INF) == 7.0


def test_one_exponent_table_overwrites_its_logs(grid):
    # a table of one exponent and no log-moment forms its powers in place of
    # the logs: the same bits as that column of a wider table
    stack = np.random.default_rng(6).random((2, 16, 16, 16))
    one = table(stack, (3.5,), grid, (0.0, 1.0))
    wide = table(stack, (2.0, 3.5), grid, (0.0, 1.0), log_exponents=(3.5,))
    assert np.array_equal(one.sums[3.5], wide.sums[3.5])


def test_bad_exponent(grid):
    for e in (0.5, -2.0, INF, math.nan):
        with pytest.raises(BadExponent):
            PowerTable.empty((2.0, e), (), (0.0,), grid)


def test_unmeasured_exponent_raises(grid):
    # the table answers only what it holds; it never goes back to the stack
    t = table(np.ones((2, 16, 16, 16)), (2.0, 3.0), grid, (0.0, 1.0), log_exponents=(3.0,))
    with pytest.raises(UnmeasuredExponent, match="4.0"):
        t.norm(4.0)
    with pytest.raises(UnmeasuredExponent):
        t.space_norm(0, 2.5)
    with pytest.raises(UnmeasuredExponent):
        t.log_integrals(2.0)
    assert t.norm(INF) == 1.0
    assert math.isfinite(t.log_integrals(3.0)[0])


def test_parseval_l2(grid):
    v = make_initial("random_spectrum", grid, seed=1, amplitude=1.0, kmax=4)
    phys = table(v.magnitude()[None], (2.0,), grid).space_norm(0, 2.0)
    # summed over the full layout
    spec = float(np.sqrt(grid.volume * np.sum(np.abs(expand(grid.band, v.coeff)) ** 2)))
    assert abs(phys - spec) <= 1e-10 * spec


def test_interpolation_inequality(grid):
    # ||f||_{2l} <= ||f||_inf^(1-lz/l) ||f||_{2lz}^(lz/l) with lz = 5/3, l = 4
    v = make_initial("random_spectrum", grid, seed=2, amplitude=1.5, kmax=4)
    lz, ell = 5.0 / 3.0, 4.0
    t = table(v.magnitude()[None], (2 * lz, 2 * ell), grid)
    lhs = t.norm(2 * ell)
    rhs = t.norm(INF) ** (1 - lz / ell) * t.norm(2 * lz) ** (lz / ell)
    assert lhs <= rhs * (1 + 1e-12)


def test_time_weights_trapezoid():
    w = time_weights([0.0, 1.0, 2.0, 3.0])
    assert np.allclose(w, [0.5, 1.0, 1.0, 0.5])
    assert time_weights([2.0]).tolist() == [1.0]


@pytest.mark.parametrize("times", [[0.0, 0.2, 0.1, 0.3], [0.0, 0.1, 0.1], [1.0, 0.0],
                                   [0.0, math.nan]])
def test_time_weights_refuse_times_out_of_order(times):
    # a step back or a repeat would give a weight of zero or below
    with pytest.raises(ValueError, match="increase strictly"):
        time_weights(times)


def test_spacetime_norm_constant(grid):
    stack = np.full((4, 16, 16, 16), 2.0)
    times = [0.0, 0.1, 0.2, 0.3]
    vol = grid.volume * 0.3
    assert table(stack, (3.0,), grid, times).norm(3.0) == pytest.approx(2.0 * vol ** (1 / 3),
                                                                         rel=RTOL)


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
    log_i0, mean_log = table(stack, (p,), grid, times, (p,)).log_integrals(p)
    w = time_weights(times)
    ref0 = sum(wi * np.sum(s**p) * grid.cell_volume for wi, s in zip(w, stack))
    ref1 = sum(wi * np.sum(s**p * np.log(s)) * grid.cell_volume for wi, s in zip(w, stack))
    assert log_i0 == pytest.approx(math.log(ref0), rel=1e-12)
    assert mean_log == pytest.approx(ref1 / ref0, rel=1e-12)


@pytest.mark.parametrize("scale", [1e20, 1e-20])
def test_power_log_integrals_scale_out(grid, scale):
    # at p = 24 the integral of |f|^p itself leaves float64 for either
    # scale; its log and the mean of ln|f| shift by the scale's log, whether
    # the scale sits in the stack or is divided out by the table
    rng = np.random.default_rng(4)
    stack = rng.random((3, 16, 16, 16)) + 0.1
    times = [0.0, 0.1, 0.3]
    p = 24.0
    log_i0, mean_log = table(stack, (p,), grid, times, (p,)).log_integrals(p)
    scaled = table(scale * stack, (p,), grid, times, (p,))
    for log_i0_s, mean_log_s in (scaled.log_integrals(p),
                                 table(stack, (p,), grid, times, (p,)).log_integrals(p, 1 / scale)):
        assert log_i0_s == pytest.approx(log_i0 + p * math.log(scale), rel=1e-12)
        assert mean_log_s == pytest.approx(mean_log + math.log(scale), rel=1e-12)


def test_power_log_clamps_zeros(grid):
    # the zero cells' logs are floored, so they add nothing and nothing is NaN
    stack = np.zeros((1, 16, 16, 16))
    stack[0, 0, 0, 0] = 1.0
    log_i0, mean_log = table(stack, (2.0,), grid, log_exponents=(2.0,)).log_integrals(2.0)
    assert log_i0 == math.log(grid.cell_volume)
    assert mean_log == 0.0


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_snapshot_chunks_match_the_whole_stack(grid, snapshot_workers, workers):
    # 5 snapshots make uneven chunks for 2 and 3 workers; signed values and
    # exact zeros exercise the abs and the log clamp; a zero snapshot adds
    # nothing.  The rows are the same bits on any number of workers, and
    # match the pow-based oracle to RTOL.
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(5, 16, 16, 16))
    stack[1, :4] = 0.0
    stack[3] = 0.0
    times = [0.0, 0.1, 0.25, 0.3, 0.5]
    exps, logs = (1.0, 2.0, 3.7, 24.0), (2.0, 24.0)
    snapshot_workers(1)
    serial = table(stack, exps, grid, times, logs)
    snapshot_workers(workers)
    t = table(stack, exps, grid, times, logs)
    for e in exps:
        assert np.array_equal(t.sums[e], serial.sums[e])
        assert t.norm(e) == pytest.approx(oracle.spacetime_norm(stack, e, grid, times), rel=RTOL)
    assert t.norm(INF) == oracle.spacetime_norm(stack, INF, grid, times)
    for p in logs:
        assert np.array_equal(t.log_sums[p], serial.log_sums[p])
        log_i0, mean_log, _ = oracle.power_log_integrals(stack, p, grid, times)
        assert t.log_integrals(p) == pytest.approx((log_i0, mean_log), rel=RTOL)
