import ctypes
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from band_oracle import compact, expand
from norm_oracle import space_norm
import nsbl
from nsbl import spectral
from nsbl.spectral import (
    PAIRS,
    NotDivergenceFree,
    ProductBuffers,
    CPUS,
    ShapeMismatch,
    SpectralVelocity,
    TorusGrid,
    _project,
    cz_pressure,
    divergence_max,
    over_snapshots,
    quadratic_products,
)
from nsbl.solver import make_initial


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(32)


def fftn(values):
    """Forward-normalized coefficients of real-space data in the full
    (..., n, n, n) layout: a test oracle."""
    return np.fft.fftn(values, axes=(-3, -2, -1), norm="forward")


def band_limited(n, seed):
    """Random real-space data on an n^3 grid with only band modes: the
    band's inverse of the band of noise."""
    band = TorusGrid(n).band
    return band.inverse(band.forward(np.random.default_rng(seed).normal(size=(n, n, n))))


class TestGrid:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ShapeMismatch):
            TorusGrid(6)
        with pytest.raises(ShapeMismatch):
            TorusGrid(33)
        with pytest.raises(ShapeMismatch):
            TorusGrid(32, length=-1.0)
        for length in (1e31, 1e-31, float("nan"), float("inf")):
            with pytest.raises(ShapeMismatch, match="box length"):
                TorusGrid(32, length=length)

    def test_accepts_non_power_of_two(self):
        TorusGrid(48)

    def test_dealias_mask(self, grid):
        # the band keeps |m_i| <= n//3 on every axis (2/3 rule)
        cut = grid.npts // 3
        kept = set(grid.freqs[grid.band.rows].tolist())
        assert kept == set(range(-cut, cut + 1))
        assert -(grid.npts // 2) not in kept
        assert grid.band.planes == cut + 1


class TestTransforms:
    """The band's pruned transforms; ``test_half_spectrum`` holds them to
    ``rfftn`` and ``irfftn`` bit for bit."""

    def test_constant_field_dc_only(self, grid):
        c = grid.band.forward(np.full((32, 32, 32), 2.5))
        assert c[0, 0, 0] == pytest.approx(2.5)
        c[0, 0, 0] = 0
        assert np.abs(c).max() < 1e-13

    def test_cosine_pair(self, grid):
        # band row -1 is the mode m_x = -1
        x, _, _ = grid.mesh()
        c = grid.band.forward(np.cos(2 * np.pi * x / grid.length))
        assert abs(c[1, 0, 0] - 0.5) < 1e-13
        assert abs(c[-1, 0, 0] - 0.5) < 1e-13

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_round_trip(self, n):
        band = TorusGrid(n).band
        f = band_limited(n, n)
        back = band.inverse(band.forward(f))
        assert np.abs(back - f).max() <= 1e-12 * np.abs(f).max()

    def test_parseval(self, grid):
        f = band_limited(32, 5)
        phys = np.sum(f**2) / 32**3
        spec = grid.band.sum_squares(grid.band.forward(f))
        assert abs(phys - spec) <= 1e-12 * phys


class TestSpectralVelocity:
    def test_rejects_full_layout(self, grid):
        # the band's shape is named, so the message says what to pass
        for shape in [(3, 32, 32, 32), (3, 16, 16, 16), (2,) + grid.band.shape]:
            with pytest.raises(ShapeMismatch, match=r"2/3-rule band's \(3, 21, 21, 11\)"):
                SpectralVelocity(np.zeros(shape, dtype=complex), grid)

    def test_components_are_the_band_inverse(self, grid):
        v = make_initial("random_spectrum", grid, seed=1, amplitude=1.0, kmax=4)
        u = grid.band.inverse(v.coeff)
        assert np.array_equal(v.components(), u)
        assert np.array_equal(v.magnitude(), np.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2))


def project_band(coeff, grid):
    """The projection of a copy of band coefficients, with the band's
    operators."""
    band = grid.band
    return _project(np.array(coeff, dtype=complex), band.wavenumbers, band.inv_k_squared)


def random_band(grid, seed):
    """Arbitrary complex data of the band's shape (3, *grid.band.shape)."""
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.band.shape
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestLerayProjection:
    """The projection onto divergence-free fields, on the band."""

    def test_divergence_free_unchanged(self, grid):
        v = make_initial("beltrami", grid)
        assert np.abs(project_band(v.coeff, grid) - v.coeff).max() < 1e-14

    def test_gradient_killed(self, grid):
        rng = np.random.default_rng(2)
        phi = grid.band.forward(rng.normal(size=(32, 32, 32)))
        k = grid.band.wavenumbers
        gradient = 1j * k * phi[None]
        out = project_band(gradient, grid)
        assert np.abs(out).max() < 1e-12 * np.abs(gradient).max()

    def test_idempotent(self, grid):
        once = project_band(random_band(grid, 3), grid)
        twice = project_band(once, grid)
        assert np.abs(twice - once).max() <= 1e-14

    def test_self_adjoint(self, grid):
        a, b = random_band(grid, 4), random_band(grid, 40)
        pa = project_band(a, grid)
        pb = project_band(b, grid)
        ip1 = np.sum(pa * np.conj(b))
        ip2 = np.sum(a * np.conj(pb))
        assert abs(ip1 - ip2) <= 1e-12 * max(1.0, abs(ip1))

    def test_projected_divergence(self, grid):
        out = project_band(random_band(grid, 6), grid)
        norm = np.sqrt(np.sum(np.abs(out) ** 2))
        assert divergence_max(out, grid.band.wavenumbers) <= 1e-12 * norm


def band_pressure(c, grid):
    """cz_pressure of band coefficients, with the velocity from the band's
    inverse, as the audit forms it."""
    return cz_pressure(c, grid.band.inverse(c), grid)


def pressure(v):
    """cz_pressure of a velocity."""
    return band_pressure(v.coeff, v.grid)


class TestPressure:
    def test_zero_velocity(self, grid):
        p = band_pressure(np.zeros((3,) + grid.band.shape, dtype=complex), grid)
        assert np.all(p == 0)

    def test_beltrami_closed_form(self, grid):
        v = make_initial("beltrami", grid, amplitude=1.0)
        p = pressure(v)
        u2 = v.magnitude() ** 2
        closed = -(u2 / 2 - u2.mean() / 2)
        assert np.abs(p - closed).max() <= 1e-8

    def test_zero_mean_mode(self, grid):
        # the operator zeroes the mean mode by construction; going back
        # through physical space only leaves transform roundoff
        v = make_initial("random_spectrum", grid, seed=9, amplitude=2.0)
        p = pressure(v)
        c = fftn(p)
        assert abs(c[0, 0, 0]) <= 1e-15 * np.abs(p).max()

    def test_not_divergence_free_rejected(self, grid):
        with pytest.raises(NotDivergenceFree):
            pressure(SpectralVelocity(random_band(grid, 7), grid))

    @pytest.mark.parametrize("plane", [0, 1, 10])
    def test_band_divergence_checked_on_every_plane(self, grid, plane):
        # a gradient mode u_x ~ cos(x + z k_z) on an otherwise solenoidal
        # band: the k_z = 0 plane, an interior plane and the last kept plane
        c = make_initial("random_spectrum", grid, seed=5, amplitude=1.0).coeff
        band_pressure(c, grid)
        c[0, 1, 0, plane] += 1e-6
        with pytest.raises(NotDivergenceFree):
            band_pressure(c, grid)

    @pytest.mark.parametrize("length", [1e-15, 1e-6, 2 * np.pi, 1e6])
    def test_divergence_check_does_not_depend_on_the_box(self, length):
        # k . c is measured in integer mode numbers: a solenoidal field
        # passes and a gradient mode u_x = 2e-6 cos(x) is refused on any box
        g = TorusGrid(16, length)
        c = make_initial("random_spectrum", g, seed=3, amplitude=1.0, kmax=4).coeff
        band_pressure(c, g)
        c[0, 1, 0, 0] += 1e-6
        c[0, -1, 0, 0] += 1e-6
        with pytest.raises(NotDivergenceFree):
            band_pressure(c, g)

    def test_full_layout_rejected(self, grid):
        c = make_initial("beltrami", grid, amplitude=1.0).coeff
        full = expand(grid.band, c)
        with pytest.raises(ShapeMismatch):
            cz_pressure(full, np.fft.ifftn(full, axes=(1, 2, 3), norm="forward").real, grid)
        with pytest.raises(ShapeMismatch):
            cz_pressure(c, grid.band.inverse(c)[:2], grid)

    def test_non_finite_pressure_rejected(self, grid):
        # a NaN in the velocity the caller formed reaches every product
        c = make_initial("beltrami", grid, amplitude=1.0).coeff
        u = grid.band.inverse(c)
        cz_pressure(c, u, grid)
        u[0, 3, 4, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            cz_pressure(c, u, grid)

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
    num = space_norm(p, s, v.grid)
    den = space_norm(v.magnitude(), 2 * s, v.grid) ** 2
    return num / den


class TestOverSnapshots:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("nt", [0, 1, 2, 5])
    def test_results_in_snapshot_order(self, snapshot_workers, workers, nt):
        snapshot_workers(workers)
        assert over_snapshots(lambda i: i * i, nt) == [i * i for i in range(nt)]

    def test_pool_from_the_main_thread_inline_elsewhere(self, snapshot_workers):
        snapshot_workers(3)
        seen = []

        def fn(i):
            seen.append((i, threading.current_thread()))
            return i

        assert over_snapshots(fn, 6) == list(range(6))
        assert threading.main_thread() not in {t for _, t in seen}
        # each chunk runs in snapshot order: 0 before 1, 2 before 3, 4 before 5
        order = [i for i, _ in seen]
        assert all(order.index(i) < order.index(i + 1) for i in (0, 2, 4))
        seen.clear()
        # from another thread, e.g. one of a suite's workers: all inline
        with ThreadPoolExecutor(1) as outer:
            assert outer.submit(over_snapshots, fn, 6).result(timeout=60) == list(range(6))
        assert [i for i, _ in seen] == list(range(6))
        assert len({t for _, t in seen}) == 1 and seen[0][1] is not threading.main_thread()

    def test_first_error_in_order_after_every_chunk_ends(self, snapshot_workers):
        # chunks [0, 2), [2, 4), [4, 6): snapshots 3 and 5 fail, 3 is reported
        snapshot_workers(3)
        ended = []

        def fn(i):
            if i == 0:
                time.sleep(0.05)
            ended.append(i)
            if i in (3, 5):
                raise ValueError(f"snapshot {i}")

        with pytest.raises(ValueError, match="snapshot 3"):
            over_snapshots(fn, 6)
        assert sorted(ended) == [0, 1, 2, 3, 4, 5]

    def test_team_after_a_failed_chunk(self, snapshot_workers):
        # chunks [0, 1), [1, 2), [2, 3): the first and last fail, the
        # first chunk's error is raised once the slow middle one has ended,
        # and the same team then runs the next fan-out
        snapshot_workers(3)
        ended = []

        def fn(i):
            if i == 1:
                time.sleep(0.05)
            ended.append(i)
            if i != 1:
                raise KeyError(i)

        with pytest.raises(KeyError) as err:
            over_snapshots(fn, 3)
        assert err.value.args == (0,) and sorted(ended) == [0, 1, 2]
        assert over_snapshots(lambda i: -i, 3) == [0, -1, -2]

    def test_many_workers_fast_switching(self, snapshot_workers):
        # more threads than CPUs, switching every microsecond: every snapshot
        # is computed once, into its own slot, and comes back in order
        snapshot_workers(8)
        slots = np.zeros(64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def fn(i):
                slots[i] += i
                return float(np.sum(np.full(1000, i)))

            got = over_snapshots(fn, 64)
        finally:
            sys.setswitchinterval(interval)
        assert got == [1000.0 * i for i in range(64)]
        assert slots.tolist() == [float(i) for i in range(64)]


def team_handoffs(monkeypatch):
    """The threads that hand chunks to ``spectral._TEAM``, one entry a chunk, in order."""
    handoffs = []
    team = spectral._TEAM
    start = team._start

    def counting(k, fn, chunk):
        handoffs.append(threading.current_thread())
        return start(k, fn, chunk)

    monkeypatch.setattr(team, "_start", counting)
    return handoffs


class TestQuadraticKernel:
    @staticmethod
    def band_field(n):
        """Random band coefficients of a real field on an n^3 grid."""
        g = TorusGrid(n)
        values = np.random.default_rng(n).normal(size=(3, n, n, n))
        return g, compact(g.band, fftn(values))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [16, 24, 32, 48])
    def test_matches_per_field_rfftn_oracle(self, snapshot_workers, workers, n):
        # 16, 32 with 3 workers: slabs of unequal width; 48: blocks of 7
        # x-planes, so slabs of 48, 24 and 16 planes each end in a shorter
        # block, on both the buffered and the velocity-given (pressure) path
        snapshot_workers(workers)
        g, coeff = self.band_field(n)
        band = g.band
        u = band.inverse(coeff)
        want = np.stack([compact(band, np.fft.rfftn(u[i] * u[j], norm="forward"))
                         for i, j in PAIRS])
        assert np.array_equal(quadratic_products(coeff, band), want)
        assert np.array_equal(quadratic_products(coeff, band, u), want)
        # kept buffers, twice: the second call starts from the first's
        buffers = ProductBuffers(band)
        for _ in range(2):
            assert np.array_equal(quadratic_products(coeff, band, buffers=buffers), want)
        # the same buffers off the main thread: one slab, its block as wide
        # as the grid allows, not as the first slab was
        with ThreadPoolExecutor(1) as outer:
            got = outer.submit(quadratic_products, coeff, band, buffers=buffers).result()
        assert np.array_equal(got, want)

    def test_one_slab_per_cpu_from_the_main_thread(self, snapshot_workers, monkeypatch):
        snapshot_workers(3)
        handoffs = team_handoffs(monkeypatch)
        g, coeff = self.band_field(16)
        quadratic_products(coeff, g.band)
        assert handoffs == [threading.main_thread()] * 3

    def test_cz_pressure_in_a_snapshot_worker_submits_nothing(self, snapshot_workers,
                                                              monkeypatch):
        # the audit solves the pressure inside over_snapshots' workers: the
        # kernel runs inline there, so only the snapshot chunks are handed out
        snapshot_workers(2)
        grid = TorusGrid(16)
        coeffs = [make_initial("random_spectrum", grid, seed=s, amplitude=1.0, kmax=4).coeff
                  for s in range(4)]
        want = [band_pressure(c, grid) for c in coeffs]
        handoffs = team_handoffs(monkeypatch)
        got = over_snapshots(lambda i: band_pressure(coeffs[i], grid), len(coeffs))
        assert handoffs == [threading.main_thread()] * 2
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_import_starts_no_thread():
    # the team starts on first use: a process may still fork after import
    src = str(Path(nsbl.__file__).resolve().parent.parent)
    probe = "import threading, nsbl.cli; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"


# Run in a fresh interpreter: CPUS + 2 threads each hold arrays at the same
# time, then the number of malloc arenas glibc reports is printed.
ARENA_PROBE = """
import ctypes, sys, threading
import numpy as np
from nsbl.spectral import CPUS
libc = ctypes.CDLL(None)
libc.fopen.restype = ctypes.c_void_p
libc.fclose.argtypes = [ctypes.c_void_p]
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
barrier = threading.Barrier(CPUS + 2)
def work():
    held = [np.ones(100 + i) for i in range(50)]
    barrier.wait()
    return len(held)
threads = [threading.Thread(target=work) for _ in range(CPUS + 2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
fh = libc.fopen(sys.argv[1].encode(), b"w")
libc.malloc_info(0, fh)
libc.fclose(fh)
print(open(sys.argv[1]).read().count("<heap nr="))
"""


def _glibc() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "malloc_info")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _glibc(), reason="malloc arenas are glibc's")
def test_at_most_one_malloc_arena_per_cpu(tmp_path):
    # glibc's default of 8 per CPU would let every new thread take an arena
    # of its own, each keeping what that thread freed
    src = str(Path(nsbl.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", ARENA_PROBE, str(tmp_path / "info.xml")],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert 1 <= int(out.stdout) <= CPUS
