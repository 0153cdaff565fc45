"""Property tests: the exact-rational ledger identities hold, the quantile
read from sorted rows is numpy's to the bit, the audit on degenerate fields
or extreme exponents and the checkpoint reader on damaged files fail only
with their typed errors, and the command line on mutated arguments and files
exits with a documented code."""

import contextlib
import io
import itertools
import json
import math
import struct
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import ledger_oracle as oracle
from band_oracle import compact
from nsbl import audit as A
from nsbl import cli
from nsbl import ledger as L
from nsbl.checkpoint import MAGIC, CorruptCheckpoint, read_checkpoint, write_band
from nsbl.harness import Scenario, canonical_json
from nsbl.ledger import ExponentParams
from nsbl.norms import sorted_quantile
from nsbl.solver import SolverConfig, Trajectory, make_initial
from nsbl.spectral import TorusGrid

PARAMS = ExponentParams.derive(3, 10, 10, F(6, 5), F(1, 2), j=4, r=12)
GRID = TorusGrid(8)
TYPED = (A.DegenerateField, A.ThresholdTooSmall, A.BadExponents)

# amplitudes across the whole float64 range, log-uniformly
amplitudes = st.builds(lambda m, e: m * 10.0**e,
                       st.floats(1.0, 9.99), st.integers(-300, 300))
modes = st.sampled_from([m for m in itertools.product(range(-2, 3), repeat=3)
                         if m != (0, 0, 0)])


def degenerate_coeff(kind, amplitude, mode):
    """Zero, constant (mean flow along x) or single-mode shear wave."""
    n = GRID.npts
    coeff = np.zeros((3, n, n, n), dtype=complex)
    if kind == "constant":
        coeff[0, 0, 0, 0] = amplitude
    elif kind == "single_mode":
        m = np.array(mode, dtype=float)
        axis = np.eye(3)[int(np.argmin(np.abs(m)))]
        e = np.cross(m, axis)
        e /= np.linalg.norm(e)
        # a real field amplitude * e * cos(m.x): divergence-free since e is normal to m
        for sign in (1, -1):
            idx = tuple(sign * c % n for c in mode)
            coeff[(slice(None),) + idx] += amplitude / 2 * e
    return coeff


@settings(max_examples=200)
@given(nt=st.integers(1, 6), cells=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["spread", "ties", "constant", "zero_rows"]))
def test_sorted_quantile_is_numpys(nt, cells, seed, kind):
    # the audit's k_fit: np.quantile of a non-negative stack, bit for bit,
    # selected from its sorted rows; random q reach both forms of the lerp
    rng = np.random.default_rng(seed)
    stack = 10.0 ** rng.uniform(-3, 3, (nt, cells))
    if kind == "ties":
        stack = np.floor(stack)
    elif kind == "constant":
        stack[:] = stack[0, 0]
    elif kind == "zero_rows":
        stack[rng.random(nt) < 0.5] = 0.0
    rows = np.sort(stack, axis=1)
    for q in [0.0, 0.9, 1.0, *rng.random(20)]:
        want = np.quantile(stack, q)
        assert np.float64(sorted_quantile(rows, q)).tobytes() == want.tobytes(), q


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60)
@given(
    kind=st.sampled_from(["zero", "constant", "single_mode"]),
    amplitude=amplitudes,
    mode=modes,
    snapshots=st.integers(1, 3),
    sigma=st.sampled_from([F(0), F(1, 2), F(1)]),
    s_values=st.lists(st.sampled_from([1.5, 2.0, 3.0]), min_size=1, max_size=3),
)
def test_audit_on_degenerate_fields(kind, amplitude, mode, snapshots, sigma, s_values):
    coeff = degenerate_coeff(kind, amplitude, mode)
    times = [0.01 * i for i in range(snapshots)]
    cfg = SolverConfig(dt=0.01, t_final=times[-1], snapshot_stride=1)
    traj = Trajectory(GRID, cfg, times, [compact(GRID.band, coeff)] * snapshots,
                      [0.0] * snapshots)
    try:
        report = A.run_audit(traj, replace(PARAMS, sigma=sigma),
                             A.AuditSpec(s_values=tuple(s_values)))
    except TYPED as exc:
        event(type(exc).__name__)
        return
    event("report")
    assert report.checks


@settings(max_examples=60)
@given(cut=st.integers(0, 10**9))
def test_truncated_checkpoint(tmp_path_factory, cut):
    path = tmp_path_factory.mktemp("trunc") / "c.nsbl"
    v = make_initial("random_spectrum", GRID, seed=1, amplitude=1.0, kmax=2)
    sha = write_band(path, GRID, v.coeff, v.t)
    data = path.read_bytes()
    path.write_bytes(data[: cut % len(data)])
    for expect in (None, sha):
        with pytest.raises(CorruptCheckpoint):
            read_checkpoint(path, expect_sha=expect)


HEADER = struct.Struct("<IIddII")
# byte ranges of the fields that fix the file's layout: magic, endianness
# tag, dimension, points per axis, component count, band cut and the CRC
STRUCTURAL = [range(0, len(MAGIC) + 1),
              range(len(MAGIC) + 1, len(MAGIC) + 9),
              range(len(MAGIC) + 1 + HEADER.size - 8, len(MAGIC) + 1 + HEADER.size + 4)]


@settings(max_examples=80)
@given(position=st.integers(0, 10**9), bit=st.integers(0, 7), structural=st.booleans())
def test_bit_flipped_checkpoint(tmp_path_factory, position, bit, structural):
    path = tmp_path_factory.mktemp("flip") / "c.nsbl"
    v = make_initial("random_spectrum", GRID, seed=1, amplitude=1.0, kmax=2)
    sha = write_band(path, GRID, v.coeff, v.t)
    data = bytearray(path.read_bytes())
    if structural:
        offsets = [i for r in STRUCTURAL for i in r]
        position = offsets[position % len(offsets)]
    else:
        position %= len(data)
    data[position] ^= 1 << bit
    path.write_bytes(bytes(data))
    # the manifest's hash catches every flip, and so does the file's CRC-32
    for expect in (sha, None):
        with pytest.raises(CorruptCheckpoint):
            read_checkpoint(path, expect_sha=expect)


dims = st.integers(3, 8)
# positive rationals from 1e-12 to 1e12, with small and large denominators
scales = st.builds(lambda m, d, e: F(m, d) * F(10) ** e,
                   st.integers(1, 10**6), st.integers(1, 10**6), st.integers(-12, 12))
unit_open = st.builds(lambda a, b: F(a, a + b), st.integers(1, 10**6), st.integers(1, 10**6))


@settings(max_examples=200)
@given(N=dims, excess=scales, j=scales, share=unit_open, delta=unit_open)
def test_ledger_identities_exact(N, excess, j, share, delta):
    q = N + 2 + excess
    # the package's b against the oracle's two other forms, and its M at
    # j = delta (N+2) against the oracle's expansion chain
    assert set(oracle.b_exponent_forms(N, q, j)) == {L.b_exponent(N, q, j)}
    assert set(oracle.m_delta_forms(N, q, delta)) == {L.m_delta(N, q, delta)}
    # both forms of M, anywhere in the admissible range 0 <= alpha j < sup
    a = L.alpha(N, q)
    j_in = share * L.alpha_j_interval_sup(N, q) / a
    assert set(oracle.big_m_forms(N, q, j_in)) == {L.big_m(N, q, j_in)}
    assert L.m_delta(N, q, delta) == L.big_m(N, q, delta * (N + 2))


THRESHOLD_TRAJ = Trajectory(
    GRID, SolverConfig(dt=0.01, t_final=0.01, snapshot_stride=1), [0.0, 0.01],
    [make_initial("random_spectrum", GRID, seed=2, amplitude=1.0, kmax=2).coeff] * 2,
    [0.0, 0.0])
exponents = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-12, 12))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150)
@given(N=dims, excess=scales, j=scales, r=exponents, singular=st.booleans(),
       ell_gap=exponents, m_sigma=st.one_of(amplitudes, st.just(0.0)))
def test_threshold_with_extreme_exponents(N, excess, j, r, singular, ell_gap, m_sigma):
    # the threshold is a finite positive number or a typed error, never a
    # bare ZeroDivisionError or OverflowError from math.exp or math.log
    if singular:
        j = max(j, F(1))
        r = 2 * j
    else:
        r = F(max(r, 1.5))
    params = ExponentParams.derive(N, N + 2 + excess, 10, F(6, 5), j=j, r=r)
    ell = float(r) * (1.0 + ell_gap)
    # measured at every norm the threshold at this r and ell reads
    exponents = A.audit_exponents(params, A.AuditSpec(ell_values=(ell,)))
    stats = replace(A.FieldStats.measure(THRESHOLD_TRAJ, (), 0, *exponents), m_sigma=m_sigma)
    try:
        k = A.estimate_threshold(A.build_scaled_psi(stats, float(r)), params, ell)
    except (A.BadExponents, A.DegenerateField) as exc:
        event(type(exc).__name__)
        return
    event("threshold")
    assert 0.0 < k < math.inf


# ---------------------------------------------------------------------------
# the command line on mutated input
# ---------------------------------------------------------------------------

# keys that set how large a run is, held to small sets of valid and invalid
# values so that no example allocates a large grid, steps a long loop or
# starts many threads; mutations never delete them, nor delete or replace a
# section holding them, so no default (npts 32, t_final 0.5) takes over
HELD = {
    "npts": [16, 8, 7, 0, -16, 16.5, "16", None],
    "dt": [2e-3, 0.0, -2e-3, 0.5, 3e-3, "2e-3", None],
    "t_final": [0.0, 4e-3, 3e-3, -1.0, float("nan"), True],
    "snapshot_stride": [1, 2, 0, -1, 1.5, None],
    "kmax": [2, 4, 0, -3, 9, "4"],
    "n_max": [0, 3, 40, 1022, -5, 1023, 2.5, None],
}
KNOWN_KEYS = {"format", "name", "grid", "solver", "initial", "audit", "ledger",
              "calibration", "scenarios", "scenario", "checkpoints", "instability",
              "scenario_hash", "wall_clock_s", "version", *HELD}
json_keys = st.text(max_size=6).filter(lambda k: k not in KNOWN_KEYS)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(json_keys, inner, max_size=3),
    max_leaves=6,
)


def _holds_held(node) -> bool:
    return isinstance(node, dict) and any(
        key in HELD or _holds_held(value) for key, value in node.items())


def _slots(container):
    """Every (container, key) pair under ``container``, depth first."""
    for key in (container if isinstance(container, dict) else range(len(container))):
        yield container, key
        if isinstance(container[key], (dict, list)):
            yield from _slots(container[key])


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three values replaced, deleted or added."""
    root = {"doc": json.loads(json.dumps(doc))}
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_slots(root))))
        node = container[key]
        if container is root:
            op = draw(st.sampled_from(["keep", "replace"]))
        elif isinstance(container, dict) and key in HELD:
            op = "held"
        elif _holds_held(node):
            op = "add"
        else:
            op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "held":
            container[key] = draw(st.sampled_from(HELD[key]))
        elif op == "replace":
            container[key] = draw(json_values)
        elif op == "delete":
            del container[key]
        elif op == "add" and isinstance(node, dict):
            node[draw(json_keys)] = draw(json_values)
        elif op == "add" and isinstance(node, list):
            node.insert(draw(st.integers(0, len(node))), draw(json_values))
    return root["doc"]


# the contract is the exit code: a run that blows up may pass through numpy
# overflow warnings before it is reported unstable, and outside the test
# suite those are printed, not raised
cli_fuzz = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _exit_code(argv) -> int:
    """``nsbl <argv>`` in-process; the exit code, once it is known to be one
    of the documented codes with no traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    assert type(rc) is int and 0 <= rc <= 4, (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    event(f"exit {rc}")
    return rc


def _tiny(name: str) -> dict:
    return Scenario(
        name=name, grid_npts=16,
        solver=SolverConfig(viscosity=1.0, dt=2e-3, t_final=0.0, snapshot_stride=1),
        initial={"kind": "random_spectrum", "seed": 0, "amplitude": 1.0, "kmax": 2},
    ).to_dict()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One finished 16^3 run at t_final 0, and the files the CLI reads."""
    base = tmp_path_factory.mktemp("cli-fuzz")
    files = {"scenario": base / "scenario.json", "suite": base / "suite.json",
             "text": base / "text.txt", "missing": base / "missing.json", "dir": base}
    files["scenario"].write_bytes(canonical_json(_tiny("tiny")))
    files["suite"].write_bytes(canonical_json(
        {"format": "nsbl-suite/1", "name": "fuzz", "calibration": "m0",
         "scenarios": [_tiny("m0"), _tiny("m1")]}))
    files["text"].write_text("not json")
    with pytest.MonkeyPatch.context() as mp:
        # a command without --out-dir writes here, not to the working directory
        mp.setenv("NSBL_OUT", str(base / "env-out"))
        assert cli.main(["simulate", str(files["scenario"]), "--out-dir", str(base)]) == 0
        files["manifest"] = base / "tiny" / "manifest.json"
        yield base, files


OPTIONS = {
    "--N": ["3", "4", "2", "3/1", "7/2", "x", "1/0"],
    "--q-max": ["10", "64", "1000000", "-1", "abc"],
    "--delta": ["1/2", "1/3", "0", "1", "0.25", "abc", "1/0"],
    "--r": ["12", "3", "0.5", "0", "-1", "1099511627776", "1e308", "nan", "inf", "abc"],
    "--s": ["2,3", "1.5", "12", "0", "-2", "1e308", "nan", ",", "", "2,,3", "abc"],
    "--l": ["13", "2", "12", "0", "-1", "1e308", "inf", "", "2,,3", "abc"],
    "--n-max": ["0", "3", "-5", "2.5", "abc"],
    "--workers": ["1", "2", "0", "-3", "two"],
}
check_entries = st.builds(
    "{}={}".format,
    st.sampled_from(["N", "q", "B", "K", "delta", "j", "r", "sigma", "bogus", ""]),
    st.sampled_from(["3", "4", "10", "6/5", "1/2", "12", "0", "-1", "1/0", "abc", ""]))
free_tokens = st.text(max_size=8).filter(lambda t: not t.startswith("-"))


# each command's options and the file its argument names
COMMANDS = {
    "exponents": (None, ["--N", "--q-max", "--delta", "--check", "--out-dir"]),
    "simulate": ("scenario", ["--out-dir"]),
    "audit": ("manifest", ["--r", "--s", "--l", "--n-max"]),
    "suite": ("suite", ["--out-dir", "--workers"]),
}


@st.composite
def argvs(draw, files):
    """A command line built from the CLI's own words, then edited at random."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    arg, options = COMMANDS[command]
    argv = [command]
    if arg is not None:
        argv.append(draw(st.just(files[arg]) | st.sampled_from(list(files.values()))
                         | free_tokens))
    for opt in draw(st.lists(st.sampled_from(options), max_size=4)):
        if opt == "--check":
            value = ",".join(draw(st.lists(check_entries, min_size=1, max_size=4)))
        elif opt == "--out-dir":
            value = draw(st.sampled_from(
                [files["dir"] / "out", files["text"], files["text"] / "sub", ""]))
        else:
            value = draw(st.sampled_from(OPTIONS[opt]))
        argv += [opt, value]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        if argv and draw(st.booleans()):
            del argv[draw(st.integers(0, len(argv) - 1))]
        else:
            token = draw(free_tokens | st.sampled_from(
                ["bogus", "--bogus", "-x", "--", "--check", *OPTIONS]))
            argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@cli_fuzz
@settings(max_examples=400)
@given(data=st.data())
def test_cli_on_mutated_argv(tiny_run, data):
    _, files = tiny_run
    _exit_code(data.draw(argvs(files)))


@cli_fuzz
@settings(max_examples=250)
@given(data=st.data())
def test_cli_on_mutated_manifest(tiny_run, data):
    _, files = tiny_run
    manifest = json.loads(files["manifest"].read_text())
    path = files["manifest"].parent / "mutated.json"
    path.write_text(json.dumps(data.draw(mutated(manifest))))
    _exit_code(["audit", path])


@cli_fuzz
@settings(max_examples=250)
@given(data=st.data())
def test_cli_on_mutated_scenario(tiny_run, data):
    # a scenario that simulates is audited as well, so its audit block is
    # exercised too
    base, files = tiny_run
    path = base / "mutated-scenario.json"
    path.write_text(json.dumps(data.draw(mutated(_tiny("tiny")))))
    out = base / "scenario-out"
    if _exit_code(["simulate", path, "--out-dir", out]) == 0:
        name = Scenario.load(path).name
        _exit_code(["audit", out / name / "manifest.json"])


@cli_fuzz
@settings(max_examples=80)
@given(data=st.data(), workers=st.sampled_from(["1", "2"]))
def test_cli_on_mutated_suite(tiny_run, data, workers):
    base, files = tiny_run
    suite = json.loads(files["suite"].read_text())
    path = base / "mutated-suite.json"
    path.write_text(json.dumps(data.draw(mutated(suite))))
    _exit_code(["suite", path, "--out-dir", base / "suite-out", "--workers", workers])
