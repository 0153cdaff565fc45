"""The three benchmark workloads and the checks on their outputs.

Inputs are built only through ``Scenario``/``SolverConfig`` and the CLI, so
a change of spectral layout or checkpoint format inside ``nsbl`` does not
break the benchmark.  Every workload is a closed loop with one operation in
flight; only ``suite-mixed`` runs members concurrently (``--workers 2``).

Initial-data seeds are drawn from a fixed pool per member family, chosen by
the run's ``--seed``; ``reference.json`` holds this pool's reference
quantities (per-snapshot max|u| and energy, fitted pressure constants).

Every timed part runs between two runs of :class:`SpeedProbe`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from spans import SPECS, Tracer

# Tight enough that float32 arithmetic or dropping the 2/3-rule dealiasing
# fails it, loose enough for reordered float64 sums (about 1e-13).
RTOL = 1e-9

POOL = tuple(range(8))
REPLAY_S = "1.5,2,3,4"  # pressure exponents of every audit-replay audit
SUITE_WORKERS = 2
SUITE_TIMERS = tuple(s for s in SPECS if s.name in ("harness.simulate", "harness.audit_manifest"))

IMPORT_SAMPLES = 9  # set-up samples of the workloads whose set-up is an import

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# A fresh interpreter that imports the package and optionally runs one CLI
# command, printing the seconds spent inside the command.
CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import nsbl.cli as cli\n"
    "if len(sys.argv) > 2:\n"
    "    t = time.perf_counter(); rc = cli.main(sys.argv[2:])\n"
    "    print('cli_s', time.perf_counter() - t); sys.exit(rc)\n"
)


class SetupFailed(RuntimeError):
    pass


class SpeedProbe:
    """Times a fixed numpy kernel that does not use nsbl (0.05 to 0.13 s).

    It does the two kinds of work nsbl does: dealiased quadratic products of
    a 32^3 velocity through 3-D FFTs, as the solver and ``cz_pressure`` do,
    and powers of a stack of 26 fields, as the audit's norms do.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 32
        k = np.fft.fftfreq(n) * n
        self.k = np.stack(np.meshgrid(k, k, k, indexing="ij"))
        self.mask = (np.abs(self.k) < n / 3).all(axis=0)
        velocity = rng.standard_normal((3, n, n, n))
        self.coeff = np.fft.fftn(velocity, axes=(-3, -2, -1)) * self.mask
        self.stack = rng.random((26, n, n, n))
        self.samples: list[float] = []
        self()  # the first call pays for FFT plans and fresh pages
        self.samples.clear()

    def __call__(self) -> None:
        t0 = time.perf_counter()
        for _ in range(4):
            u = np.fft.ifftn(self.coeff, axes=(-3, -2, -1)).real
            out = np.zeros_like(self.coeff)
            for i in range(3):
                for j in range(i, 3):
                    w = np.fft.fftn(u[i] * u[j]) * self.mask
                    out[i] -= 1j * self.k[j] * w
                    if i != j:
                        out[j] -= 1j * self.k[i] * w
        for _ in range(3):
            float(np.sum((self.stack / 0.7) ** 3.3))
        self.samples.append(time.perf_counter() - t0)


@dataclass(frozen=True)
class Member:
    """One random-spectrum scenario: 32^3 by default, amplitude 2, kmax 8, dt 2e-3."""

    family: str
    seed: int
    npts: int = 32
    t_final: float = 0.25
    stride: int = 5

    @property
    def name(self) -> str:
        return f"{self.family}{self.npts}-seed{self.seed}"

    def scenario(self, nsbl) -> dict:
        sc = nsbl.harness.Scenario(
            name=self.name,
            grid_npts=self.npts,
            solver=nsbl.solver.SolverConfig(
                viscosity=1.0, dt=2e-3, t_final=self.t_final,
                snapshot_stride=self.stride),
            initial={"kind": "random_spectrum", "seed": self.seed,
                     "amplitude": 2.0, "kmax": 8},
        )
        return sc.to_dict()


def pipeline_member(seed):
    """The acceptance-suite member: 125 RK4 steps, 26 checkpoints."""
    return Member("pipe", seed)


def replay_member(seed):
    """25 steps with every step kept: 26 checkpoints for a cheap set-up."""
    return Member("replay", seed, t_final=0.05, stride=1)


def suite_member(seed, npts):
    """10 steps, 6 checkpoints, on a 24^3, 32^3 or 48^3 grid."""
    return Member("suite", seed, npts=npts, t_final=0.02, stride=2)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def snapshot_quantities(nsbl, manifest_path: Path) -> dict:
    """Per-snapshot max|u| and energy, read back from the run's checkpoints."""
    manifest = json.loads(manifest_path.read_text())
    max_u, energy = [], []
    for entry in manifest["checkpoints"]:
        v = nsbl.checkpoint.read_checkpoint(manifest_path.parent / entry["path"])
        mag = v.magnitude()
        max_u.append(float(mag.max()))
        energy.append(0.5 * float(np.sum(mag * mag)) * v.grid.cell_volume)
    return {"max_u": max_u, "energy": energy}


def report_quantities(report_bytes: bytes) -> tuple[dict, float]:
    """Fitted pressure constants by check id, and the energy-identity residual."""
    report = json.loads(report_bytes)
    checks = {c["id"]: c for c in report["checks"]}
    pressure = {cid: float(c["fitted_constant"]) for cid, c in checks.items()
                if cid.startswith("pressure_s")}
    return pressure, float(checks["energy"]["lhs"])


def compare(name: str, got: dict, want: dict) -> list[str]:
    """Relative differences above RTOL between two quantity records."""
    problems = []
    for key, ref in want.items():
        val = got.get(key)
        if isinstance(ref, dict):
            problems += compare(f"{name}.{key}", val or {}, ref)
            continue
        ref_arr = np.atleast_1d(np.asarray(ref, dtype=float))
        val_arr = np.atleast_1d(np.asarray(val if val is not None else [], dtype=float))
        if val_arr.shape != ref_arr.shape:
            problems.append(f"{name}.{key}: shape {val_arr.shape} != {ref_arr.shape}")
            continue
        rel = np.abs(val_arr - ref_arr) / np.maximum(np.abs(ref_arr), 1e-300)
        if rel.max() > RTOL:
            problems.append(f"{name}.{key}: relative error {rel.max():.3e} > {RTOL:g}")
    return problems


def ckpt_bytes(member_dir: Path) -> int:
    return sum(p.stat().st_size for p in member_dir.glob("*.nsbl"))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    """Timings of one operation plus the outputs its check needs."""

    wall_s: float
    simulate_s: float
    audit_s: float
    exits: list
    members: list  # (member name, member directory)


class Workload:
    """Shared machinery: timed CLI calls, set-up samples and output checks."""

    name = ""
    min_ops = 2
    checks_snapshots = True  # read max|u| and energy back from each operation's checkpoints

    def __init__(self, nsbl, work: Path, seed: int, src: Path):
        self.nsbl = nsbl
        self.probe = SpeedProbe()
        self.work = work
        self.out = work / "out"
        self.src = src
        self.rng = random.Random(f"{self.name}:{seed}")
        self.reference = json.loads(REFERENCE_PATH.read_text())
        self.reports: dict[str, bytes] = {}
        self.residuals: list[float] = []
        self.residual_ratios: list[float] = []
        self.setup_samples: list[float] = []
        self.simulate_samples: list[float] = []
        self.ckpt_mb: float = 0.0
        self.setup_problems: list[str] = []

    def timed(self, fn, *args) -> tuple[object, float]:
        """Run ``fn(*args)`` between two speed probes; returns (its result, seconds)."""
        self.probe()
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        self.probe()
        return result, seconds

    def cli(self, *argv) -> object:
        """Run ``nsbl <argv>`` in-process; returns the exit code or the error."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                return self.nsbl.cli.main([str(a) for a in argv])
            except Exception as exc:  # a traceback is a failed operation
                return f"{type(exc).__name__}: {exc}"

    def child(self, *argv) -> float | None:
        """Fresh interpreter importing nsbl (and running one CLI command).

        Returns the seconds spent inside the command, if one ran.
        """
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(self.src), *map(str, argv)],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise SetupFailed(f"child {argv} exited {proc.returncode}: {proc.stderr[-500:]}")
        inner = [line.split()[1] for line in proc.stdout.splitlines()
                 if line.startswith("cli_s ")]
        return float(inner[0]) if inner else None

    def import_sample(self, path: Path, content) -> None:
        """One set-up sample: write the input file, then import nsbl afresh."""
        def prepare():
            write_json(path, content)
            self.child()

        self.setup_samples.append(self.timed(prepare)[1])

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def check(self, result: OpResult) -> list[str]:
        """Exit codes, report byte identity and reference quantities."""
        problems = [f"exit {rc}" for rc in result.exits if rc != 0]
        if problems:
            return problems
        for name, member_dir in result.members:
            try:
                problems += self.check_member(name, member_dir)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{name}: unreadable output: {type(exc).__name__}: {exc}")
        return problems

    def check_member(self, name: str, member_dir: Path) -> list[str]:
        problems = []
        report = (member_dir / "report.json").read_bytes()
        if report != self.reports.setdefault(name, report):
            problems.append(f"{name}: report.json differs from the first audit")
        ref = self.reference[name]
        pressure, residual = report_quantities(report)
        self.residuals.append(residual)
        self.residual_ratios.append(residual / ref["energy_residual"])
        got = {"pressure": pressure}
        if self.checks_snapshots:
            got.update(snapshot_quantities(self.nsbl, member_dir / "manifest.json"))
        return problems + compare(name, got, {k: ref[k] for k in got})


class Pipeline(Workload):
    """README flow on one acceptance-shaped member: exponents, simulate, audit.

    Operations alternate between two members, two in a row each, so every
    run audits one manifest twice and compares the reports byte for byte.
    At least three operations run, so both members are checked.
    """

    name = "pipeline-32"
    min_ops = 3

    def setup(self) -> None:
        self.members = [pipeline_member(s) for s in self.rng.sample(POOL, 2)]
        self.out.mkdir(parents=True)
        for k in range(IMPORT_SAMPLES):
            member = self.members[k % 2]
            self.import_sample(self.work / f"{member.name}.json", member.scenario(self.nsbl))

    def op(self, i: int) -> OpResult:
        member = self.members[(i // 2) % 2]
        rc1, t1 = self.timed(self.cli, "exponents", "--N", 3, "--out-dir", self.out)
        rc2, t2 = self.timed(self.cli, "simulate", self.work / f"{member.name}.json",
                             "--out-dir", self.out)
        rc3, t3 = self.timed(self.cli, "audit", self.out / member.name / "manifest.json")
        self.ckpt_mb = ckpt_bytes(self.out / member.name) / 1e6
        return OpResult(t1 + t2 + t3, t2, t3, [rc1, rc2, rc3],
                        [(member.name, self.out / member.name)])


class AuditReplay(Workload):
    """Audits of finished runs: the solver does no work in the timed part.

    Four members are simulated during set-up, each in its own interpreter so
    the simulation's memory stays out of this process's peak.  Operations
    cycle over them, so each manifest is audited at least twice.
    """

    name = "audit-replay"
    min_ops = 8
    checks_snapshots = False

    def setup(self) -> None:
        self.members = [replay_member(s) for s in self.rng.sample(POOL, 4)]
        self.out.mkdir(parents=True)
        for member in self.members:
            def simulate():
                path = self.work / f"{member.name}.json"
                write_json(path, member.scenario(self.nsbl))
                return self.child("simulate", path, "--out-dir", self.out)

            inner, seconds = self.timed(simulate)
            self.setup_samples.append(seconds)
            self.simulate_samples.append(inner)
            member_dir = self.out / member.name
            self.ckpt_mb = ckpt_bytes(member_dir) / 1e6
            got = snapshot_quantities(self.nsbl, member_dir / "manifest.json")
            self.setup_problems += compare(member.name, got,
                                           {k: self.reference[member.name][k] for k in got})

    def op(self, i: int) -> OpResult:
        member = self.members[i % len(self.members)]
        rc, t = self.timed(self.cli, "audit", self.out / member.name / "manifest.json",
                           "--s", REPLAY_S)
        return OpResult(t, 0.0, t, [rc], [(member.name, self.out / member.name)])


class SuiteMixed(Workload):
    """``nsbl suite --workers 2`` on 24^3, 32^3 and one 48^3 refinement member.

    The calibration member runs first and alone; the 48^3 member leads the
    held-out list so the pool starts the longest job first.
    """

    name = "suite-mixed"
    min_ops = 2

    def setup(self) -> None:
        s32 = self.rng.sample(POOL, 3)
        s24 = self.rng.sample(POOL, 3)
        cal = suite_member(s32[0], 32)
        self.members = ([cal, suite_member(s32[0], 48)]
                        + [suite_member(s, 32) for s in s32[1:]]
                        + [suite_member(s, 24) for s in s24])
        self.out.mkdir(parents=True)
        suite = {"format": "nsbl-suite/1", "name": "suite-mixed", "calibration": cal.name,
                 "scenarios": [m.scenario(self.nsbl) for m in self.members]}
        for _ in range(IMPORT_SAMPLES):
            self.import_sample(self.work / "suite.json", suite)

    def op(self, i: int) -> OpResult:
        # no separate simulate/audit command here: time the two harness calls
        # each member makes, with wrappers that only read the clock
        with Tracer(SUITE_TIMERS) as timer:
            rc, t = self.timed(self.cli, "suite", self.work / "suite.json",
                               "--workers", SUITE_WORKERS, "--out-dir", self.out)
        sim = sum(s.duration for s in timer.spans if s.name == "harness.simulate")
        aud = sum(s.duration for s in timer.spans if s.name == "harness.audit_manifest")
        self.ckpt_mb = sum(ckpt_bytes(self.out / m.name) for m in self.members) / 1e6
        return OpResult(t, sim, aud, [rc], [(m.name, self.out / m.name) for m in self.members])

    def check(self, result: OpResult) -> list[str]:
        if all(rc == 0 for rc in result.exits):
            agg = json.loads((self.out / "aggregate.json").read_text())
            if agg["runs_completed"] != len(self.members) or agg["errors"] or agg["instabilities"]:
                return [f"aggregate: {agg['runs_completed']} completed, "
                        f"errors {agg['errors']}, instabilities {agg['instabilities']}"]
        return super().check(result)


WORKLOADS = {w.name: w for w in (Pipeline, AuditReplay, SuiteMixed)}
