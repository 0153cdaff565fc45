"""Rewrite tests/identity.json: the sha256 of every file a fixed set of
``nsbl`` commands writes, with each command's exit code.

Run from the repository root:

    PYTHONPATH=src python3 tests/make_identity.py

The set:

- ``simulate``, then ``audit --s 1.5,2,3,4``, of ``beltrami``,
  ``taylor_green`` and ``random_spectrum`` at 16^3 and 24^3 (10 RK4 steps,
  a snapshot every 2);
- one run audited at sigma = 1/2, and a three-member suite at
  ``--workers 1`` and at ``--workers 2`` (two members share the pool),
  each member at 16^3 for 2 steps;
- a mixed suite at ``--workers 1`` and at ``--workers 2`` that meets every
  member outcome: a calibration member whose t_final/dt is not an integer
  (an error, so the others calibrate themselves), held-out members at
  16^3 and 24^3 (a drift), one that blows up and one that errs;
- ``exponents`` searches at N = 3 to 6, one that exhausts its ceiling, and
  two ``--check`` tuples, one feasible and one not.

Manifests are hashed without ``wall_clock_s``, the one value that depends
on the clock.  The bytes depend on numpy's transform and SIMD code, so the
file also records the numpy version, the machine and the SIMD targets
numpy dispatches to; ``tests/test_identity.py`` skips, naming the
difference, where they differ.  Rewrite the file only when a change is
meant to move these bytes, and list the files that moved in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from nsbl import cli
from nsbl.harness import DEFAULT_LEDGER, MANIFEST_NAME, Scenario, canonical_json
from nsbl.solver import SolverConfig

RECORD = Path(__file__).resolve().parent / "identity.json"

SOLVER = SolverConfig(viscosity=1.0, dt=2e-3, t_final=0.02, snapshot_stride=2)
SHORT = SolverConfig(viscosity=1.0, dt=2e-3, t_final=4e-3, snapshot_stride=1)
# t_final/dt = 2.5: simulate refuses it with BadSpec
FRACTIONAL = SolverConfig(viscosity=1.0, dt=2e-3, t_final=5e-3, snapshot_stride=1)
BLOWUP = SolverConfig(viscosity=1e-4, dt=0.5, t_final=25.0, snapshot_stride=10)


def environment() -> dict:
    """What the bytes depend on beyond the sources: numpy's version, the
    machine, and the SIMD targets numpy's dispatch picks on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
        simd = sorted(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))
    except (ImportError, AttributeError):
        simd = None
    return {"numpy": np.__version__, "machine": platform.machine(), "simd": simd}


def _scenario(name: str, npts: int, kind: str, solver=SOLVER, seed=1, amplitude=2.0,
              **ledger) -> dict:
    return Scenario(name=name, grid_npts=npts, solver=solver,
                    initial={"kind": kind, "seed": seed, "amplitude": amplitude, "kmax": 4},
                    ledger={**DEFAULT_LEDGER, **ledger}).to_dict()


def commands(work: Path) -> list:
    """The argv of every command of the set, in order; writes the scenario
    and suite files they read into ``work``."""
    def write(name, obj):
        path = work / name
        path.write_bytes(canonical_json(obj))
        return str(path)

    runs = str(work / "runs")
    argvs = []
    for kind in ("beltrami", "taylor_green", "random_spectrum"):
        for npts in (16, 24):
            name = f"{kind}-{npts}"
            argvs.append(["simulate", write(f"{name}.json", _scenario(name, npts, kind)),
                          "--out-dir", runs])
            argvs.append(["audit", f"{runs}/{name}/{MANIFEST_NAME}", "--s", "1.5,2,3,4"])
    scaled = _scenario("sigma-half", 16, "random_spectrum", SHORT, sigma="1/2")
    argvs.append(["simulate", write("sigma-half.json", scaled), "--out-dir", runs])
    argvs.append(["audit", f"{runs}/sigma-half/{MANIFEST_NAME}"])
    members = [_scenario(f"member{k}", 16, "random_spectrum", SHORT, seed=k) for k in range(3)]
    suite = write("suite.json", {"format": "nsbl-suite/1", "name": "identity",
                                 "scenarios": members})
    mixed = [_scenario("lo", 16, "random_spectrum", SHORT),
             _scenario("cal-badspec", 16, "random_spectrum", FRACTIONAL),
             _scenario("hi", 24, "random_spectrum", SHORT),
             _scenario("blowup", 16, "random_spectrum", BLOWUP, amplitude=500.0),
             _scenario("badspec", 16, "random_spectrum", FRACTIONAL)]
    mixed = write("mixed.json", {"format": "nsbl-suite/1", "name": "mixed",
                                 "calibration": "cal-badspec", "scenarios": mixed})
    for workers in ("1", "2"):
        argvs.append(["suite", suite, "--out-dir", str(work / f"suite-w{workers}"),
                      "--workers", workers])
        argvs.append(["suite", mixed, "--out-dir", str(work / f"mixed-w{workers}"),
                      "--workers", workers])
    for N in ("3", "4", "5", "6"):
        argvs.append(["exponents", "--N", N, "--out-dir", str(work / f"search-N{N}")])
    argvs.append(["exponents", "--q-max", "10", "--out-dir", str(work / "search-exhausted")])
    for label, check in (("feasible", "N=3,q=10,j=4,B=10,K=6/5,r=12"),
                         ("infeasible", "q=10,j=3,B=10,K=6/5,r=12")):
        argvs.append(["exponents", "--check", check, "--out-dir", str(work / f"check-{label}")])
    return argvs


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == MANIFEST_NAME:
        manifest = json.loads(data)
        del manifest["wall_clock_s"]
        data = canonical_json(manifest)
    return hashlib.sha256(data).hexdigest()


def record() -> dict:
    """Run the set in a fresh directory; the exit code of each command and
    the digest of each file the commands wrote, by path relative to it."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        exits = []
        for argv in commands(work):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            exits.append({"argv": [a.replace(tmp, "$WORK") for a in argv], "exit": code})
        inputs = set(work.glob("*.json"))
        files = {p.relative_to(work).as_posix(): _digest(p)
                 for p in sorted(work.rglob("*")) if p.is_file() and p not in inputs}
    return {"environment": environment(), "commands": exits, "files": files}


def main() -> int:
    RECORD.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
