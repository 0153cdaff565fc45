"""``src/nsbl`` is what the command line runs: every function defined there
is called by some ``nsbl`` command, apart from the few in ``ALLOWED``,
each of which names why it stays.

A profile hook on every thread records the code objects called while the
commands run: ``simulate`` and ``audit --s 2,3`` of each initial kind at
16^3, a two-member suite on two workers, and ``exponents --N 3`` with and
without ``--check``.  Threads started before the hook are not traced, so
the commands run on a team of threads started inside the traced window.
"""

import inspect
import json
import sys
import threading
import types
from pathlib import Path

import nsbl
from nsbl import cli
from nsbl.harness import Scenario, canonical_json
from nsbl.solver import SolverConfig

SRC = Path(nsbl.__file__).resolve().parent

# functions no command reaches, each with the reason it stays
ALLOWED = {
    # error paths, which the tests of the exit codes reach
    "solver.Instability.__init__": "a blow-up's error; commands record it, the tests raise it",
    "harness.InfeasibleLedger.__init__": "an infeasible ledger's error (exit 2)",
    "harness.UnknownKey.__init__": "a misspelled scenario key's error (exit 1)",
    "cli.Parser.error": "a command line that does not parse (exit 1)",
    "ledger._infeasible": "the report of a constraint whose quantity is undefined",
    # perfbench's probes and reads (ROADMAP item 1 moves the reads)
    "solver.step": "perfbench's per-layer step probe",
    "solver.nonlinear_term": "perfbench's per-layer nonlinear-term probe",
    "checkpoint.read_checkpoint": "perfbench reads its reference quantities through it",
    "spectral.SpectralVelocity.components": "perfbench's reference reads, through magnitude",
    "spectral.SpectralVelocity.magnitude": "perfbench's reference reads",
    "spectral._Team.close": "the only way to join the team's threads",
    # the recursion enclosure, which ROADMAP item 6 gives the recursion
    # check; acceptance criterion 4 calls it
    "ledger.recursion_limit_bounds": "the recursion enclosure",
    "ledger.recursion_limit": "the recursion enclosure, in decimals",
    "ledger._bits": "the recursion enclosure's size cap",
    "ledger._mag10": "the recursion enclosure's decimal magnitude",
    "enclosure.pow_bounds": "the recursion enclosure's powers",
    "enclosure.round_down": "the recursion enclosure's directed rounding",
    "enclosure.round_up": "the recursion enclosure's directed rounding",
    "enclosure._leading_zeros": "the directed rounding's digit count",
    # an exact edge: K on the endpoint of its interval, which is rational
    "enclosure.SqrtAffine.is_rational": "K on its interval's endpoint",
    "enclosure.SqrtAffine.exact_value": "K on its interval's endpoint",
}


def defined_functions() -> dict:
    """(file, first line, qualified name) of every function and method the
    modules of ``src/nsbl`` define, nested ones included, to its name as
    ``module.qualname``; lambdas and comprehensions are left out."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                stack.append(const)
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    key = (str(path), const.co_firstlineno, const.co_qualname)
                    found[key] = f"{path.stem}.{const.co_qualname}"
    return found


def write_json(path: Path, obj) -> Path:
    path.write_bytes(canonical_json(obj))
    return path


def run_every_command(tmp_path: Path) -> None:
    cfg = SolverConfig(viscosity=1.0, dt=2e-3, t_final=0.01, snapshot_stride=1)
    out = ["--out-dir", str(tmp_path)]
    for kind in ("beltrami", "taylor_green", "random_spectrum"):
        scenario = Scenario(name=kind, grid_npts=16, solver=cfg,
                            initial={"kind": kind, "seed": 1, "amplitude": 2.0, "kmax": 4})
        assert cli.main(["simulate", str(write_json(tmp_path / f"{kind}.json",
                                                      scenario.to_dict())), *out]) == 0
        assert cli.main(["audit", str(tmp_path / kind / "manifest.json"), "--s", "2,3"]) == 0
    members = [Scenario(name=f"member{k}", grid_npts=16, solver=cfg,
                        initial={"kind": "random_spectrum", "seed": k, "amplitude": 2.0,
                                 "kmax": 4}).to_dict() for k in range(2)]
    suite = write_json(tmp_path / "suite.json",
                       {"format": "nsbl-suite/1", "name": "reach", "scenarios": members})
    assert cli.main(["suite", str(suite), "--out-dir", str(tmp_path / "suite"),
                     "--workers", "2"]) == 0
    assert cli.main(["exponents", "--N", "3", *out]) == 0
    assert cli.main(["exponents", "--check", "N=3,q=10,j=4,B=10,K=6/5,r=12", *out]) == 0
    assert json.loads((tmp_path / "suite" / "aggregate.json").read_text())["errors"] == []


def test_every_function_in_src_is_reached_by_a_command(tmp_path, snapshot_workers):
    called = {}

    def hook(frame, event, arg):
        if event == "call":
            called[id(frame.f_code)] = frame.f_code

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        # a team of two, started while the hook is on, takes the slabs and
        # the snapshot chunks
        snapshot_workers(2)
        run_every_command(tmp_path)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_qualname)
               for c in called.values()}
    defined = defined_functions()
    unreached = sorted(name for key, name in defined.items() if key not in reached)
    missed = [name for name in unreached if name not in ALLOWED]
    assert not missed, f"no command reaches {missed}"
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, f"ALLOWED names what a command reaches or src/ lacks: {stale}"
