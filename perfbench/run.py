"""Benchmark runner for nsbl.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-32 --seed 1 --seconds 30 --trace 0

The runner imports ``nsbl`` from ``./src`` and drives it only from outside,
through ``nsbl.cli.main`` and the modules' public functions.  With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it runs one untraced operation and then traced ones, and
reports the per-layer metrics.  The last line of standard output is the
result as one JSON object; the lines before it name every metric with its
unit and record the environment.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, so the single-process workloads
# measure the program and not the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import (  # noqa: E402
    SPECS,
    Tracer,
    exact_counts,
    median,
    member_times,
    op_totals,
    percentile,
    worker_busy_frac,
)
from workloads import SUITE_WORKERS, WORKLOADS, OpResult, SetupFailed  # noqa: E402

PROBE_SAMPLES = 30  # untraced step() and nonlinear_term() calls in a traced run

# The host's speed drifts by up to 1.6x in phases that last from about ten
# seconds to minutes, so plain seconds spread more between runs than any
# bound allows.  End-to-end times are given in reference seconds instead: a
# median of plain seconds times SPEED_REF_S over the median of the speed
# probes run around the timed parts of the same phase (set-up, or the
# operations).  That is the time at the host speed where the probe takes
# SPEED_REF_S.
SPEED_REF_S = 0.075
# share of traced wall time the solver must take on pipeline-32
SOLVER_SHARE_CLAIM = 0.60


def load_nsbl(root: Path):
    """Import nsbl from the checkout's sources, never from an installed copy."""
    src = root / "src"
    if not (src / "nsbl" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no nsbl sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import nsbl
    import nsbl.cli  # noqa: F401  (loads every module the CLI reaches)

    if not Path(nsbl.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported nsbl from {nsbl.__file__}, not {src}")
    return nsbl


def fft_backend(spectral) -> str:
    """FFT modules or functions ``nsbl.spectral`` binds by name, else numpy.fft
    (which it reaches as ``np.fft``)."""
    found = set()
    for obj in vars(spectral).values():
        name = (obj.__name__ if isinstance(obj, types.ModuleType)
                else getattr(obj, "__module__", None))
        if isinstance(name, str) and "fft" in name:
            found.add(name)
    return ",".join(sorted(found)) or "numpy.fft"


def environment(nsbl) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "fft_backend": fft_backend(nsbl.spectral),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def declared_metrics(root: Path, kind: str) -> dict:
    """Metric name to unit, as BENCHMARK.json declares them."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def step_probe(nsbl, seed: int) -> dict:
    """Latency of public ``step`` and ``nonlinear_term`` calls on a 32^3 member."""
    solver = nsbl.solver
    grid = nsbl.spectral.TorusGrid(32)
    v = solver.make_initial("random_spectrum", grid, seed=seed, amplitude=2.0, kmax=8)
    cfg = solver.SolverConfig(viscosity=1.0, dt=2e-3, t_final=0.25, snapshot_stride=5)
    v = solver.step(v, cfg)  # warm-up, not counted
    step_ms = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        v = solver.step(v, cfg)
        step_ms.append(1e3 * (time.perf_counter() - t0))
    nl_ms = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        solver.nonlinear_term(v)
        nl_ms.append(1e3 * (time.perf_counter() - t0))
    return {
        "solver.step.p50_ms": (percentile(step_ms, 50), "ms"),
        "solver.step.p90_ms": (percentile(step_ms, 90), "ms"),
        "solver.nonlinear_term.p50_ms": (percentile(nl_ms, 50), "ms"),
    }


def end_to_end(wl, ops, setup_probes: int, scaled: bool = True) -> dict:
    """Run medians, in reference seconds unless ``scaled`` is false.

    The first ``setup_probes`` speed probes ran during set-up.
    """
    probes = wl.probe.samples
    setup_k = SPEED_REF_S / median(probes[:setup_probes]) if scaled else 1.0
    op_k = SPEED_REF_S / median(probes[setup_probes:]) if scaled else 1.0

    def op_times(key):
        return op_k * median([getattr(op.result, key) for op in ops])

    return {
        "setup_s": (setup_k * median(wl.setup_samples), "s"),
        "wall_s": (op_times("wall_s"), "s"),
        # audit-replay simulates only during set-up
        "simulate_s": (setup_k * median(wl.simulate_samples) if wl.simulate_samples
                       else op_times("simulate_s"), "s"),
        "audit_s": (op_times("audit_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ckpt_mb": (wl.ckpt_mb, "MB"),
        "energy_residual_ratio": (max(wl.residual_ratios, default=0.0), "ratio"),
    }


def per_layer(ops, latencies: dict) -> tuple[dict, list[str]]:
    """Per-operation means over the traced operations, plus call latencies."""
    traced = [op for op in ops if op.spans is not None]
    totals = [op_totals(op.spans) for op in traced]
    n = len(traced)

    def mean(name, key):
        return sum(t.get(name, {}).get(key, 0.0) for t in totals) / n

    def count(name, key):
        return sum(t.get(name, {}).get("counts", {}).get(key, 0) for t in totals) / n

    out = {}
    for spec in SPECS:
        for key in spec.metrics:
            if key == "calls":
                out[f"{spec.name}.calls"] = (mean(spec.name, "calls"), "count")
            elif key == "mb":
                out[f"{spec.name}.mb"] = (count(spec.name, "bytes") / 1e6, "MB")
            else:
                out[f"{spec.name}.{key}"] = (mean(spec.name, key), "s")

    steps = count("solver.run", "steps")
    out["solver.steps"] = (steps, "count")
    out["solver.step_ms"] = (1e3 * mean("solver.run", "s") / steps if steps else 0.0, "ms")
    out.update(latencies)
    fft = ("spectral.transform_forward", "spectral.transform_inverse")
    out["spectral.fft_mb_computed"] = (sum(count(f, "fft_bytes") for f in fft) / 1e6, "MB")
    out["spectral.fft_gflop_computed"] = (sum(count(f, "fft_gflop") for f in fft), "GFLOP")
    cz_ms = [1e3 * s.duration for op in traced for s in op.spans
             if s.name == "spectral.cz_pressure"]
    out["spectral.cz_pressure.p50_ms"] = (percentile(cz_ms, 50) if cz_ms else 0.0, "ms")

    members = [t for op in traced for t in member_times(op.spans).values()]
    out["harness.member.p50_s"] = (percentile(members, 50) if members else 0.0, "s")
    out["harness.member.max_s"] = (max(members, default=0.0), "s")
    out["harness.worker_busy_frac"] = (
        median([worker_busy_frac(op.spans, SUITE_WORKERS) for op in traced]), "ratio")
    out["cli.overhead_s"] = (mean("cli.main", "self_s"), "s")

    # operations differ by member, so the overhead compares operations on
    # the untraced operation's own members
    plain = ops[0].result
    same = [op.result.wall_s for op in traced if op.result.members == plain.members]
    out["trace.wall_s"] = (median([op.result.wall_s for op in traced]), "s")
    out["trace_overhead_frac"] = (median(same) / plain.wall_s - 1.0 if same else 0.0, "ratio")

    first, problems = exact_counts(totals[0]), []
    for k, total in enumerate(totals[1:], start=1):
        counts = exact_counts(total)
        differ = sorted(key for key in counts.keys() | first.keys()
                        if counts.get(key) != first.get(key))
        if differ:
            problems.append(f"traced operation {k}: counts differ from the first: {differ}")
    return out, problems


@dataclass
class Op:
    result: OpResult
    spans: list | None  # None for an untraced operation
    problems: list


def run_workload(wl, seconds: float, trace: bool) -> tuple[list, int, list[str], list[str]]:
    """Closed loop: one operation in flight, the next starts when it ends.

    A new operation starts only while the run's elapsed time plus the median
    operation time fits in ``seconds``, after a minimum count that lets every
    byte-identity check (and, traced, the count check) see two operations.
    Returns the operations, the number of speed probes set-up ran, and the
    absent and broken spans of a traced run.
    """
    wl.setup()
    setup_probes = len(wl.probe.samples)
    min_ops = max(wl.min_ops, 3) if trace else wl.min_ops
    ops, absent, broken = [], set(), set()
    t_start = time.perf_counter()
    while True:
        i = len(ops)
        if trace and i > 0:
            with Tracer() as tracer:
                result = wl.op(i)
            spans = tracer.spans
            absent.update(tracer.absent)
            broken.update(tracer.broken_hooks)
        else:
            result, spans = wl.op(i), None
        ops.append(Op(result, spans, wl.check(result)))
        elapsed = time.perf_counter() - t_start
        typical = median([o.result.wall_s for o in ops])
        if len(ops) >= min_ops and elapsed + typical > seconds:
            return ops, setup_probes, sorted(absent), sorted(broken)


def claims(workload: str, metrics: dict) -> list[str]:
    """What the traced run says about where each workload spends its time."""
    lines = []
    if workload == "pipeline-32":
        share = metrics["solver.run.s"][0] / metrics["trace.wall_s"][0]
        verdict = "holds" if share >= SOLVER_SHARE_CLAIM else "DOES NOT HOLD"
        lines.append(f"claim solver.run.s / trace.wall_s = {share:.3f} "
                     f">= {SOLVER_SHARE_CLAIM}: {verdict}")
    if workload == "audit-replay":
        steps = metrics["solver.steps"][0]
        lines.append(f"claim solver.steps = {steps:g} == 0: "
                     f"{'holds' if steps == 0 else 'DOES NOT HOLD'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    nsbl = load_nsbl(root)
    declared = declared_metrics(root, "per_layer" if args.trace else "end_to_end")
    env = environment(nsbl)
    work = root / ".perfbench-out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](nsbl, work, args.seed, root / "src")
        ops, setup_probes, absent, broken = run_workload(wl, args.seconds, bool(args.trace))
        problems = wl.setup_problems + [p for op in ops for p in op.problems]
        if args.trace:
            metrics, count_problems = per_layer(ops, step_probe(nsbl, args.seed % 8))
            problems += count_problems
        else:
            metrics = end_to_end(wl, ops, setup_probes)
    except SetupFailed as exc:
        raise SystemExit(f"perfbench: set-up failed: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()

    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        raise SystemExit(f"perfbench: metrics {sorted(emitted.items() ^ declared.items())} "
                         "differ from BENCHMARK.json")

    failed = sum(1 for op in ops if op.problems)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} operations {len(ops)}")
    for i, op in enumerate(ops):
        r = op.result
        print(f"op {i} {'traced' if op.spans is not None else 'untraced'} "
              f"{','.join(name for name, _ in r.members)} wall_s {r.wall_s:.4f} "
              f"simulate_s {r.simulate_s:.4f} audit_s {r.audit_s:.4f} (plain seconds)")
    for problem in problems:
        print(f"problem {problem}")
    if absent:
        print(f"absent spans (reported as 0): {', '.join(absent)}")
    if broken:
        print(f"counter hooks that no longer fit (counts missing): {', '.join(broken)}")
    probes = wl.probe.samples
    print(f"speed probe: set-up median {median(probes[:setup_probes]):.4f} s, operations "
          f"median {median(probes[setup_probes:]):.4f} s, range {min(probes):.4f} to "
          f"{max(probes):.4f} s ({len(probes)} samples)")
    if not args.trace:
        print(f"end-to-end times are in reference seconds, at the host speed where the "
              f"probe takes {SPEED_REF_S} s")
        plain = end_to_end(wl, ops, setup_probes, scaled=False)
        print("plain " + ", ".join(f"{k} = {plain[k][0]:.6g} s"
                                   for k in ("setup_s", "wall_s", "simulate_s", "audit_s")))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed}/{len(ops)} = {failed / len(ops):g}")
    print(f"energy_residual = {max(wl.residuals, default=0.0):.6g} (largest in the run's reports)")
    if args.trace:
        for line in claims(args.workload, metrics):
            print(line)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
