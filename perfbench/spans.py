"""Span recording around the public functions of the nsbl modules.

A :class:`Tracer` replaces each traced function under every module-level
name it is bound to (``solver.transform_forward`` and
``spectral.transform_forward`` are the same object, so both names get the
same wrapper) and puts the originals back on exit.  A function that no
longer exists is reported as absent instead of failing the run.

Spans nest per thread, so a span's self time is its duration minus the
durations of its direct children.  Counters (FFT bytes and flops computed
from array shapes, checkpoint bytes, solver steps) are recorded on the span
where the work happens.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


def _fft_gflop(real):
    """GFLOP of one transform call, computed from the real-space array shape.

    Each 3-D transform of N points is counted as 5 N log2 N flops, whatever
    the layout of the spectral side.
    """
    n3 = math.prod(real.shape[-3:])
    fields = math.prod(real.shape[:-3])
    return fields * 5.0 * n3 * math.log2(n3) / 1e9


def _forward_counts(args, result):
    real = args[0]
    return {"fft_bytes": real.nbytes + result.nbytes, "fft_gflop": _fft_gflop(real)}


def _inverse_counts(args, result):
    return {"fft_bytes": args[0].nbytes + result.nbytes, "fft_gflop": _fft_gflop(result)}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _run_steps(args, result):
    v0, cfg = args[0], args[1]
    return {"steps": cfg.validate(v0.grid)}


def _scenario_member(args):
    return args[0].name


def _manifest_member(args):
    return Path(args[0]).parent.name


@dataclass(frozen=True)
class SpanSpec:
    """One traced function: metric prefix, where to find it, what to report.

    ``metrics`` picks from calls, s (inclusive seconds), self_s and mb
    (checkpoint bytes); ``counts`` and ``member`` are hooks on the call's
    arguments and result.
    """

    name: str
    modules: tuple
    attr: str
    metrics: tuple = ("calls", "s")
    counts: object = None
    member: object = None


AUDIT_FUNCTIONS = ("run_audit", "check_energy", "check_pressure", "check_interpolation",
                   "log_norm_limit", "build_scaled_psi", "estimate_threshold",
                   "build_ladder", "check_recursion", "check_final_bound")

SPECS = (
    SpanSpec("cli.main", ("cli",), "main", metrics=()),
    SpanSpec("harness.simulate", ("harness",), "simulate", ("s", "self_s"),
             member=_scenario_member),
    SpanSpec("harness.audit_manifest", ("harness",), "audit_manifest", ("s", "self_s"),
             member=_manifest_member),
    SpanSpec("harness.trajectory_from_manifest", ("harness",), "trajectory_from_manifest",
             ("s", "self_s")),
    SpanSpec("harness.write_report", ("harness",), "write_report", ("s",)),
    SpanSpec("harness.run_suite", ("harness",), "run_suite", ("s", "self_s")),
    SpanSpec("harness.certificate_dict", ("harness",), "certificate_dict", ("s",)),
    SpanSpec("ledger.select_parameters", ("ledger",), "select_parameters"),
    SpanSpec("ledger.constraint_suite", ("ledger",), "constraint_suite"),
    # the ledger gate lives in the harness today; look in both places
    SpanSpec("ledger.gate_params", ("ledger", "harness"), "gate_params"),
    SpanSpec("solver.run", ("solver",), "run", ("calls", "s", "self_s"), counts=_run_steps),
    SpanSpec("spectral.transform_forward", ("spectral",), "transform_forward",
             counts=_forward_counts),
    SpanSpec("spectral.transform_inverse", ("spectral",), "transform_inverse",
             counts=_inverse_counts),
    SpanSpec("spectral.cz_pressure", ("spectral",), "cz_pressure", ("calls", "s", "self_s")),
    SpanSpec("norms.spacetime_norm", ("norms",), "spacetime_norm"),
    SpanSpec("norms.space_norm", ("norms",), "space_norm"),
    SpanSpec("norms.level_set_measure", ("norms",), "level_set_measure"),
    SpanSpec("norms.power_log_integrals", ("norms",), "power_log_integrals"),
    SpanSpec("checkpoint.write", ("checkpoint",), "write_checkpoint", ("calls", "s", "mb"),
             counts=_file_bytes),
    SpanSpec("checkpoint.read", ("checkpoint",), "read_checkpoint", ("calls", "s", "mb"),
             counts=_file_bytes),
) + tuple(SpanSpec(f"audit.{fn}", ("audit",), fn, ("s", "self_s")) for fn in AUDIT_FUNCTIONS)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    children: list = field(default_factory=list)  # (start, end) of direct children
    member: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part of it that child spans cover.

        Children on one thread never overlap; children on pool threads can,
        so the covered part is the union of their intervals.
        """
        covered, reach = 0.0, self.start
        for start, end in sorted(self.children):
            start, end = max(start, reach), min(end, self.end)
            if end > start:
                covered += end - start
                reach = end
        return self.duration - covered


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self, specs=SPECS):
        self.specs = specs
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.broken_hooks: set[str] = set()
        self._local = threading.local()
        self._root: list[Span] = []
        self._restore: list[tuple] = []

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "nsbl" or name.startswith("nsbl."))]

    def _hook(self, spec: SpanSpec, kind: str, hook, *args):
        """Run a counter hook; a signature it no longer fits marks it broken."""
        try:
            return hook(*args)
        except Exception:
            self.broken_hooks.add(f"{spec.name}.{kind}")
            return None

    def _wrap(self, spec: SpanSpec, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            # a pool thread's outermost span is a child of the span that is
            # open on the thread that entered the tracer (run_suite's pool)
            parent = stack[-1] if stack else (tracer._root[-1] if tracer._root else None)
            span = Span(spec.name, time.perf_counter())
            if spec.member is not None:
                span.member = tracer._hook(spec, "member", spec.member, args)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.children.append((span.start, span.end))
                tracer.spans.append(span)
            if spec.counts is not None:
                span.counts = tracer._hook(spec, "counts", spec.counts, args, result) or {}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        self._root = self._local.stack = []
        modules = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for spec in self.specs:
            fn = next((getattr(by_name[m], spec.attr) for m in spec.modules
                       if m in by_name and callable(getattr(by_name[m], spec.attr, None))),
                      None)
            if fn is None:
                self.absent.append(spec.name)
                continue
            wrapper = self._wrap(spec, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()
        return False


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sample (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def op_totals(spans: list[Span]) -> dict:
    """Per-span totals for one operation: calls, inclusive and self seconds, counts."""
    out: dict = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += s.self_s
        for key, val in s.counts.items():
            row["counts"][key] = row["counts"].get(key, 0) + val
    return out


def exact_counts(totals: dict) -> dict:
    """The quantities that must repeat exactly between operations of one kind.

    Byte and step counts are integers; flop counts are summed floats, rounded
    so that a different summation order between threads does not show.
    """
    out = {}
    for name, row in sorted(totals.items()):
        out[f"{name}.calls"] = row["calls"]
        for key, val in sorted(row["counts"].items()):
            out[f"{name}.{key}"] = round(val, 6) if isinstance(val, float) else val
    return out


def member_times(spans: list[Span]) -> dict:
    """Seconds each suite member spent in simulate plus audit, by member name."""
    out: dict = {}
    for s in spans:
        if s.member is not None:
            out[s.member] = out.get(s.member, 0.0) + s.duration
    return out


def worker_busy_frac(spans: list[Span], workers: int) -> float:
    """Held-out member time over workers x the parallel phase's wall time.

    The first member to start is the calibration member, which runs alone;
    the parallel phase runs from its end to the end of the last member.
    """
    members = [s for s in spans if s.member is not None]
    if not members:
        return 0.0
    first = min(members, key=lambda s: s.start).member
    cal_end = max(s.end for s in members if s.member == first)
    rest = [s for s in members if s.member != first]
    if not rest:
        return 0.0
    phase = max(s.end for s in rest) - cal_end
    return sum(s.duration for s in rest) / (workers * phase) if phase > 0 else 0.0


def median(values):
    return statistics.median(values) if values else 0.0
