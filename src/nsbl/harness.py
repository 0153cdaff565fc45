"""Batch orchestration: scenarios, manifests, audit reports, and suites.

All on-disk formats are versioned JSON written with sorted keys, so byte
identity follows from value identity; wall-clock timestamps live only in
manifests.  Checkpoints use the binary format from :mod:`nsbl.checkpoint`
and are referenced by content hash.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import math
import numbers
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .audit import AuditReport, AuditSpec, constant_key, run_audit
from .checkpoint import CorruptCheckpoint, read_band, write_band
from .ledger import ExponentParams, constraint_suite, diagnostics, parse_exact
from .solver import Instability, SolverConfig, Trajectory, make_initial, run
from .spectral import TorusGrid, over_snapshots

__all__ = [
    "InfeasibleLedger",
    "BadScenario",
    "UnknownKey",
    "Scenario",
    "canonical_json",
    "scenario_hash",
    "certificate_dict",
    "simulate",
    "load_manifest",
    "trajectory_from_manifest",
    "audit_manifest",
    "run_suite",
    "DEFAULT_LEDGER",
]

MANIFEST_NAME = "manifest.json"
CERTIFICATE_NAME = "certificate-N{}.json"

# default certified tuple for audits (N=3); spelled as strings so scenario
# files round-trip exactly
DEFAULT_LEDGER = {
    "N": 3, "q": "10", "B": "10", "K": "6/5", "delta": "1/2",
    "j": "4", "r": "12", "sigma": "0", "delta0": "0",
}


class InfeasibleLedger(Exception):
    """The scenario's exponent tuple fails its constraint certificate."""

    def __init__(self, failures):
        super().__init__(f"infeasible exponent tuple; failing constraints: {failures}")
        self.failures = failures


class BadScenario(ValueError):
    """A scenario, suite or manifest object, or an audit override, that does not parse."""


class UnknownKey(BadScenario):
    """A key the format does not have, e.g. a misspelled one."""

    def __init__(self, key: str):
        super().__init__(f"unknown key {key!r}")
        self.key = key


# the parsers of FORMATS: each takes a value and its key's name, and returns
# the value once it is known to be well formed


def _integer(value, name: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadScenario(f"{name} must be an integer, got {value!r}")
    return int(value)


def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise BadScenario(f"{name} must be true or false, got {value!r}")
    return value


def _number(value, name: str) -> float:
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and math.isfinite(value))
    except OverflowError:  # an integer beyond float64
        ok = False
    if not ok:
        raise BadScenario(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise BadScenario(f"{name} must be a string, got {value!r}")
    return value


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise BadScenario(f"{name} must be an object, got {type(value).__name__}")
    return value


def _exponents(value, name: str) -> tuple:
    """Distinct finite numbers: each exponent gets one record, and the power table one entry."""
    if not isinstance(value, (list, tuple)):
        raise BadScenario(f"{name} must be a list of numbers, got {value!r}")
    xs = tuple(_number(x, name) for x in value)
    if not xs:
        raise BadScenario(f"{name} must be a non-empty list")
    for i, x in enumerate(xs):
        if x in xs[:i]:
            raise BadScenario(f"{name} repeats {x!r}")
    return xs


def _n_max(value, name: str) -> int:
    """The ladder's levels k - k / 2^(n+1) need 2^(n_max+1) inside float64."""
    n_max = _integer(value, name)
    if not 0 <= n_max <= 1022:
        raise BadScenario(f"{name} must be in [0, 1022], got {n_max}")
    return n_max


def _component(value, name: str) -> str:
    """A name joined to a directory (a run's name to the output root, a
    checkpoint's path to the run directory): one component, inside it."""
    value = _string(value, name)
    if value in ("", ".", "..") or any(c in value for c in "/\\\0"):
        raise BadScenario(f"{name} must be one path component, got {value!r}")
    return value


def _sha256(value, name: str) -> str:
    if not re.fullmatch("[0-9a-f]{64}", _string(value, name)):
        raise BadScenario(f"{name} must be 64 hex digits, got {value!r}")
    return value


def _checkpoints(value, name: str) -> list:
    if not isinstance(value, list):
        raise BadScenario(f"{name} must be a list, got {type(value).__name__}")
    return [_parse(entry, "checkpoint", f"{name}[{i}]") for i, entry in enumerate(value)]


def _members(value, name: str) -> list:
    """A suite's members, which ``run_suite`` parses."""
    if not isinstance(value, list) or not value:
        raise BadScenario(f"{name} must be a non-empty list, got {value!r}")
    return value


# every key of every object of the nsbl-scenario/1, nsbl-suite/1 and
# nsbl-manifest/1 formats, and the parser of its value
FORMATS = {
    "scenario": {
        "name": _component,
        "grid": lambda value, name: _parse(value, "grid", name),
        "solver": lambda value, name: SolverConfig(**_parse(value, "solver", name)),
        "initial": lambda value, name: _parse(value, "initial", name),
        "audit": lambda value, name: AuditSpec(**_parse(value, "audit", name)),
        "ledger": lambda value, name: _parse(value, "ledger", name),
    },
    "grid": {"npts": _integer, "length": _number},
    "solver": {"viscosity": _number, "dt": _number, "t_final": _number,
               "snapshot_stride": _integer},
    "initial": {"kind": _string, "seed": _integer, "amplitude": _number, "kmax": _integer},
    "audit": {
        "r": lambda value, name: None if value is None else _number(value, name),
        "s_values": _exponents,
        "ell_values": lambda value, name: None if value is None else _exponents(value, name),
        "n_max": _n_max,
        "calibration": _flag,
    },
    # kept as written, so files round-trip; exponent_params parses them exactly
    "ledger": dict.fromkeys(DEFAULT_LEDGER, lambda value, name: value),
    "suite": {
        "name": _string,
        "calibration": lambda value, name: None if value is None else _string(value, name),
        "scenarios": _members,
    },
    "manifest": {
        "scenario": _object,
        "scenario_hash": _sha256,
        "checkpoints": _checkpoints,
        "instability": lambda value, name: (
            None if value is None else _parse(value, "instability", name)),
        "wall_clock_s": _number,
        "version": _string,
    },
    "instability": {"time": _number, "message": _string},
    "checkpoint": {"path": _component, "t": _number, "sha256": _sha256, "dissipation": _number},
}
# keys with one allowed value each: runs keep the 2/3-rule band and step by
# RK4, an audit's q is the ledger's, and a file names its format.  to_dict
# writes them, so scenario bytes and scenario_hash stay those of the files
# that still carry them.
FIXED = {"scenario": {"format": "nsbl-scenario/1"}, "suite": {"format": "nsbl-suite/1"},
         "manifest": {"format": "nsbl-manifest/1"},
         "solver": {"dealias": True, "scheme": "rk4"}, "audit": {"q": None}}
# the keys an object may not leave out; any other key it leaves out takes
# its default from the one place that owns it: the Scenario, SolverConfig
# and AuditSpec fields, DEFAULT_LEDGER, or make_initial's signature
REQUIRED = {"scenario": ("name",), "initial": ("kind",), "suite": ("format", "scenarios"),
            "manifest": ("format", "scenario", "checkpoints", "instability"),
            "instability": ("time",), "checkpoint": ("path", "t", "sha256", "dissipation")}


def _parse(d, section: str, where: str) -> dict:
    """The keys ``d`` holds, each value parsed by its FORMATS entry, once
    ``d`` is known to be a ``section`` object.  An unknown key raises
    UnknownKey("<where>.<key>"); a FIXED key is held to its one value and
    left out."""
    if not isinstance(d, dict):
        raise BadScenario(f"{where or section} must be an object, got {type(d).__name__}")
    prefix = f"{where}." if where else ""
    parsers, fixed = FORMATS[section], FIXED.get(section, {})
    for key in d:
        if key not in parsers and key not in fixed:
            raise UnknownKey(prefix + key)
    for key in REQUIRED.get(section, ()):
        if key not in d:
            raise BadScenario(f"missing key {prefix + key!r}")
    for key, value in fixed.items():
        got = d.get(key, value)
        if type(got) is not type(value) or got != value:
            raise BadScenario(f"{prefix + key} must be {json.dumps(value)}, got {got!r}")
    return {key: parse(d[key], prefix + key) for key, parse in parsers.items() if key in d}


def canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode()


@dataclass
class Scenario:
    name: str
    grid_npts: int = 32
    grid_length: float = float(2 * np.pi)
    solver: SolverConfig = field(default_factory=SolverConfig)
    initial: dict = field(default_factory=lambda: {"kind": "beltrami"})
    audit: AuditSpec = field(default_factory=AuditSpec)
    ledger: dict = field(default_factory=lambda: dict(DEFAULT_LEDGER))

    def grid(self) -> TorusGrid:
        return TorusGrid(self.grid_npts, self.grid_length)

    def exponent_params(self) -> ExponentParams:
        d = {**DEFAULT_LEDGER, **(self.ledger or {})}
        return ExponentParams.derive(**{
            key: parse_exact(f"ledger.{key}", value, integer=key == "N")
            for key, value in d.items()})

    def to_dict(self) -> dict:
        return {
            **FIXED["scenario"],
            "name": self.name,
            "grid": {"npts": self.grid_npts, "length": self.grid_length},
            "solver": {**asdict(self.solver), **FIXED["solver"]},
            "initial": dict(self.initial),
            "audit": {**asdict(self.audit), **FIXED["audit"]},
            "ledger": dict(self.ledger),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Parse an nsbl-scenario/1 object; every unknown key raises UnknownKey."""
        parsed = _parse(d, "scenario", "")
        grid = parsed.pop("grid", {})
        return cls(**parsed, **{f"grid_{key}": value for key, value in grid.items()})

    @classmethod
    def load(cls, path) -> "Scenario":
        return cls.from_dict(json.loads(Path(path).read_text()))


def scenario_hash(scenario: Scenario) -> str:
    return hashlib.sha256(canonical_json(scenario.to_dict())).hexdigest()


# ---------------------------------------------------------------------------
# exponent certificates
# ---------------------------------------------------------------------------


def certificate_dict(params: Optional[ExponentParams], note: str = "",
                     exhausted: str = "") -> dict:
    """The nsbl-certificate/1 object of ``params``; with ``params`` None, that
    of a lattice search that found no tuple, ``exhausted`` saying why."""
    if params is None:
        body = {"params": None, "feasible": False, "reports": [], "diagnostics": [],
                "search_exhausted": exhausted}
    else:
        reports = constraint_suite(params)
        body = {"params": params.as_dict(), "feasible": all(r.satisfied for r in reports),
                "reports": [r.as_dict() for r in reports],
                "diagnostics": [r.as_dict() for r in diagnostics(params)]}
    return {"format": "nsbl-certificate/1", **body, "note": note}


def gate_params(params: ExponentParams) -> None:
    reports = constraint_suite(params)
    failures = [r.constraint_id for r in reports if not r.satisfied]
    if failures:
        raise InfeasibleLedger(failures)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def simulate(scenario: Scenario, out_root) -> tuple[Path, dict]:
    """Run one scenario to checkpoints plus a manifest; returns the manifest's
    path and the manifest it holds.

    The exponent certificate is checked before any stepping starts.  A
    discrete blow-up is recorded in the manifest (with the failing time)
    rather than raised.
    """
    gate_params(scenario.exponent_params())
    # a scenario refused here leaves no run directory behind
    grid = scenario.grid()
    v0 = make_initial(grid=grid, **scenario.initial)
    scenario.solver.validate(grid)
    out_dir = Path(out_root) / scenario.name
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    instability = None
    checkpoints = []
    try:
        traj = run(v0, scenario.solver)
    except Instability as exc:
        instability = {"time": exc.time, "message": str(exc)}
    else:
        for i in range(len(traj)):
            name = f"checkpoint_{i:04d}.nsbl"
            sha = write_band(out_dir / name, grid, traj.coeffs[i], traj.times[i])
            checkpoints.append({
                "path": name,
                "t": traj.times[i],
                "sha256": sha,
                "dissipation": traj.dissipation[i],
            })
    manifest = {
        "format": "nsbl-manifest/1",
        "scenario": scenario.to_dict(),
        "scenario_hash": scenario_hash(scenario),
        "checkpoints": checkpoints,
        "instability": instability,
        "wall_clock_s": time.monotonic() - t0,
        "version": __version__,
    }
    (out_dir / MANIFEST_NAME).write_bytes(canonical_json(manifest))
    return out_dir / MANIFEST_NAME, manifest


def load_manifest(path) -> dict:
    """The manifest at ``path``, once its keys and checkpoint entries are
    known to be well formed and a stable run is known to have checkpoints;
    a malformed one raises CorruptCheckpoint."""
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"{path}: malformed manifest: not UTF-8 JSON: {exc}") from exc
    try:
        parsed = _parse(d, "manifest", "")
        if parsed["instability"] is None and not parsed["checkpoints"]:
            raise BadScenario("checkpoints of a stable run must be a non-empty list")
    except BadScenario as exc:
        raise CorruptCheckpoint(f"{path}: malformed manifest: {exc}") from exc
    return d


def trajectory_from_manifest(manifest: dict, base_dir, scenario: Scenario) -> Trajectory:
    """Rebuild the trajectory of ``scenario``, the manifest's parsed scenario,
    verifying every checkpoint hash and band.

    The manifest's times must increase strictly.  Each file's band is read
    as stored into the scenario's grid, and its time must be the
    manifest's; the reads are shared out with ``over_snapshots``, and the
    first bad file in manifest order is the one reported.
    """
    base = Path(base_dir)
    grid = scenario.grid()
    entries = manifest["checkpoints"]
    # the time weights need snapshots in time order
    for i in range(1, len(entries)):
        t, before = entries[i]["t"], entries[i - 1]["t"]
        if not t > before:
            raise CorruptCheckpoint(f"{base / entries[i]['path']}: checkpoints[{i}].t = {t!r} "
                                    f"is not above checkpoints[{i - 1}].t = {before!r}")

    def read(i):
        path, t = base / entries[i]["path"], entries[i]["t"]
        stored, coeff = read_band(path, grid, expect_sha=entries[i]["sha256"])
        # both times are written from the same float
        if stored != t:
            raise CorruptCheckpoint(f"{path}: time {stored!r} is not the manifest's {t!r}")
        return coeff

    coeffs = over_snapshots(read, len(entries))
    return Trajectory(grid, scenario.solver, [e["t"] for e in entries], coeffs,
                      [e["dissipation"] for e in entries])


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def write_report(report: AuditReport, out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    json_path = out_dir / "report.json"
    csv_path = out_dir / "report.csv"
    json_path.write_bytes(canonical_json(report.as_dict()))
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "lhs", "rhs", "c", "margin"])
        writer.writerows([c.check_id, repr(float(c.lhs)), repr(float(c.rhs)),
                          repr(float(c.fitted_constant)), repr(float(c.margin))]
                         for c in report.checks)
    return json_path, csv_path


def audit_manifest(
    manifest_path,
    overrides: Optional[dict] = None,
    constants: Optional[dict] = None,
) -> tuple[AuditReport, Path, Path]:
    """Audit a finished run; reports land next to the manifest."""
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    if manifest["instability"]:
        raise Instability(manifest["instability"]["time"], "run was unstable; nothing to audit")
    scenario = Scenario.from_dict(manifest["scenario"])
    spec = scenario.audit
    if overrides:
        # an override replaces its key of the scenario's audit section
        spec = AuditSpec(**_parse({**scenario.to_dict()["audit"], **overrides}, "audit", "audit"))
    params = scenario.exponent_params()
    traj = trajectory_from_manifest(manifest, manifest_path.parent, scenario)
    report = run_audit(traj, params, spec, constants=constants, run_id=scenario.name)
    json_path, csv_path = write_report(report, manifest_path.parent)
    _release_freed_memory()
    return report, json_path, csv_path


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def load_suite(path) -> dict:
    """The nsbl-suite/1 object at ``path``, once its top level is known to be
    well formed; anything else raises BadScenario.  Members are parsed by
    ``run_suite``."""
    d = json.loads(Path(path).read_text())
    _parse(d, "suite", "suite")
    return d


try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # not glibc
    _MALLOC_TRIM = None


def _release_freed_memory() -> None:
    """Hand the pages of freed heap chunks back to the OS (glibc only), so
    what one simulation or audit freed does not stay resident while the next
    runs."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _run_member(scenario: Scenario, out_root, constants):
    manifest_path, manifest = simulate(scenario, out_root)
    _release_freed_memory()
    if manifest["instability"]:
        return {"name": scenario.name, "instability": manifest["instability"]}
    report, _, _ = audit_manifest(manifest_path, constants=constants)
    return {"name": scenario.name, "report": report}


def run_suite(suite: dict, out_root, workers: int = 1) -> dict:
    """Run every member scenario, calibrating constants on the designated one.

    Member failures are collected, not fatal.  The aggregate table carries
    per-check margin statistics, fitted-constant stability, per-resolution
    drift, and the falsification list.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    scenarios = [Scenario.from_dict(d) for d in suite["scenarios"]]
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("duplicate scenario names in suite")
    cal_name = suite.get("calibration") or names[0]
    if cal_name not in names:
        raise ValueError(f"calibration scenario {cal_name!r} not in suite")
    # ledger gate for every member before any solve starts, and before the
    # output root is made
    for s in scenarios:
        gate_params(s.exponent_params())
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)

    cal_scenario = next(s for s in scenarios if s.name == cal_name)
    cal_scenario.audit.calibration = True
    results, errors, constants = [], [], None
    try:
        cal_result = _run_member(cal_scenario, out_root, None)
    except Exception as exc:  # calibration failure poisons nothing else
        errors.append({"name": cal_name, "error": f"{type(exc).__name__}: {exc}"})
    else:
        # a calibration member that blew up is listed with the instabilities
        results.append(cal_result)
        if "report" in cal_result:
            constants = {
                k: v for k, v in cal_result["report"].constants.items()
                if not k.endswith("_self_calibrated")
            }

    rest = [s for s in scenarios if s.name != cal_name]

    def job(s):
        try:
            return _run_member(s, out_root, constants)
        except Exception as exc:
            return {"name": s.name, "error": f"{type(exc).__name__}: {exc}"}

    if workers > 1 and len(rest) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(job, rest))
    else:
        outcomes = [job(s) for s in rest]
    for out in outcomes:
        if "error" in out:
            errors.append(out)
        else:
            results.append(out)

    aggregate = _aggregate(results, errors, cal_name, constants or {})
    (out_root / "aggregate.json").write_bytes(canonical_json(aggregate))
    with (out_root / "aggregate.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "min_margin", "median_margin", "max_margin", "runs",
                         "falsifications"])
        for cid, row in sorted(aggregate["per_check"].items()):
            writer.writerow([cid, row["min_margin"], row["median_margin"],
                             row["max_margin"], row["runs"], row["falsifications"]])
    return aggregate


def _aggregate(results, errors, cal_name, calibrated: dict) -> dict:
    """The suite's table; ``calibrated`` holds the constants the members took."""
    per_check: dict = {}
    constants: dict = {}
    per_resolution: dict = {}
    falsifications = []
    instabilities = []
    for res in results:
        if "instability" in res:
            instabilities.append({"name": res["name"], **res["instability"]})
            continue
        report: AuditReport = res["report"]
        npts = report.environment["grid_npts"]
        for c in report.checks:
            row = per_check.setdefault(
                c.check_id, {"margins": [], "falsifications": 0}
            )
            row["margins"].append(c.margin)
            if not c.passed:
                row["falsifications"] += 1
                falsifications.append({"run": res["name"], "check": c.check_id})
            # stability is judged on each run's own fitted constant
            key = constant_key(c.check_id)
            if key is not None:
                constants.setdefault(key, {}).setdefault("values", []).append(
                    float(c.fitted_constant)
                )
                per_resolution.setdefault(str(npts), {}).setdefault(key, []).append(
                    float(c.fitted_constant)
                )

    for cid, row in per_check.items():
        m = np.asarray(row.pop("margins"))
        row["min_margin"] = float(m.min())
        row["median_margin"] = float(np.median(m))
        row["max_margin"] = float(m.max())
        row["runs"] = int(m.size)

    for key, row in constants.items():
        vals = np.asarray(row["values"])
        med = float(np.median(vals))
        row["median"] = med
        row["max_rel_deviation"] = (
            float(np.max(np.abs(vals - med)) / abs(med)) if med else 0.0
        )

    drift = {}
    resolutions = sorted(per_resolution, key=int)
    if len(resolutions) > 1:
        for key in constants:
            # only the resolutions where some member has this constant
            per_res_med = {res: float(np.median(per_resolution[res][key]))
                           for res in resolutions if key in per_resolution[res]}
            base_val = next(iter(per_res_med.values()))
            drift[key] = {
                "per_resolution_median": per_res_med,
                "max_rel_drift": float(
                    max(abs(med - base_val) / abs(base_val) for med in per_res_med.values())
                ) if base_val else 0.0,
            }

    return {
        "format": "nsbl-aggregate/1",
        "calibration_run": cal_name,
        "calibrated_constants": {k: float(v) for k, v in calibrated.items()},
        "runs_completed": len(results),
        "per_check": per_check,
        "constants": constants,
        "per_resolution_drift": drift,
        "falsifications": falsifications,
        "instabilities": instabilities,
        "errors": errors,
    }
