"""Batch orchestration: scenarios, manifests, audit reports, and suites.

All on-disk formats are versioned JSON written with sorted keys, so byte
identity follows from value identity; wall-clock timestamps live only in
manifests.  Checkpoints use the binary format from :mod:`nsbl.checkpoint`
and are referenced by content hash.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .audit import AuditReport, AuditSpec, run_audit
from .checkpoint import CorruptCheckpoint, read_checkpoint, write_checkpoint
from .ledger import ExponentParams, constraint_suite, diagnostics, parse_exact
from .solver import Instability, SolverConfig, Trajectory, make_initial, run
from .spectral import TorusGrid

__all__ = [
    "InfeasibleLedger",
    "BadScenario",
    "UnknownKey",
    "Scenario",
    "canonical_json",
    "scenario_hash",
    "certificate_dict",
    "write_certificate",
    "simulate",
    "load_manifest",
    "trajectory_from_manifest",
    "audit_manifest",
    "run_suite",
    "DEFAULT_LEDGER",
]

MANIFEST_NAME = "manifest.json"
# the keys ``simulate`` writes, and of those the ones the audit reads
MANIFEST_KEYS = ("format", "scenario", "scenario_hash", "checkpoints", "instability",
                 "wall_clock_s", "version")
REQUIRED_MANIFEST_KEYS = ("format", "scenario", "checkpoints", "instability")

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
    """A scenario file or an audit override that does not parse."""


class UnknownKey(BadScenario):
    """A key the scenario format does not have, e.g. a misspelled one."""

    def __init__(self, key: str):
        super().__init__(f"unknown key {key!r}")
        self.key = key


# the keys of each level of the nsbl-scenario/1 format
SCENARIO_KEYS = ("format", "name", "grid", "solver", "initial", "audit", "ledger")
GRID_KEYS = ("npts", "length")
SOLVER_KEYS = ("viscosity", "dt", "t_final", "snapshot_stride", "dealias", "scheme")
INITIAL_KEYS = ("kind", "seed", "amplitude", "kmax")
AUDIT_KEYS = ("r", "q", "s_values", "ell_values", "n_max", "calibration")
SUITE_KEYS = ("format", "name", "calibration", "scenarios")


def _section(d: dict, allowed, where: str) -> dict:
    """``d`` itself once it is known to be an object holding only ``allowed`` keys."""
    if not isinstance(d, dict):
        raise BadScenario(f"{where or 'scenario'} must be an object, got {type(d).__name__}")
    for key in d:
        if key not in allowed:
            raise UnknownKey(f"{where}.{key}" if where else key)
    return d


def _integer(d: dict, key: str, default: int, where: str) -> int:
    """``d[key]`` (else ``default``) once it is known to be an integral number."""
    value = d.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadScenario(f"{where}.{key} must be an integer, got {value!r}")
    return int(value)


def _flag(d: dict, key: str, default: bool, where: str) -> bool:
    """``d[key]`` (else ``default``) once it is known to be a JSON boolean."""
    value = d.get(key, default)
    if not isinstance(value, bool):
        raise BadScenario(f"{where}.{key} must be true or false, got {value!r}")
    return value


def _number(d: dict, key: str, default: float, where: str) -> float:
    """``d[key]`` (else ``default``) once it is known to be a finite number."""
    value = d.get(key, default)
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and math.isfinite(value))
    except OverflowError:  # an integer beyond float64
        ok = False
    if not ok:
        raise BadScenario(f"{where}.{key} must be a finite number, got {value!r}")
    return float(value)


def _optional_number(d: dict, key: str, where: str) -> float | None:
    return None if d.get(key) is None else _number(d, key, None, where)


def _numbers(d: dict, key: str, default, where: str) -> tuple:
    """``d[key]`` (else ``default``) once it is known to be a list of finite numbers."""
    value = d.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise BadScenario(f"{where}.{key} must be a list of numbers, got {value!r}")
    return tuple(_number({key: x}, key, None, where) for x in value)


def _string(d: dict, key: str, default: str, where: str) -> str:
    """``d[key]`` (else ``default``) once it is known to be a JSON string."""
    value = d.get(key, default)
    if not isinstance(value, str):
        raise BadScenario(f"{where}.{key} must be a string, got {value!r}")
    return value


def _audit_spec(d: dict) -> AuditSpec:
    """The audit section of a scenario, or a scenario's section with CLI overrides."""
    a = _section(d, AUDIT_KEYS, "audit")
    ells = None if a.get("ell_values") is None else _numbers(a, "ell_values", None, "audit")
    if ells == ():
        raise BadScenario("audit.ell_values must be null or a non-empty list")
    n_max = _integer(a, "n_max", 40, "audit")
    # the ladder's levels k - k / 2^(n+1) need 2^(n_max+1) inside float64
    if not 0 <= n_max <= 1022:
        raise BadScenario(f"audit.n_max must be in [0, 1022], got {n_max}")
    return AuditSpec(
        r=_optional_number(a, "r", "audit"),
        q=_optional_number(a, "q", "audit"),
        s_values=_numbers(a, "s_values", (2.0, 3.0), "audit"),
        ell_values=ells,
        n_max=n_max,
        calibration=_flag(a, "calibration", False, "audit"),
    )


def canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode()


@dataclass
class Scenario:
    name: str
    grid_npts: int = 32
    grid_length: float = float(2 * np.pi)
    solver: SolverConfig = field(default_factory=SolverConfig)
    initial: dict = field(default_factory=lambda: {"kind": "beltrami", "seed": 0,
                                                   "amplitude": 1.0, "kmax": 8})
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
            "format": "nsbl-scenario/1",
            "name": self.name,
            "grid": {"npts": self.grid_npts, "length": self.grid_length},
            "solver": {
                "viscosity": self.solver.viscosity,
                "dt": self.solver.dt,
                "t_final": self.solver.t_final,
                "snapshot_stride": self.solver.snapshot_stride,
                # runs keep the 2/3-rule band only; the key stays so the
                # nsbl-scenario/1 bytes and scenario_hash do not change
                "dealias": True,
                "scheme": self.solver.scheme,
            },
            "initial": dict(self.initial),
            "audit": {
                "r": self.audit.r,
                "q": self.audit.q,
                "s_values": list(self.audit.s_values),
                "ell_values": None if self.audit.ell_values is None
                else list(self.audit.ell_values),
                "n_max": self.audit.n_max,
                "calibration": self.audit.calibration,
            },
            "ledger": dict(self.ledger),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Parse an nsbl-scenario/1 object; every unknown key raises UnknownKey."""
        _section(d, SCENARIO_KEYS, "")
        if d.get("format", "nsbl-scenario/1") != "nsbl-scenario/1":
            raise BadScenario(f"unknown scenario format {d.get('format')!r}")
        g = _section(d.get("grid", {}), GRID_KEYS, "grid")
        s = _section(d.get("solver", {}), SOLVER_KEYS, "solver")
        if s.get("dealias", True) is not True:
            raise BadScenario(f"solver.dealias must be true (runs keep the 2/3-rule band), "
                              f"got {s['dealias']!r}")
        initial = dict(_section(d.get("initial", {"kind": "beltrami"}), INITIAL_KEYS, "initial"))
        for key in ("seed", "kmax"):
            if key in initial:
                initial[key] = _integer(initial, key, None, "initial")
        if "kind" in initial:
            initial["kind"] = _string(initial, "kind", None, "initial")
        if "amplitude" in initial:
            initial["amplitude"] = _number(initial, "amplitude", None, "initial")
        ledger = _section(d.get("ledger", DEFAULT_LEDGER), tuple(DEFAULT_LEDGER), "ledger")
        name = _string(d, "name", None, "scenario")
        # the run directory is out_root / name: one component, inside out_root
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise BadScenario(f"scenario.name must be one path component, got {name!r}")
        return cls(
            name=name,
            grid_npts=_integer(g, "npts", 32, "grid"),
            grid_length=_number(g, "length", 2 * np.pi, "grid"),
            solver=SolverConfig(
                viscosity=_number(s, "viscosity", 1.0, "solver"),
                dt=_number(s, "dt", 1e-3, "solver"),
                t_final=_number(s, "t_final", 0.5, "solver"),
                snapshot_stride=_integer(s, "snapshot_stride", 10, "solver"),
                scheme=_string(s, "scheme", "rk4", "solver"),
            ),
            initial=initial,
            audit=_audit_spec(d.get("audit", {})),
            ledger=dict(ledger),
        )

    @classmethod
    def load(cls, path) -> "Scenario":
        return cls.from_dict(json.loads(Path(path).read_text()))


def scenario_hash(scenario: Scenario) -> str:
    return hashlib.sha256(canonical_json(scenario.to_dict())).hexdigest()


# ---------------------------------------------------------------------------
# exponent certificates
# ---------------------------------------------------------------------------


def certificate_dict(params: ExponentParams, note: str = "") -> dict:
    reports = constraint_suite(params)
    diag = diagnostics(params)
    return {
        "format": "nsbl-certificate/1",
        "params": params.as_dict(),
        "feasible": all(r.satisfied for r in reports),
        "reports": [r.as_dict() for r in reports],
        "diagnostics": [r.as_dict() for r in diag],
        "note": note,
    }


def write_certificate(path, cert: dict) -> None:
    Path(path).write_bytes(canonical_json(cert))


def gate_params(params: ExponentParams) -> None:
    reports = constraint_suite(params)
    failures = [r.constraint_id for r in reports if not r.satisfied]
    if failures:
        raise InfeasibleLedger(failures)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def simulate(scenario: Scenario, out_root) -> Path:
    """Run one scenario to checkpoints plus a manifest; returns the manifest path.

    The exponent certificate is checked before any stepping starts.  A
    discrete blow-up is recorded in the manifest (with the failing time)
    rather than raised.
    """
    gate_params(scenario.exponent_params())
    out_dir = Path(out_root) / scenario.name
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = scenario.grid()
    init = dict(scenario.initial)
    v0 = make_initial(
        init.get("kind", "beltrami"), grid, seed=int(init.get("seed", 0)),
        amplitude=float(init.get("amplitude", 1.0)), kmax=int(init.get("kmax", 8)),
    )
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
            sha = write_checkpoint(out_dir / name, traj.velocity(i))
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
    return out_dir / MANIFEST_NAME


def load_manifest(path) -> dict:
    """The manifest at ``path``, once its keys and checkpoint entries are
    known to be well formed; a malformed one raises CorruptCheckpoint."""
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"{path}: malformed manifest: not UTF-8 JSON: {exc}") from exc
    try:
        _check_manifest(d)
    except BadScenario as exc:
        raise CorruptCheckpoint(f"{path}: malformed manifest: {exc}") from exc
    if d["format"] != "nsbl-manifest/1":
        raise ValueError(f"unknown manifest format {d['format']!r}")
    return d


def _check_manifest(d) -> None:
    if not isinstance(d, dict):
        raise BadScenario(f"manifest must be an object, got {type(d).__name__}")
    unknown = [key for key in d if key not in MANIFEST_KEYS]
    if unknown:
        raise BadScenario(f"unknown manifest key {unknown[0]!r}")
    missing = [key for key in REQUIRED_MANIFEST_KEYS if key not in d]
    if missing:
        raise BadScenario(f"manifest lacks {', '.join(missing)}")
    if d["instability"] is not None:
        _number(_section(d["instability"], ("time", "message"), "instability"),
                "time", None, "instability")
    if not isinstance(d["checkpoints"], list):
        raise BadScenario(f"checkpoints must be a list, got {type(d['checkpoints']).__name__}")
    for i, entry in enumerate(d["checkpoints"]):
        where = f"checkpoints[{i}]"
        if not isinstance(entry, dict):
            raise BadScenario(f"{where} must be an object, got {type(entry).__name__}")
        _string(entry, "path", None, where)
        _number(entry, "t", None, where)
        _number(entry, "dissipation", None, where)
        if not re.fullmatch("[0-9a-f]{64}", _string(entry, "sha256", None, where)):
            raise BadScenario(f"{where}.sha256 must be 64 hex digits, got {entry['sha256']!r}")


def trajectory_from_manifest(manifest: dict, base_dir) -> Trajectory:
    """Rebuild the trajectory, verifying every checkpoint hash and band."""
    base = Path(base_dir)
    scenario = Scenario.from_dict(manifest["scenario"])
    grid = scenario.grid()
    band = grid.band
    times, coeffs, dissipation = [], [], []
    for entry in manifest["checkpoints"]:
        v = read_checkpoint(base / entry["path"], expect_sha=entry["sha256"])
        if not v.grid.compatible(grid):
            raise CorruptCheckpoint(f"{entry['path']}: grid mismatch with scenario")
        times.append(entry["t"])
        coeffs.append(band.compact(v.coeff))
        dissipation.append(entry["dissipation"])
    return Trajectory(grid, scenario.solver, times, coeffs, dissipation)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def report_csv_rows(report: AuditReport):
    for c in report.checks:
        yield [c.check_id, repr(float(c.lhs)), repr(float(c.rhs)),
               repr(float(c.fitted_constant)), repr(float(c.margin))]


def write_report(report: AuditReport, out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    json_path = out_dir / "report.json"
    csv_path = out_dir / "report.csv"
    json_path.write_bytes(canonical_json(report.as_dict()))
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "lhs", "rhs", "c", "margin"])
        writer.writerows(report_csv_rows(report))
    return json_path, csv_path


def audit_manifest(
    manifest_path,
    overrides: Optional[dict] = None,
    constants: Optional[dict] = None,
) -> tuple[AuditReport, Path, Path]:
    """Audit a finished run; reports land next to the manifest."""
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    if manifest.get("instability"):
        raise Instability(manifest["instability"]["time"], "run was unstable; nothing to audit")
    scenario = Scenario.from_dict(manifest["scenario"])
    spec = scenario.audit
    if overrides:
        # an override replaces its key of the scenario's audit section
        spec = _audit_spec({**scenario.to_dict()["audit"], **overrides})
    params = scenario.exponent_params()
    traj = trajectory_from_manifest(manifest, manifest_path.parent)
    report = run_audit(traj, params, spec, constants=constants, run_id=scenario.name)
    json_path, csv_path = write_report(report, manifest_path.parent)
    return report, json_path, csv_path


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def load_suite(path) -> dict:
    """The nsbl-suite/1 object at ``path``, once its top level is known to be
    well formed; anything else raises BadScenario.  Members are parsed by
    ``run_suite``."""
    d = _section(json.loads(Path(path).read_text()), SUITE_KEYS, "suite")
    if d.get("format") != "nsbl-suite/1":
        raise BadScenario(f"unknown suite format {d.get('format')!r}")
    _string(d, "name", "", "suite")
    if d.get("calibration") is not None:
        _string(d, "calibration", None, "suite")
    if not isinstance(d.get("scenarios"), list) or not d["scenarios"]:
        raise BadScenario(f"suite.scenarios must be a non-empty list, got {d.get('scenarios')!r}")
    return d


def _run_member(scenario: Scenario, out_root, constants):
    manifest_path = simulate(scenario, out_root)
    manifest = load_manifest(manifest_path)
    if manifest.get("instability"):
        return {"name": scenario.name, "instability": manifest["instability"]}
    report, _, _ = audit_manifest(manifest_path, constants=constants)
    return {"name": scenario.name, "report": report}


def run_suite(suite: dict, out_root, workers: int = 1) -> dict:
    """Run every member scenario, calibrating constants on the designated one.

    Member failures are collected, not fatal.  The aggregate table carries
    per-check margin statistics, fitted-constant stability, per-resolution
    drift, and the falsification list.
    """
    scenarios = [Scenario.from_dict(d) for d in suite["scenarios"]]
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("duplicate scenario names in suite")
    cal_name = suite.get("calibration") or names[0]
    if cal_name not in names:
        raise ValueError(f"calibration scenario {cal_name!r} not in suite")
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)

    # ledger gate for every member before any solve starts
    for s in scenarios:
        gate_params(s.exponent_params())

    cal_scenario = next(s for s in scenarios if s.name == cal_name)
    cal_scenario.audit.calibration = True
    results, errors = [], []
    try:
        cal_result = _run_member(cal_scenario, out_root, None)
    except Exception as exc:  # calibration failure poisons nothing else
        errors.append({"name": cal_name, "error": f"{type(exc).__name__}: {exc}"})
        cal_result = None
    constants = None
    if cal_result and "report" in cal_result:
        results.append(cal_result)
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

    aggregate = _aggregate(results, errors, cal_name)
    (out_root / "aggregate.json").write_bytes(canonical_json(aggregate))
    with (out_root / "aggregate.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "min_margin", "median_margin", "max_margin", "runs",
                         "falsifications"])
        for cid, row in sorted(aggregate["per_check"].items()):
            writer.writerow([cid, row["min_margin"], row["median_margin"],
                             row["max_margin"], row["runs"], row["falsifications"]])
    return aggregate


def _constant_key(check_id: str):
    """Registry name for checks whose fitted value is a genuine constant."""
    if check_id == "energy":
        return "c_energy"
    if check_id.startswith("pressure_"):
        return f"c_{check_id}"
    if check_id == "recursion":
        return "c_recursion"
    if check_id == "final_bound":
        return "c_final"
    return None


def _aggregate(results, errors, cal_name) -> dict:
    per_check: dict = {}
    constants: dict = {}
    per_resolution: dict = {}
    falsifications = []
    instabilities = []
    calibrated: dict = {}
    for res in results:
        if "instability" in res:
            instabilities.append({"name": res["name"], **res["instability"]})
            continue
        report: AuditReport = res["report"]
        npts = report.environment["grid_npts"]
        if not calibrated:
            calibrated = {
                k: float(v) for k, v in report.constants.items()
                if not k.endswith("_self_calibrated")
            }
        for c in report.checks:
            row = per_check.setdefault(
                c.check_id, {"margins": [], "falsifications": 0}
            )
            row["margins"].append(c.margin)
            if not c.passed:
                row["falsifications"] += 1
                falsifications.append({"run": res["name"], "check": c.check_id})
            # stability is judged on each run's own fitted constant
            key = _constant_key(c.check_id)
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
    resolutions = sorted(per_resolution)
    if len(resolutions) > 1:
        base = resolutions[0]
        for key in constants:
            per_res_med = {
                res: float(np.median(per_resolution[res].get(key, [np.nan])))
                for res in resolutions
            }
            base_val = per_res_med[base]
            drift[key] = {
                "per_resolution_median": per_res_med,
                "max_rel_drift": float(
                    max(
                        abs(per_res_med[r] - base_val) / abs(base_val)
                        for r in resolutions
                    )
                ) if base_val else 0.0,
            }

    return {
        "format": "nsbl-aggregate/1",
        "calibration_run": cal_name,
        "calibrated_constants": calibrated,
        "runs_completed": len(results),
        "per_check": per_check,
        "constants": constants,
        "per_resolution_drift": drift,
        "falsifications": falsifications,
        "instabilities": instabilities,
        "errors": errors,
    }
