"""Command-line surface: exponents, simulate, audit, suite.

Exit codes: 0 completed (falsification findings are report content, not
errors), 1 usage or precondition failure, 2 infeasible exponent tuple,
3 discrete instability, 4 I/O or corruption.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .audit import BadExponents
from .checkpoint import CorruptCheckpoint
from .harness import (
    InfeasibleLedger,
    Scenario,
    audit_manifest,
    certificate_dict,
    load_suite,
    run_suite,
    simulate,
    write_certificate,
)
from .ledger import DomainError, ExponentParams, SearchExhausted, select_parameters
from .solver import BadSpec, Instability
from .spectral import ShapeMismatch

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INSTABILITY = 3
EXIT_IO = 4


def out_root(args) -> Path:
    root = args.out_dir or os.environ.get("NSBL_OUT") or "nsbl-out"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_check(text: str) -> dict:
    out = {}
    for item in text.split(","):
        key, _, val = item.partition("=")
        if not val:
            raise ValueError(f"bad --check entry {item!r}, expected key=value")
        out[key.strip()] = val.strip()
    return out


def _exponent_params(args) -> tuple[ExponentParams, str]:
    """The tuple ``--check`` spells out, else the lattice search's, and a
    note saying which; ValueError or ZeroDivisionError on a value that does
    not parse or lies outside its domain."""
    if not args.check:
        params = select_parameters(args.N, q_ceiling=args.q_max, delta=Fraction(args.delta))
        return params, "lattice search result"
    overrides = _parse_check(args.check)
    fields = {"N": int(overrides.pop("N", args.N))}
    for key in ("q", "B", "K", "delta", "j", "r", "sigma"):
        if key in overrides:
            fields[key] = Fraction(overrides.pop(key))
    if overrides:
        raise ValueError(f"unknown --check keys: {sorted(overrides)}")
    defaults = {"q": Fraction(10), "B": Fraction(10), "K": Fraction(6, 5),
                "delta": Fraction(1, 2)}
    for key, val in defaults.items():
        fields.setdefault(key, val)
    params = ExponentParams.derive(
        fields["N"], fields["q"], fields["B"], fields["K"], fields["delta"],
        fields.get("j"), fields.get("r"), fields.get("sigma", 0),
    )
    return params, "explicit tuple check"


def cmd_exponents(args) -> int:
    root = out_root(args)
    try:
        params, note = _exponent_params(args)
    except SearchExhausted as exc:
        cert = {"format": "nsbl-certificate/1", "feasible": False,
                "search_exhausted": str(exc), "params": None,
                "reports": [], "diagnostics": [], "note": "lattice search exhausted"}
        path = root / f"certificate-N{args.N}.json"
        write_certificate(path, cert)
        print(f"SearchExhausted: {exc}", file=sys.stderr)
        print(f"certificate: {path}")
        return EXIT_INFEASIBLE
    except (ValueError, ZeroDivisionError) as exc:
        # DomainError, or a number that int or Fraction cannot parse
        print(f"invalid exponents: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cert = certificate_dict(params, note=note)
    path = root / f"certificate-N{params.N}.json"
    write_certificate(path, cert)
    print(f"certificate: {path}")
    print(f"feasible: {cert['feasible']}")
    for rep in cert["reports"]:
        if not rep["satisfied"]:
            print(f"  violated: {rep['id']} (lhs={rep['lhs']} rhs={rep['rhs']})")
    return EXIT_OK if cert["feasible"] else EXIT_INFEASIBLE


def cmd_simulate(args) -> int:
    try:
        scenario = Scenario.load(args.scenario)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        manifest_path = simulate(scenario, out_root(args))
    except InfeasibleLedger as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except (BadSpec, ShapeMismatch, DomainError) as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    manifest = json.loads(manifest_path.read_text())
    print(f"manifest: {manifest_path}")
    if manifest["instability"]:
        print(f"instability at t = {manifest['instability']['time']:.6g}", file=sys.stderr)
        return EXIT_INSTABILITY
    print(f"checkpoints: {len(manifest['checkpoints'])}")
    return EXIT_OK


def _parse_floats(text):
    return tuple(float(x) for x in text.split(",") if x.strip())


def cmd_audit(args) -> int:
    overrides = {}
    if args.r is not None:
        overrides["r"] = args.r
    if args.q is not None:
        overrides["q"] = args.q
    if args.s:
        overrides["s_values"] = _parse_floats(args.s)
    if args.l:
        overrides["ell_values"] = _parse_floats(args.l)
    if args.n_max is not None:
        overrides["n_max"] = args.n_max
    try:
        report, json_path, csv_path = audit_manifest(args.manifest, overrides or None)
    except BadExponents as exc:
        print(f"bad audit exponents: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        if isinstance(exc, CorruptCheckpoint):
            print(f"corrupt run data: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"cannot audit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Instability as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INSTABILITY
    print(f"report: {json_path}")
    print(f"csv: {csv_path}")
    for cid in report.falsifications():
        print(f"falsification candidate: {cid}")
    return EXIT_OK


def cmd_suite(args) -> int:
    try:
        suite = load_suite(args.suite)
    except (OSError, ValueError) as exc:
        print(f"cannot load suite: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        aggregate = run_suite(suite, out_root(args), workers=args.workers)
    except InfeasibleLedger as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, KeyError) as exc:
        print(f"bad suite: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"runs completed: {aggregate['runs_completed']}")
    print(f"falsifications: {len(aggregate['falsifications'])}")
    for item in aggregate["falsifications"]:
        print(f"  {item['run']}: {item['check']}")
    for err in aggregate["errors"]:
        print(f"member error: {err['name']}: {err['error']}", file=sys.stderr)
    if aggregate["instabilities"]:
        for inst in aggregate["instabilities"]:
            print(f"instability: {inst['name']} at t = {inst['time']:.6g}", file=sys.stderr)
        return EXIT_INSTABILITY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsbl",
        description="Pseudo-spectral flow runs, inequality audits, and exact exponent certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="search or check an exponent tuple")
    p.add_argument("--N", type=int, default=3, help="space dimension (>= 3)")
    p.add_argument("--q-max", type=int, default=1_000_000, dest="q_max",
                   help="ceiling for the q lattice search")
    p.add_argument("--delta", default="1/2", help="delta for the pivot exponent")
    p.add_argument("--check", default=None,
                   help="explicit tuple, e.g. q=10,j=3,B=10,K=6/5,r=12")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("simulate", help="run one scenario to checkpoints")
    p.add_argument("scenario")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="audit a finished run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--s", default=None, help="comma-separated pressure exponents")
    p.add_argument("--l", default=None, help="comma-separated interpolation exponents")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("suite", help="run a suite with shared calibration")
    p.add_argument("suite")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
