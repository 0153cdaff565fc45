"""Command-line surface: exponents, simulate, audit, suite.

Exit codes: 0 completed (falsification findings are report content, not
errors), 1 usage or precondition failure, 2 infeasible exponent tuple,
3 discrete instability, 4 I/O or corruption.  A command returns its
outcome (0, 2 or 3); an error it raises leaves through ``ERRORS``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
from .ledger import (
    DomainError,
    ExponentParams,
    SearchExhausted,
    parse_exact,
    select_parameters,
)
from .solver import Instability

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INSTABILITY = 3
EXIT_IO = 4

# every error a command may raise, with its exit code and stderr label;
# the first row whose class matches wins, so the most specific come first
ERRORS = (
    (CorruptCheckpoint, EXIT_IO, "corrupt run data"),
    (InfeasibleLedger, EXIT_INFEASIBLE, "ledger gate"),
    (Instability, EXIT_INSTABILITY, "instability"),
    (BadExponents, EXIT_USAGE, "bad audit exponents"),
    (DomainError, EXIT_USAGE, "invalid exponents"),
    (ValueError, EXIT_USAGE, "invalid input"),
    (OSError, EXIT_IO, "i/o failure"),
)

# the keys of an explicit ``--check`` tuple, and the defaults of those it omits
CHECK_KEYS = ("N", "q", "B", "K", "delta", "j", "r", "sigma")
CHECK_DEFAULTS = {"q": "10", "B": "10", "K": "6/5", "delta": "1/2"}


class UsageError(ValueError):
    """A command line that does not parse."""


class Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise instead of exiting 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def out_root(args) -> Path:
    root = args.out_dir or os.environ.get("NSBL_OUT") or "nsbl-out"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _exponent_fields(args) -> dict:
    """The exponents ``--N``, ``--delta`` and ``--check`` spell out, as
    keywords of ``ExponentParams.derive``; DomainError on a value that is
    not an exact rational, a fractional N, or an unknown or repeated key."""
    check = {}
    for item in args.check.split(",") if args.check else ():
        key, sep, val = (part.strip() for part in item.partition("="))
        if not sep or not val:
            raise DomainError(f"bad --check entry {item!r}, expected key=value")
        if key not in CHECK_KEYS or key in check:
            raise DomainError(f"{'repeated' if key in check else 'unknown'} --check key {key!r}")
        check[key] = val
    # an explicit tuple takes its defaults from CHECK_DEFAULTS, not --delta
    given = {"N": args.N, **(CHECK_DEFAULTS if args.check else {"delta": args.delta}), **check}
    return {key: parse_exact(key, val, integer=key == "N") for key, val in given.items()}


def cmd_exponents(args) -> int:
    root = out_root(args)
    fields = _exponent_fields(args)
    if args.check:
        params, note = ExponentParams.derive(**fields), "explicit tuple check"
    else:
        try:
            params = select_parameters(fields["N"], q_ceiling=args.q_max, delta=fields["delta"])
        except SearchExhausted as exc:
            cert = {"format": "nsbl-certificate/1", "feasible": False,
                    "search_exhausted": str(exc), "params": None,
                    "reports": [], "diagnostics": [], "note": "lattice search exhausted"}
            path = root / f"certificate-N{fields['N']}.json"
            write_certificate(path, cert)
            print(f"SearchExhausted: {exc}", file=sys.stderr)
            print(f"certificate: {path}")
            return EXIT_INFEASIBLE
        note = "lattice search result"
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
    scenario = Scenario.load(args.scenario)
    manifest_path = simulate(scenario, out_root(args))
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
    report, json_path, csv_path = audit_manifest(args.manifest, overrides or None)
    print(f"report: {json_path}")
    print(f"csv: {csv_path}")
    for cid in report.falsifications():
        print(f"falsification candidate: {cid}")
    return EXIT_OK


def cmd_suite(args) -> int:
    suite = load_suite(args.suite)
    aggregate = run_suite(suite, out_root(args), workers=args.workers)
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
    parser = Parser(
        prog="nsbl",
        description="Pseudo-spectral flow runs, inequality audits, and exact exponent certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="search or check an exponent tuple")
    p.add_argument("--N", default="3", help="space dimension (>= 3)")
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
    """Run one command; an error from ``ERRORS`` prints ``label: message``
    to stderr and returns its exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(row[0] for row in ERRORS) as exc:
        code, label = next((code, label) for cls, code, label in ERRORS if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
