"""Regenerate perfbench/reference.json from the current sources.

Run from the repository root:

    python3 perfbench/make_reference.py

Every member a workload can draw (each pool seed of each member family) is
simulated and audited through the CLI, and its per-snapshot max|u| and
energy, its fitted pressure constants and its energy-identity residual are
stored.  Regenerate only when
a change is meant to alter these numbers, and say so in CHANGES.md.
"""

import contextlib
import json
import shutil
import sys
from pathlib import Path

from run import load_nsbl
from workloads import (
    POOL,
    REFERENCE_PATH,
    REPLAY_S,
    Workload,
    pipeline_member,
    replay_member,
    report_quantities,
    snapshot_quantities,
    suite_member,
    write_json,
)


def members():
    for seed in POOL:
        yield pipeline_member(seed), ()
        yield replay_member(seed), ("--s", REPLAY_S)
        for npts in (24, 32, 48):
            yield suite_member(seed, npts), ()


def main() -> int:
    root = Path.cwd()
    nsbl = load_nsbl(root)
    work = root / ".perfbench-out" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Workload(nsbl, work, 0, root / "src")
    reference = {}
    try:
        for member, audit_args in members():
            path = work / f"{member.name}.json"
            write_json(path, member.scenario(nsbl))
            manifest = work / member.name / "manifest.json"
            for argv in (("simulate", path, "--out-dir", work), ("audit", manifest, *audit_args)):
                rc = runner.cli(*argv)
                if rc != 0:
                    raise SystemExit(f"{member.name}: nsbl {argv[0]} exited {rc}")
            pressure, residual = report_quantities((manifest.parent / "report.json").read_bytes())
            reference[member.name] = {**snapshot_quantities(nsbl, manifest),
                                      "pressure": pressure, "energy_residual": residual}
            shutil.rmtree(manifest.parent)
            print(member.name, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
