"""Every file a fixed set of commands writes, byte for byte, against the
digests of ``identity.json``; ``make_identity.py`` says what the set is and
rewrites the record."""

import json

import pytest

import make_identity

RECORDED = json.loads(make_identity.RECORD.read_text())


@pytest.mark.parametrize("cpus", [1, 2])
def test_outputs_match_the_identity_record(cpus, snapshot_workers):
    here = make_identity.environment()
    differ = [f"{key} {RECORDED['environment'].get(key)!r} there, {value!r} here"
              for key, value in here.items() if RECORDED["environment"].get(key) != value]
    if differ:
        pytest.skip(f"identity.json was recorded on another setup ({'; '.join(differ)}); "
                    f"its digests say nothing here")
    snapshot_workers(cpus)
    got = make_identity.record()
    assert got["commands"] == RECORDED["commands"], "exit codes differ from identity.json"
    names = sorted(RECORDED["files"].keys() | got["files"].keys())
    moved = [name for name in names if RECORDED["files"].get(name) != got["files"].get(name)]
    assert not moved, f"{len(moved)} of {len(names)} files differ from identity.json: {moved}"
