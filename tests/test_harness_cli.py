import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from nsbl import cli
from nsbl.harness import (
    DEFAULT_LEDGER,
    BadScenario,
    InfeasibleLedger,
    Scenario,
    UnknownKey,
    audit_manifest,
    canonical_json,
    load_manifest,
    run_suite,
    scenario_hash,
    simulate,
    trajectory_from_manifest,
)
from nsbl.ledger import DomainError
from nsbl.solver import SolverConfig


def quick_scenario(name, kind="beltrami", seed=0, amplitude=1.0, npts=16,
                   t_final=0.05, dt=2e-3, stride=5, kmax=4):
    return Scenario(
        name=name,
        grid_npts=npts,
        solver=SolverConfig(viscosity=1.0, dt=dt, t_final=t_final, snapshot_stride=stride),
        initial={"kind": kind, "seed": seed, "amplitude": amplitude, "kmax": kmax},
    )


class TestScenario:
    def test_round_trip(self):
        sc = quick_scenario("a", kind="random_spectrum", seed=3)
        back = Scenario.from_dict(sc.to_dict())
        assert back.to_dict() == sc.to_dict()
        assert scenario_hash(back) == scenario_hash(sc)

    def test_scenario_hash_pinned(self):
        # the nsbl-scenario/1 bytes, "dealias": true included, are those of
        # the runs and manifests written so far
        sc = quick_scenario("pinned", kind="random_spectrum", seed=3)
        d = sc.to_dict()
        assert d["solver"]["dealias"] is True
        assert scenario_hash(sc) == (
            "2dd82f86dad5003d42f130888175011b27b2eb179daf9897741e67293d759dc0")
        assert Scenario.from_dict(d) == sc
        del d["solver"]["dealias"]
        assert scenario_hash(Scenario.from_dict(d)) == scenario_hash(sc)

    def test_load_from_file(self, tmp_path):
        sc = quick_scenario("b")
        p = tmp_path / "sc.json"
        p.write_bytes(canonical_json(sc.to_dict()))
        assert Scenario.load(p).to_dict() == sc.to_dict()

    def test_default_ledger_params_feasible(self):
        from nsbl.ledger import feasible

        sc = quick_scenario("c")
        assert feasible(sc.exponent_params())

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            Scenario.from_dict({"format": "nsbl-scenario/99", "name": "x"})

    @pytest.mark.parametrize("section,key", [
        (None, "gird"), ("grid", "npoints"), ("solver", "viscosty"),
        ("initial", "sede"), ("audit", "s_value"), ("ledger", "sigam"),
    ])
    def test_unknown_key_rejected_at_every_level(self, section, key):
        d = quick_scenario("typo").to_dict()
        (d if section is None else d[section])[key] = 1
        name = key if section is None else f"{section}.{key}"
        with pytest.raises(UnknownKey, match=name) as info:
            Scenario.from_dict(d)
        assert info.value.key == name

    @pytest.mark.parametrize("section,key,bad", [
        ("grid", "npts", 32.9), ("grid", "npts", "32"), ("grid", "npts", True),
        ("solver", "snapshot_stride", 2.5), ("solver", "snapshot_stride", None),
        ("audit", "n_max", "40"), ("audit", "n_max", 1e400),
        ("initial", "seed", 0.5), ("initial", "seed", False),
        ("initial", "kmax", "4"), ("initial", "kmax", float("nan")),
        ("solver", "dealias", "false"), ("solver", "dealias", 0),
        ("solver", "dealias", False), ("solver", "dealias", None),
        ("audit", "calibration", "no"), ("audit", "calibration", 1),
    ])
    def test_wrong_type_rejected(self, section, key, bad):
        # bool() and int() would coerce these silently: "false" is truthy,
        # 32.9 truncates to 32
        d = quick_scenario("types").to_dict()
        d[section][key] = bad
        with pytest.raises(BadScenario, match=f"{section}.{key}"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("section,key,bad", [
        ("grid", "length", "6.5"), ("grid", "length", float("inf")),
        ("solver", "viscosity", True), ("solver", "dt", "0.002"),
        ("solver", "t_final", None), ("initial", "amplitude", "2"),
        ("audit", "r", "12"), ("audit", "q", False),
        ("audit", "s_values", [2.0, "3"]), ("audit", "s_values", "2,3"),
        ("audit", "ell_values", [float("nan")]),
        ("solver", "scheme", 5), ("initial", "kind", ["beltrami"]),
        (None, "name", 7), ("audit", "n_max", -1), ("audit", "n_max", 1023),
        ("audit", "ell_values", []),
    ])
    def test_wrong_number_or_string_rejected(self, section, key, bad):
        # float() and str() would coerce these silently: "0.002" and True
        # parse as numbers, 5 as the scheme '5'
        d = quick_scenario("types").to_dict()
        (d if section is None else d[section])[key] = bad
        name = key if section is None else f"{section}.{key}"
        with pytest.raises(BadScenario, match=name):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("name", ["/tmp/escaped", "a/b", "a\\b", "", ".", "..", "a\0b"])
    def test_name_must_be_one_path_component(self, name):
        # the run directory is out_root / name
        d = quick_scenario("x").to_dict()
        d["name"] = name
        with pytest.raises(BadScenario, match="name"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("key,bad", [("N", None), ("N", "3.5"), ("q", "1/0"),
                                         ("K", [6, 5]), ("j", True)])
    def test_ledger_value_not_rational(self, key, bad):
        sc = Scenario.from_dict({**quick_scenario("x").to_dict(),
                                 "ledger": dict(DEFAULT_LEDGER, **{key: bad})})
        with pytest.raises(DomainError, match=f"ledger.{key}"):
            sc.exponent_params()

    def test_numbers_parse_as_floats(self):
        d = quick_scenario("nums").to_dict()
        d["grid"]["length"] = 6
        d["audit"].update(r=12, q=None, s_values=[2, 3.5], ell_values=[13])
        sc = Scenario.from_dict(d)
        assert sc.grid_length == 6.0 and type(sc.grid_length) is float
        assert sc.audit.r == 12.0 and sc.audit.q is None
        assert sc.audit.s_values == (2.0, 3.5) and sc.audit.ell_values == (13.0,)

    def test_integral_numbers_accepted(self):
        d = quick_scenario("whole", kind="random_spectrum").to_dict()
        d["grid"]["npts"] = 16.0
        d["initial"]["seed"] = 3.0
        sc = Scenario.from_dict(d)
        assert sc.grid_npts == 16 and type(sc.grid_npts) is int
        assert sc.initial["seed"] == 3 and type(sc.initial["seed"]) is int

    def test_section_must_be_object(self):
        d = quick_scenario("flat").to_dict()
        d["solver"] = 5
        with pytest.raises(BadScenario, match="solver"):
            Scenario.from_dict(d)

    def test_audit_overrides_use_the_parser(self, tmp_path):
        mp = simulate(quick_scenario("over", t_final=0.01), tmp_path)
        report, _, _ = audit_manifest(mp, {"s_values": (1.5,), "n_max": 5})
        ids = [c.check_id for c in report.checks]
        assert "pressure_s1.5" in ids and "pressure_s2" not in ids
        ladder = next(c for c in report.checks if c.check_id == "recursion")
        assert len(ladder.extra["levels"]) == 6
        with pytest.raises(UnknownKey, match="audit.s_vals"):
            audit_manifest(mp, {"s_vals": (1.5,)})


class TestSimulate:
    def test_manifest_and_checkpoints(self, tmp_path):
        sc = quick_scenario("bel")
        mp = simulate(sc, tmp_path)
        manifest = load_manifest(mp)
        assert manifest["scenario_hash"] == scenario_hash(sc)
        assert len(manifest["checkpoints"]) == 6
        for entry in manifest["checkpoints"]:
            assert (mp.parent / entry["path"]).exists()
        traj = trajectory_from_manifest(manifest, mp.parent)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.05)

    def test_final_norm_matches_decay(self, tmp_path):
        sc = quick_scenario("bel2", t_final=0.05)
        mp = simulate(sc, tmp_path)
        traj = trajectory_from_manifest(load_manifest(mp), mp.parent)
        v0 = traj.velocity(0)
        vT = traj.velocity(len(traj) - 1)
        ratio = vT.magnitude().max() / v0.magnitude().max()
        assert ratio == pytest.approx(np.exp(-0.05), rel=1e-6)

    def test_t_zero_single_checkpoint(self, tmp_path):
        sc = quick_scenario("frozen", t_final=0.0)
        mp = simulate(sc, tmp_path)
        assert len(load_manifest(mp)["checkpoints"]) == 1

    def test_byte_identical_checkpoints(self, tmp_path):
        sc = quick_scenario("det", kind="random_spectrum", seed=5)
        m1 = simulate(sc, tmp_path / "a")
        m2 = simulate(sc, tmp_path / "b")
        c1 = [e["sha256"] for e in load_manifest(m1)["checkpoints"]]
        c2 = [e["sha256"] for e in load_manifest(m2)["checkpoints"]]
        assert c1 == c2

    def test_infeasible_ledger_blocks_solve(self, tmp_path):
        sc = quick_scenario("gated")
        sc.ledger = dict(DEFAULT_LEDGER, j="3")  # below the sign threshold
        with pytest.raises(InfeasibleLedger):
            simulate(sc, tmp_path)

    def test_instability_recorded(self, tmp_path):
        sc = Scenario(
            name="blow",
            grid_npts=16,
            solver=SolverConfig(viscosity=1e-4, dt=0.5, t_final=25.0, snapshot_stride=10),
            initial={"kind": "random_spectrum", "seed": 1, "amplitude": 500.0, "kmax": 4},
        )
        mp = simulate(sc, tmp_path)
        manifest = load_manifest(mp)
        assert manifest["instability"] is not None
        assert manifest["instability"]["time"] > 0
        assert manifest["checkpoints"] == []


class TestAuditCommandLayer:
    def test_reports_written(self, tmp_path):
        mp = simulate(quick_scenario("bel"), tmp_path)
        report, jp, cp = audit_manifest(mp)
        assert jp.exists() and cp.exists()
        data = json.loads(jp.read_text())
        assert data["format"] == "nsbl-report/1"
        assert data["falsifications"] == []
        rows = cp.read_text().splitlines()
        assert rows[0] == "check,lhs,rhs,c,margin"
        assert len(rows) == len(report.checks) + 1

    def test_reports_deterministic(self, tmp_path):
        mp1 = simulate(quick_scenario("bel"), tmp_path / "a")
        mp2 = simulate(quick_scenario("bel"), tmp_path / "b")
        _, j1, _ = audit_manifest(mp1)
        _, j2, _ = audit_manifest(mp2)
        assert j1.read_bytes() == j2.read_bytes()


class TestSuite:
    def test_single_member_aggregate(self, tmp_path):
        sc = quick_scenario("only", kind="random_spectrum", seed=2)
        suite = {"format": "nsbl-suite/1", "name": "s1", "calibration": "only",
                 "scenarios": [sc.to_dict()]}
        agg = run_suite(suite, tmp_path, workers=1)
        assert agg["runs_completed"] == 1
        assert agg["falsifications"] == []
        report = json.loads((tmp_path / "only" / "report.json").read_text())
        for cid, row in agg["per_check"].items():
            rec = next(c for c in report["checks"] if c["id"] == cid)
            assert row["min_margin"] == row["max_margin"] == pytest.approx(float(rec["margin"]))

    def test_member_error_does_not_abort(self, tmp_path):
        good = quick_scenario("good", kind="random_spectrum", seed=1)
        bad = Scenario(
            name="bad",
            grid_npts=16,
            solver=SolverConfig(viscosity=1e-4, dt=0.5, t_final=25.0, snapshot_stride=10),
            initial={"kind": "random_spectrum", "seed": 1, "amplitude": 500.0, "kmax": 4},
        )
        suite = {"format": "nsbl-suite/1", "name": "s2", "calibration": "good",
                 "scenarios": [good.to_dict(), bad.to_dict()]}
        agg = run_suite(suite, tmp_path, workers=1)
        assert agg["runs_completed"] >= 1
        assert len(agg["instabilities"]) == 1

    def test_mixed_resolution_drift_reported(self, tmp_path):
        members = [
            quick_scenario("lo", kind="random_spectrum", seed=4, npts=16).to_dict(),
            quick_scenario("hi", kind="random_spectrum", seed=4, npts=24).to_dict(),
        ]
        suite = {"format": "nsbl-suite/1", "name": "mixres", "calibration": "lo",
                 "scenarios": members}
        agg = run_suite(suite, tmp_path, workers=1)
        drift = agg["per_resolution_drift"]
        assert "c_pressure_s2" in drift
        assert set(drift["c_pressure_s2"]["per_resolution_median"]) == {"16", "24"}
        assert drift["c_pressure_s2"]["max_rel_drift"] < 0.5

    def test_calibrated_constant_shared(self, tmp_path):
        members = [quick_scenario(f"m{k}", kind="random_spectrum", seed=k).to_dict()
                   for k in range(3)]
        suite = {"format": "nsbl-suite/1", "name": "s3", "calibration": "m0",
                 "scenarios": members}
        run_suite(suite, tmp_path, workers=2)
        c_finals = []
        for k in range(3):
            rep = json.loads((tmp_path / f"m{k}" / "report.json").read_text())
            c_finals.append(float(rep["constants"]["c_final"]))
        assert c_finals[0] == c_finals[1] == c_finals[2]


class TestCli:
    def test_exponents_feasible(self, tmp_path, capsys):
        rc = cli.main(["exponents", "--N", "3", "--out-dir", str(tmp_path)])
        assert rc == 0
        cert = json.loads((tmp_path / "certificate-N3.json").read_text())
        assert cert["feasible"]
        from fractions import Fraction

        assert Fraction(cert["params"]["j"]) == Fraction(cert["params"]["q"]) / 2
        assert Fraction(cert["params"]["r"]) == (
            Fraction(cert["params"]["K"]) * Fraction(cert["params"]["q"])
        )

    def test_exponents_search_exhausted(self, tmp_path, capsys):
        rc = cli.main(["exponents", "--N", "3", "--q-max", "10", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_exponents_explicit_check_infeasible(self, tmp_path):
        rc = cli.main(["exponents", "--N", "3", "--out-dir", str(tmp_path),
                       "--check", "q=10,j=3,B=10,K=6/5,r=12"])
        assert rc == 2
        cert = json.loads((tmp_path / "certificate-N3.json").read_text())
        assert not cert["feasible"]
        bad = [r["id"] for r in cert["reports"] if not r["satisfied"]]
        assert "j_above_sign_threshold" in bad

    @pytest.mark.parametrize("argv", [
        ["--check", "q=abc"], ["--delta", "abc"], ["--N", "2"],
        ["--check", "q=10,q=12"], ["--check", "q=1/0"], ["--check", "N=7/2"],
        ["--check", "bogus=1"], ["--check", "q"], ["--N", "abc"],
    ], ids=["check_value", "delta", "dimension", "check_repeated", "check_zero_denominator",
            "check_fractional_dimension", "check_unknown_key", "check_no_value", "dimension_text"])
    def test_exponents_bad_value_exit_1(self, tmp_path, capsys, argv):
        capsys.readouterr()
        assert cli.main(["exponents", "--out-dir", str(tmp_path)] + argv) == 1
        assert "invalid exponents" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_simulate_and_audit_chain(self, tmp_path):
        sc = quick_scenario("chain")
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(sc.to_dict()))
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 0
        manifest = tmp_path / "chain" / "manifest.json"
        assert cli.main(["audit", str(manifest)]) == 0
        assert (tmp_path / "chain" / "report.csv").exists()

    def test_audit_degenerate_ell_usage_error(self, tmp_path):
        sc = quick_scenario("dell")
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(sc.to_dict()))
        cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)])
        rc = cli.main(["audit", str(tmp_path / "dell" / "manifest.json"), "--l", "12"])
        assert rc == 1

    def test_audit_corrupt_checkpoint(self, tmp_path):
        sc = quick_scenario("corrupt")
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(sc.to_dict()))
        cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)])
        target = tmp_path / "corrupt" / "checkpoint_0000.nsbl"
        blob = bytearray(target.read_bytes())
        blob[64] ^= 0xFF
        target.write_bytes(bytes(blob))
        rc = cli.main(["audit", str(tmp_path / "corrupt" / "manifest.json")])
        assert rc == 4

    @pytest.mark.parametrize("case", ["truncated_header", "npts_7", "dim_2"])
    def test_audit_malformed_checkpoint_exit_4(self, tmp_path, case):
        # the manifest hash is updated so the header itself is what fails
        sc = quick_scenario("malformed", t_final=0.0)
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(sc.to_dict()))
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 0
        run_dir = tmp_path / "malformed"
        head = b"NSBL2<"
        if case == "truncated_header":
            blob = head + struct.pack("<II", 3, 16)
        else:
            # a valid CRC-32, so that the grid check is the one that fails
            dim, npts = (3, 7) if case == "npts_7" else (2, 16)
            head += struct.pack("<IIddII", dim, npts, 2 * np.pi, 0.0, 3, npts // 3)
            payload = bytes(3 * (2 * (npts // 3) + 1) ** 2 * (npts // 3 + 1) * 16)
            blob = head + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))) + payload
        (run_dir / "checkpoint_0000.nsbl").write_bytes(blob)
        manifest = load_manifest(run_dir / "manifest.json")
        manifest["checkpoints"][0]["sha256"] = hashlib.sha256(blob).hexdigest()
        (run_dir / "manifest.json").write_bytes(canonical_json(manifest))
        assert cli.main(["audit", str(run_dir / "manifest.json")]) == 4

    @pytest.mark.parametrize("case", ["band_mismatch", "nsbl1"])
    def test_audit_unreadable_band_exit_4(self, tmp_path, capsys, case):
        sc = quick_scenario("band", t_final=0.0)
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(sc.to_dict()))
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 0
        run_dir = tmp_path / "band"
        manifest = load_manifest(run_dir / "manifest.json")
        if case == "band_mismatch":
            # the whole half spectrum, as an undealiased run would store it,
            # under a valid CRC-32
            head = b"NSBL2<" + struct.pack("<IIddII", 3, 16, 2 * np.pi, 0.0, 3, 16 // 2)
            payload = bytes(3 * 16 * 16 * (16 // 2 + 1) * 16)
            blob = head + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))) + payload
            message = "band cut 8 is not the 2/3-rule cut 5"
        else:
            blob = (b"NSBL1<" + struct.pack("<IIddI", 3, 16, 2 * np.pi, 0.0, 3)
                    + bytes(3 * 16**3 * 16))
            message = "re-run `nsbl simulate`"
        (run_dir / "checkpoint_0000.nsbl").write_bytes(blob)
        manifest["checkpoints"][0]["sha256"] = hashlib.sha256(blob).hexdigest()
        (run_dir / "manifest.json").write_bytes(canonical_json(manifest))
        capsys.readouterr()
        assert cli.main(["audit", str(run_dir / "manifest.json")]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "list", "no_scenario", "no_instability", "checkpoints_object", "entry_list",
        "path_number", "t_string", "dissipation_missing", "sha256_short", "sha256_not_hex",
        "not_json", "not_utf8", "unknown_key",
    ])
    def test_audit_malformed_manifest_exit_4(self, tmp_path, capsys, case):
        sc = quick_scenario("manifest", t_final=0.0)
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(sc.to_dict()))
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 0
        path = tmp_path / "manifest" / "manifest.json"
        manifest = load_manifest(path)
        entry = manifest["checkpoints"][0]
        if case == "list":
            manifest = [1, 2]
        elif case == "no_scenario":
            del manifest["scenario"]
        elif case == "no_instability":
            del manifest["instability"]
        elif case == "checkpoints_object":
            manifest["checkpoints"] = entry
        elif case == "entry_list":
            manifest["checkpoints"] = [list(entry.values())]
        elif case == "path_number":
            entry["path"] = 0
        elif case == "t_string":
            entry["t"] = "0.0"
        elif case == "dissipation_missing":
            del entry["dissipation"]
        elif case == "sha256_short":
            entry["sha256"] = entry["sha256"][:-1]
        elif case == "sha256_not_hex":
            entry["sha256"] = "g" + entry["sha256"][1:]
        elif case == "unknown_key":
            manifest["checkpoint"] = manifest["checkpoints"]
        text = json.dumps(manifest).encode()
        if case == "not_json":
            text = b"not json"
        elif case == "not_utf8":
            text = text.replace(b'"manifest"', b'"\xe9"')
        path.write_bytes(text)
        capsys.readouterr()
        assert cli.main(["audit", str(path)]) == 4
        assert "malformed manifest" in capsys.readouterr().err

    def test_audit_undealiased_run_exit_1(self, tmp_path, capsys):
        # a manifest whose scenario asks for an undealiased run is refused
        # when the scenario is parsed, before any checkpoint is read
        sc = quick_scenario("undealiased", t_final=4e-3, stride=1)
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(sc.to_dict()))
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 0
        path = tmp_path / "undealiased" / "manifest.json"
        manifest = load_manifest(path)
        manifest["scenario"]["solver"]["dealias"] = False
        path.write_bytes(canonical_json(manifest))
        capsys.readouterr()
        assert cli.main(["audit", str(path)]) == 1
        assert "solver.dealias" in capsys.readouterr().err
        assert not (tmp_path / "undealiased" / "report.json").exists()

    @pytest.mark.parametrize("r", ["3", "11"])
    def test_audit_r_below_ledger_r(self, tmp_path, r):
        # the threshold's default ell must exceed the ledger's r = 12, not
        # only the overridden r
        sc = quick_scenario("lowr", t_final=0.01)
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(sc.to_dict()))
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 0
        assert cli.main(["audit", str(tmp_path / "lowr" / "manifest.json"), "--r", r]) == 0

    def test_audit_bad_exponents_message(self, tmp_path, capsys):
        sc = quick_scenario("badr")
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(sc.to_dict()))
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = cli.main(["audit", str(tmp_path / "badr" / "manifest.json"), "--r", "0.5"])
        assert rc == 1
        assert "bad audit exponents" in capsys.readouterr().err

    @pytest.mark.parametrize("ledger,amplitude,args,message", [
        ({"delta0": "377"}, 7.0, [], "bad audit exponents: delta0 = 377"),
        ({"sigma": "3e18"}, 7.0, [], "bad audit exponents: sigma = 3000000000000000000"),
        ({}, 1e-90, [], "underflows to 0"),
        ({}, 1.0, ["--r", str(2**40)], "bad audit exponents: need r > 1 and r + 1e-4 != r"),
    ], ids=["bracket", "m_sigma", "prefactor", "log_norm_step"])
    def test_audit_outside_float_range_exit_1(self, tmp_path, capsys, ledger, amplitude, args,
                                              message):
        # a quantity beyond float64 is a typed error, not an OverflowError or
        # a ZeroDivisionError
        sc = quick_scenario("range", kind="random_spectrum", amplitude=amplitude, t_final=0.0)
        sc.ledger = dict(DEFAULT_LEDGER, **ledger)
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(sc.to_dict()))
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli.main(["audit", str(tmp_path / "range" / "manifest.json"), *args]) == 1
        assert message in capsys.readouterr().err

    def test_simulate_instability_exit(self, tmp_path):
        bad = Scenario(
            name="blowcli",
            grid_npts=16,
            solver=SolverConfig(viscosity=1e-4, dt=0.5, t_final=25.0, snapshot_stride=10),
            initial={"kind": "random_spectrum", "seed": 1, "amplitude": 500.0, "kmax": 4},
        )
        scn = tmp_path / "bad.json"
        scn.write_bytes(canonical_json(bad.to_dict()))
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 3

    def test_simulate_infeasible_exit(self, tmp_path):
        sc = quick_scenario("gatedcli")
        sc.ledger = dict(DEFAULT_LEDGER, j="3")
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(sc.to_dict()))
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 2

    def test_simulate_unknown_key_exit_1(self, tmp_path, capsys):
        d = quick_scenario("typocli").to_dict()
        d["solver"]["viscosty"] = 0.5
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(d))
        capsys.readouterr()
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 1
        assert "solver.viscosty" in capsys.readouterr().err
        assert not (tmp_path / "typocli").exists()

    def test_simulate_wrong_type_exit_1(self, tmp_path, capsys):
        d = quick_scenario("typecli").to_dict()
        d["solver"]["dealias"] = "false"
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(d))
        capsys.readouterr()
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 1
        assert "solver.dealias" in capsys.readouterr().err
        assert not (tmp_path / "typecli").exists()

    def test_suite_unknown_key_exit_1(self, tmp_path, capsys):
        member = quick_scenario("typosuite").to_dict()
        member["initial"]["amplitdue"] = 2.0
        sp = tmp_path / "suite.json"
        sp.write_text(json.dumps({"format": "nsbl-suite/1", "scenarios": [member]}))
        capsys.readouterr()
        assert cli.main(["suite", str(sp), "--out-dir", str(tmp_path / "out")]) == 1
        assert "initial.amplitdue" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", [
        [1, 2], 5, {"format": "nsbl-suite/1", "scenarios": 5},
        {"format": "nsbl-suite/1", "scenarios": []}, {"format": "nsbl-suite/1"},
        {"format": "nsbl-suite/1", "scenarios": [5]},
        {"format": "nsbl-suite/1", "scenario": []},
        {"format": "nsbl-suite/2", "scenarios": [{}]},
        {"format": "nsbl-suite/1", "calibration": 0, "scenarios": [{}]},
        {"format": "nsbl-suite/1", "name": ["x"], "scenarios": [{}]},
    ], ids=["list", "number", "scenarios_number", "scenarios_empty", "no_scenarios",
            "member_number", "unknown_key", "format", "calibration_number", "name_list"])
    def test_suite_malformed_exit_1(self, tmp_path, capsys, suite):
        sp = tmp_path / "suite.json"
        sp.write_text(json.dumps(suite))
        capsys.readouterr()
        assert cli.main(["suite", str(sp), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "suite" in err or "scenario" in err
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("name", ["ABS", "", ".."])
    def test_simulate_name_outside_out_dir_exit_1(self, tmp_path, capsys, name):
        d = quick_scenario("x", t_final=0.0).to_dict()
        d["name"] = str(tmp_path / "escaped") if name == "ABS" else name
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(d))
        capsys.readouterr()
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path / "out")]) == 1
        assert "name" in capsys.readouterr().err
        assert not (tmp_path / "escaped").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_max,rc", [("-5", 1), ("0", 0), ("1022", 0), ("1023", 1)])
    def test_audit_n_max(self, tmp_path, capsys, n_max, rc):
        sc = quick_scenario("nmax", t_final=0.0)
        scn = tmp_path / "sc.json"
        scn.write_bytes(canonical_json(sc.to_dict()))
        assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli.main(["audit", str(tmp_path / "nmax" / "manifest.json"),
                         "--n-max", n_max]) == rc
        assert ("audit.n_max" in capsys.readouterr().err) == (rc == 1)

    @pytest.mark.parametrize("argv", [["bogus"], [], ["audit", "m.json", "--n-max", "abc"],
                                      ["exponents", "--bogus"]],
                             ids=["unknown_command", "no_command", "n_max_abc", "unknown_option"])
    def test_usage_error_exit_1(self, capsys, argv):
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert "nsbl" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["audit", "--help"])
        assert info.value.code == 0
        assert "--n-max" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["simulate", "audit", "suite"])
    def test_missing_input_exit_4(self, tmp_path, capsys, command):
        capsys.readouterr()
        assert cli.main([command, str(tmp_path / "missing.json"),
                         *(["--out-dir", str(tmp_path)] if command != "audit" else [])]) == 4
        assert "missing.json" in capsys.readouterr().err

    def test_exponents_out_dir_is_a_file_exit_4(self, tmp_path):
        target = tmp_path / "afile"
        target.write_text("x")
        assert cli.main(["exponents", "--out-dir", str(target)]) == 4

    def test_suite_cli(self, tmp_path):
        members = [quick_scenario(f"s{k}", kind="random_spectrum", seed=k).to_dict()
                   for k in range(2)]
        suite = {"format": "nsbl-suite/1", "name": "cli", "calibration": "s0",
                 "scenarios": members}
        sp = tmp_path / "suite.json"
        sp.write_text(json.dumps(suite))
        rc = cli.main(["suite", str(sp), "--out-dir", str(tmp_path / "out"),
                       "--workers", "2"])
        assert rc == 0
        assert (tmp_path / "out" / "aggregate.json").exists()
        assert (tmp_path / "out" / "aggregate.csv").exists()

    def test_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NSBL_OUT", str(tmp_path / "envout"))
        rc = cli.main(["exponents", "--N", "3"])
        assert rc == 0
        assert (tmp_path / "envout" / "certificate-N3.json").exists()
