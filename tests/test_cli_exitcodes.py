"""CLI exit-code and error-path contract tests.

The driver scripts and CI treat ``dcat-experiment``'s exit status as an
API: 0 success, 1 a chaos run that broke its guarantees, 2 usage/input
errors.  These tests pin that contract, including the error messages'
field context, and the ``bench`` / ``--metrics`` flows.
"""

import json
from pathlib import Path

import pytest

from repro.harness.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


class TestRunExitCodes:
    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "nope" in err

    def test_known_experiment_exits_0(self, capsys):
        assert main(["run", "fig3"]) == 0
        assert "== fig3" in capsys.readouterr().out

    def test_metrics_writes_prom_and_json(self, tmp_path, capsys):
        out = tmp_path / "m.prom"
        assert main(["run", "fig3", "--metrics", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()
        sibling = tmp_path / "m.prom.json"
        payload = json.loads(sibling.read_text())
        assert payload["format"] == "dcat-metrics/v1"

    def test_metrics_with_jobs_warns_and_runs_serial(self, tmp_path, capsys):
        out = tmp_path / "m.prom"
        assert main(["run", "fig3", "--jobs", "4", "--metrics", str(out)]) == 0
        assert "ignoring --jobs" in capsys.readouterr().err
        assert out.exists()

    def test_unwritable_metrics_path_exits_2(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "m.prom"
        assert main(["run", "fig3", "--metrics", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestFidelityExitCodes:
    def test_invalid_fidelity_exits_2_with_field_context(self, capsys):
        assert main(["run", "fig3", "--fidelity", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "--fidelity" in err
        assert "bogus" in err
        assert "analytical" in err  # the message lists the legal modes

    def test_invalid_fidelity_rejected_before_scenario_load(self, tmp_path, capsys):
        # Validation happens up front: no scenario file is even opened.
        absent = tmp_path / "never-read.json"
        assert main(["churn", str(absent), "--fidelity", "quantum"]) == 2
        err = capsys.readouterr().err
        assert "--fidelity" in err
        assert "quantum" in err

    def test_valid_fidelity_runs_clean(self, capsys):
        assert main(["run", "fig3", "--fidelity", "analytical"]) == 0
        assert "== fig3" in capsys.readouterr().out


class TestPolicyExitCodes:
    def test_invalid_policy_exits_2_with_field_context(self, capsys):
        assert main(["run", "fig3", "--policy", "banana"]) == 2
        err = capsys.readouterr().err
        assert "--policy" in err
        assert "banana" in err
        assert "max_fairness" in err  # the message lists the registry

    def test_invalid_policy_rejected_before_scenario_load(self, tmp_path, capsys):
        # Validation happens up front: no scenario file is even opened.
        for command in ("scenario", "churn", "chaos"):
            absent = tmp_path / "never-read.json"
            assert main([command, str(absent), "--policy", "bogus"]) == 2
            err = capsys.readouterr().err
            assert "--policy" in err
            assert "bogus" in err

    def test_policy_alias_runs_clean(self, capsys):
        assert main(["run", "fig3", "--policy", "lfoc"]) == 0
        assert "== fig3" in capsys.readouterr().out

    def test_churn_accepts_policy_override(self, capsys):
        code = main([
            "churn", f"{FIXTURES}/golden_churn_scenario.json",
            "--policy", "reserved_pooled",
        ])
        assert code == 0
        assert "== per-tenant SLO ==" in capsys.readouterr().out

    def test_churn_file_policy_field_rejected_when_unknown(self, tmp_path, capsys):
        scenario = json.loads(
            (FIXTURES / "golden_churn_scenario.json").read_text()
        )
        scenario["policy"] = "telepathy"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        assert main(["churn", str(path)]) == 2
        err = capsys.readouterr().err
        assert "policy" in err
        assert "telepathy" in err


class TestTournamentExitCodes:
    def test_unwritable_out_exits_2(self, tmp_path, capsys, monkeypatch):
        import repro.harness.cli as cli_mod
        from repro.harness.experiments import tournament as tournament_mod

        # Stub the sweep: this test pins the error path, not the race.
        fake = {"schema": tournament_mod.TOURNAMENT_SCHEMA}
        monkeypatch.setattr(
            tournament_mod,
            "build_tournament_report",
            lambda seed=1234, quick=False, registry=None, fleet_jobs=1: fake,
        )
        monkeypatch.setattr(
            tournament_mod, "validate_tournament_report", lambda payload: None
        )
        code = cli_mod.main([
            "tournament", "--quick",
            "--out", str(tmp_path / "no" / "such" / "t.json"),
        ])
        assert code == 2
        assert "cannot write tournament report" in capsys.readouterr().err


class TestChurnExitCodes:
    def test_invalid_field_exits_2_with_context(self, tmp_path, capsys):
        scenario = {
            "fleet": {"machines": 2},
            "duration_s": 5,
            "tenants": [
                {"name": "t", "baseline_ways": -3,
                 "workload": {"type": "redis"}}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        assert main(["churn", str(path)]) == 2
        err = capsys.readouterr().err
        assert "tenants[0].baseline_ways" in err

    def test_unknown_workload_type_names_the_field(self, tmp_path, capsys):
        scenario = {
            "duration_s": 5,
            "tenants": [{"name": "t", "workload": {"type": "quake"}}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        assert main(["churn", str(path)]) == 2
        err = capsys.readouterr().err
        assert "tenants[0].workload.type" in err
        assert "quake" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["churn", str(tmp_path / "absent.json")]) == 2
        assert "neither a file nor valid JSON" in capsys.readouterr().err

    def test_good_scenario_exits_0(self, capsys):
        assert main(["churn", f"{FIXTURES}/golden_churn_scenario.json"]) == 0
        out = capsys.readouterr().out
        assert "== per-tenant SLO ==" in out

    def test_unwritable_metrics_path_exits_2(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "m.prom"
        code = main([
            "churn", f"{FIXTURES}/golden_churn_scenario.json",
            "--metrics", str(target),
        ])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestChaosExitCodes:
    def test_clean_run_exits_0(self, capsys):
        assert main(["chaos", f"{FIXTURES}/golden_chaos_scenario.json"]) == 0
        assert "invariant violations: 0" in capsys.readouterr().out

    def test_crashed_unhardened_run_exits_1(self, tmp_path, capsys):
        scenario = json.loads(
            (FIXTURES / "golden_chaos_scenario.json").read_text()
        )
        scenario["manager"] = {"type": "dcat", "config": {"hardened": False}}
        scenario["faults"]["rules"][0]["probability"] = 1.0
        path = tmp_path / "unhardened.json"
        path.write_text(json.dumps(scenario))
        assert main(["chaos", str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["crashed"] is not None

    def test_malformed_fault_rule_exits_2(self, tmp_path, capsys):
        scenario = json.loads(
            (FIXTURES / "golden_chaos_scenario.json").read_text()
        )
        scenario["faults"]["rules"][0]["kind"] = "meteor_strike"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        assert main(["chaos", str(path)]) == 2
        assert "chaos scenario error" in capsys.readouterr().err

    def test_unwritable_trace_path_exits_2(self, tmp_path, capsys):
        code = main([
            "chaos", f"{FIXTURES}/golden_chaos_scenario.json",
            "--trace", str(tmp_path / "no" / "such" / "t.jsonl"),
        ])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


    def test_fleet_jobs_flag_is_gone(self, capsys):
        # A chaos run is one host: there is no fleet to shard.
        with pytest.raises(SystemExit) as info:
            main(["chaos", "examples/chaos.json", "--fleet-jobs", "2"])
        assert info.value.code == 2
        assert "--fleet-jobs" in capsys.readouterr().err


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "command", ["scenario", "churn", "chaos", "serve", "loadtest"]
    )
    @pytest.mark.parametrize(
        "text, detail",
        [
            ('{"vms": [', "invalid JSON at line 1 column 10"),
            ("[1, 2]", "expected an object, got list"),
        ],
        ids=["truncated", "top_level_list"],
    )
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command, text, detail):
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert f"{str(path)!r}: {detail}" in err
        assert "Traceback" not in err


SCENARIO = {
    "machine": {"socket": "xeon_e5", "seed": 7},
    "manager": {"type": "dcat"},
    "duration_s": 2,
    "vms": [{"name": "a", "baseline_ways": 3,
             "workload": {"type": "mlr", "wss_mb": 2}}],
}
CHURN = {
    "fleet": {"machines": 2},
    "duration_s": 2,
    "tenants": [{"name": "t", "workload": {"type": "mlr", "wss_mb": 2}}],
}
SHARED_WITH_FAULTS = dict(
    CHURN,
    manager={"type": "shared"},
    faults={"seed": 1, "rules": [{"kind": "sample_zeroed"}]},
)


def _edited(document, dotted, value):
    """A deep copy of ``document`` with the field at ``dotted`` replaced."""
    doc = json.loads(json.dumps(document))
    *parents, last = [int(k) if k.isdigit() else k for k in dotted.split(".")]
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


CHAOS = json.loads((FIXTURES / "golden_chaos_scenario.json").read_text())


class TestMalformedFields:
    """One bad field per document: exit 2, its path on stderr, no traceback."""

    @pytest.mark.parametrize(
        "command, document, field, extra",
        [
            ("scenario", _edited(SCENARIO, "machine.seed", "x"), "machine.seed", []),
            ("scenario", _edited(SCENARIO, "vms.0.baseline_ways", "three"),
             "vms[0].baseline_ways", []),
            ("scenario", _edited(SCENARIO, "duration_s", "long"), "duration_s", []),
            ("scenario", _edited(SCENARIO, "vms", "nope"), "vms", []),
            ("scenario", _edited(SCENARIO, "machine", []), "machine", []),
            ("scenario", _edited(SCENARIO, "vms.0.workload.wss_mb", "8"),
             "vms[0].workload.wss_mb", []),
            ("scenario", _edited(SCENARIO, "manager.config", []),
             "manager.config", []),
            ("chaos", _edited(CHAOS, "patience", "soon"), "patience", []),
            ("churn", _edited(CHURN, "tenants.0.workload.wss_mb", [1]),
             "tenants[0].workload.wss_mb", []),
            ("churn", SHARED_WITH_FAULTS, "faults", ["--fleet-jobs", "2"]),
        ],
        ids=[
            "scenario-machine-seed",
            "scenario-baseline-ways",
            "scenario-duration",
            "scenario-vms",
            "scenario-machine-list",
            "scenario-wss-string",
            "scenario-manager-config-list",
            "chaos-patience",
            "churn-wss-list",
            "churn-faults-shared-parallel",
        ],
    )
    def test_exits_2_naming_the_field(
        self, tmp_path, capfd, command, document, field, extra
    ):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        assert main([command, str(path), *extra]) == 2
        err = capfd.readouterr().err
        assert f"{field}: " in err
        assert "Traceback" not in err

    def test_faults_need_dcat_same_text_serial_and_parallel(self, tmp_path, capfd):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(SHARED_WITH_FAULTS))
        errs = []
        for jobs in ("1", "2"):
            assert main(["churn", str(path), "--fleet-jobs", jobs]) == 2
            errs.append(capfd.readouterr().err)
        assert errs[0] == errs[1]
        assert "faults: fault injection requires a dcat manager" in errs[0]


class TestBenchExitCodes:
    def test_quick_bench_writes_valid_payload(self, tmp_path, capsys):
        from repro.obs.bench import validate_bench_payload

        out = tmp_path / "BENCH.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert f"wrote {out}" in stdout
        payload = json.loads(out.read_text())
        validate_bench_payload(payload)
        assert payload["quick"] is True

    def test_unwritable_out_exits_2(self, tmp_path, capsys, monkeypatch):
        import repro.obs.bench as bench_mod

        # Stub the timing sweep: this test pins the error path, not perf.
        fake = {
            "format": bench_mod.BENCH_FORMAT,
            "quick": True,
            "benchmarks": [
                {"name": f"b{i}", "note": "n", "iterations": 1, "repeats": 1,
                 "best_s": 1e-6, "median_s": 1e-6, "mean_s": 1e-6}
                for i in range(bench_mod.MIN_BENCHMARKS)
            ],
        }
        monkeypatch.setattr(bench_mod, "run_bench", lambda quick=False: fake)
        code = main([
            "bench", "--out", str(tmp_path / "no" / "such" / "B.json")
        ])
        assert code == 2
        assert "cannot write bench payload" in capsys.readouterr().err


class TestServiceExitCodes:
    SERVICE = {
        "fleet": {"machines": 1, "socket": "xeon_d", "seed": 7},
        "manager": {"type": "dcat"},
        "service": {"tick_interval_s": 0.02},
    }

    def test_serve_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "absent.json")]) == 2
        assert "neither a file nor valid JSON" in capsys.readouterr().err

    def test_serve_batch_keys_rejected_before_listening(self, tmp_path, capsys):
        config = dict(self.SERVICE, tenants=[])
        path = tmp_path / "svc.json"
        path.write_text(json.dumps(config))
        assert main(["serve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "tenants" in err
        assert "daemon owns" in err

    def test_serve_bad_tick_interval_exits_2(self, tmp_path, capsys):
        config = dict(self.SERVICE, service={"tick_interval_s": 0})
        path = tmp_path / "svc.json"
        path.write_text(json.dumps(config))
        assert main(["serve", str(path)]) == 2
        assert "tick_interval_s" in capsys.readouterr().err

    def test_loadtest_bad_config_exits_2(self, tmp_path, capsys):
        assert main(["loadtest", str(tmp_path / "absent.json")]) == 2
        assert "neither a file nor valid JSON" in capsys.readouterr().err

    def test_loadtest_unwritable_out_exits_2(self, tmp_path, capsys):
        path = tmp_path / "svc.json"
        path.write_text(json.dumps(self.SERVICE))
        code = main([
            "loadtest", str(path), "--quick",
            "--rps", "10", "--duration", "0.5",
            "--out", str(tmp_path / "no" / "such" / "B.json"),
        ])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_quick_loadtest_exits_0_and_writes_valid_bench(self, tmp_path, capsys):
        from repro.service.loadgen import validate_service_bench

        path = tmp_path / "svc.json"
        path.write_text(json.dumps(self.SERVICE))
        out = tmp_path / "BENCH_service.json"
        code = main([
            "loadtest", str(path), "--quick",
            "--rps", "15", "--duration", "1.0", "--out", str(out),
        ])
        assert code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        payload = validate_service_bench(json.loads(out.read_text()))
        assert payload["quick"] is True


def test_list_prints_every_experiment(capsys):
    from repro.harness.registry import EXPERIMENTS

    assert main(["list"]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == list(EXPERIMENTS)
