"""Tests for the JSON scenario-file runner and its CLI subcommand."""

import json

import pytest

from repro.harness.scenario_file import (
    ScenarioError,
    load_scenario,
    run_scenario_file,
)


BASIC = {
    "machine": {"socket": "xeon_e5", "seed": 9},
    "manager": {"type": "dcat"},
    "duration_s": 8,
    "vms": [
        {"name": "hungry", "baseline_ways": 3,
         "workload": {"type": "mlr", "wss_mb": 8, "start_delay_s": 1}},
        {"name": "spin", "baseline_ways": 3, "workload": {"type": "lookbusy"}},
    ],
}


class TestLoading:
    def test_dict_source(self):
        machine, vms, manager, duration, fidelity = load_scenario(BASIC)
        assert machine.spec.name == "Xeon E5-2697 v4"
        assert [vm.name for vm in vms] == ["hungry", "spin"]
        assert manager.name == "dcat"
        assert duration == 8.0
        assert fidelity == {"mode": "analytical"}

    def test_json_string_source(self):
        machine, vms, *_ = load_scenario(json.dumps(BASIC))
        assert len(vms) == 2

    def test_file_source(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(BASIC))
        machine, vms, *_ = load_scenario(path)
        assert len(vms) == 2

    def test_garbage_source(self):
        with pytest.raises(ScenarioError, match="neither a file nor valid JSON"):
            load_scenario("not json and not a path")

    def test_vms_are_pinned(self):
        _, vms, *_ = load_scenario(BASIC)
        assert all(vm.vcpus for vm in vms)

    def test_all_workload_types_construct(self):
        data = dict(BASIC)
        data["vms"] = [
            {"name": "a", "workload": {"type": "mlr", "wss_mb": 4}},
            {"name": "b", "workload": {"type": "mload"}},
            {"name": "c", "workload": {"type": "lookbusy"}},
            {"name": "d", "workload": {"type": "spec", "benchmark": "omnetpp"}},
            {"name": "e", "workload": {"type": "redis"}},
            {"name": "f", "workload": {"type": "postgres"}},
            {"name": "g", "workload": {"type": "elasticsearch"}},
        ]
        _, vms, *_ = load_scenario(data)
        assert len(vms) == 7

    def test_policy_parsed(self):
        data = dict(BASIC)
        data["manager"] = {
            "type": "dcat", "config": {"policy": "max_performance"}
        }
        _, _, manager, *_ = load_scenario(data)
        assert manager.config.policy == "max_performance"


class TestValidation:
    def test_missing_vms(self):
        with pytest.raises(ScenarioError, match="'vms'"):
            load_scenario({"duration_s": 5})

    def test_unknown_workload_type(self):
        data = dict(BASIC)
        data["vms"] = [{"name": "x", "workload": {"type": "doom"}}]
        with pytest.raises(ScenarioError, match="unknown workload type"):
            load_scenario(data)

    def test_workload_without_type(self):
        data = dict(BASIC)
        data["vms"] = [{"name": "x", "workload": {}}]
        with pytest.raises(ScenarioError, match="'type'"):
            load_scenario(data)

    def test_unknown_manager(self):
        data = dict(BASIC)
        data["manager"] = {"type": "magic"}
        with pytest.raises(ScenarioError, match="unknown manager"):
            load_scenario(data)

    def test_bad_dcat_config_key(self):
        data = dict(BASIC)
        data["manager"] = {"type": "dcat", "config": {"nonsense_knob": 1}}
        with pytest.raises(ScenarioError, match="bad dcat config"):
            load_scenario(data)

    @pytest.mark.parametrize(
        "knob",
        [
            "sampler_max_retries",
            "l3ca_max_retries",
            "verify_mask_writes",
            "max_plausible_ipc",
            "max_plausible_cycles_slack",
            "quarantine_after",
            "flush_reassigned_ways",
        ],
    )
    def test_hardening_budgets_are_not_config_keys(self, knob):
        # Constants of repro.core.controller, not DCatConfig fields.
        data = dict(BASIC)
        data["manager"] = {"type": "dcat", "config": {knob: 1}}
        with pytest.raises(ScenarioError, match="bad dcat config"):
            load_scenario(data)

    def test_bad_policy(self):
        data = dict(BASIC)
        data["manager"] = {"type": "dcat", "config": {"policy": "max_chaos"}}
        with pytest.raises(ScenarioError, match="registered strategies"):
            load_scenario(data)

    def test_unknown_socket(self):
        data = dict(BASIC)
        data["machine"] = {"socket": "epyc"}
        with pytest.raises(ScenarioError, match="unknown socket"):
            load_scenario(data)

    def test_duplicate_names(self):
        data = dict(BASIC)
        data["vms"] = [
            {"name": "x", "workload": {"type": "lookbusy"}},
            {"name": "x", "workload": {"type": "lookbusy"}},
        ]
        with pytest.raises(ScenarioError, match="duplicate"):
            load_scenario(data)

    def test_spec_needs_benchmark(self):
        data = dict(BASIC)
        data["vms"] = [{"name": "x", "workload": {"type": "spec"}}]
        with pytest.raises(ScenarioError, match="benchmark"):
            load_scenario(data)

    def test_bad_duration(self):
        data = dict(BASIC)
        data["duration_s"] = 0
        with pytest.raises(ScenarioError, match="duration"):
            load_scenario(data)

    def test_unknown_fidelity(self):
        data = dict(BASIC)
        data["fidelity"] = "quantum"
        with pytest.raises(ScenarioError, match="fidelity.mode: unknown fidelity"):
            load_scenario(data)

    def test_fidelity_object_without_mode(self):
        data = dict(BASIC)
        data["fidelity"] = {"sample_rate": 0.5}
        with pytest.raises(ScenarioError, match="fidelity.mode: missing"):
            load_scenario(data)

    def test_fidelity_bad_option(self):
        data = dict(BASIC)
        data["fidelity"] = {"mode": "exact", "sample_rate": 0.5}
        with pytest.raises(ScenarioError, match="does not accept option"):
            load_scenario(data)

    def test_fidelity_conflicts_with_legacy_exact(self, tmp_path, capsys):
        """The retired ``exact`` key is refused everywhere, naming ``fidelity``."""
        from repro.cloud.scenario import ChurnScenarioError, load_churn_scenario
        from repro.harness.cli import main

        def assert_names_replacement(message):
            assert "exact" in message
            assert '"fidelity": "exact"' in message

        for extra in ({}, {"fidelity": "analytical"}):
            data = {**BASIC, "exact": True, **extra}
            with pytest.raises(ScenarioError) as single:
                load_scenario(data)
            assert_names_replacement(str(single.value))

        churn = {
            "fleet": {"machines": 1},
            "duration_s": 2,
            "exact": True,
            "tenants": [{"name": "t", "workload": {"type": "mlr", "wss_mb": 2}}],
        }
        with pytest.raises(ChurnScenarioError) as fleet:
            load_churn_scenario(churn)
        assert_names_replacement(str(fleet.value))
        # An override does not hide the retired key in the file.
        with pytest.raises(ChurnScenarioError):
            load_churn_scenario(churn, fidelity="analytical")

        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(churn))
        assert main(["churn", str(path)]) == 2
        assert_names_replacement(capsys.readouterr().err)


class TestRunning:
    def test_end_to_end(self):
        result = run_scenario_file(BASIC)
        assert len(result.timeline("hungry")) == 8
        # dCat grew the hungry tenant beyond its baseline.
        assert result.final("hungry", "ways") > 3

    def test_exact_fidelity_field(self):
        data = dict(BASIC)
        data["fidelity"] = "exact"
        data["duration_s"] = 4
        data["vms"] = [
            {"name": "hungry", "baseline_ways": 3,
             "workload": {"type": "mlr", "wss_mb": 2}},
        ]
        assert load_scenario(data)[4] == {"mode": "exact"}
        result = run_scenario_file(data)
        assert len(result.timeline("hungry")) == 4

    def test_fidelity_string_field(self):
        data = dict(BASIC)
        data["fidelity"] = "mixed"
        assert load_scenario(data)[4] == {"mode": "mixed"}

    def test_fidelity_object_field(self):
        data = dict(BASIC)
        data["fidelity"] = {"mode": "mixed", "sample_rate": 0.5, "tolerance": 0.2}
        spec = load_scenario(data)[4]
        assert spec["mode"] == "mixed"
        assert spec["sample_rate"] == 0.5

    def test_fidelity_override_wins(self):
        data = dict(BASIC)
        data["duration_s"] = 2
        result = run_scenario_file(data, fidelity="analytical")
        assert len(result.timeline("hungry")) == 2

    def test_cli_scenario_subcommand(self, tmp_path, capsys):
        from repro.harness.cli import main

        path = tmp_path / "s.json"
        path.write_text(json.dumps(BASIC))
        assert main(["scenario", str(path), "--vm", "hungry"]) == 0
        out = capsys.readouterr().out
        assert "hungry" in out and "ways" in out

    def test_cli_scenario_error_exit_code(self, capsys):
        from repro.harness.cli import main

        assert main(["scenario", "{}"]) == 2
