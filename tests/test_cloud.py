"""Tests for repro.cloud: tenant lifecycle, placement, fleet churn, SLO.

The cloud layer is the paper's claimed setting (IaaS with tenants coming
and going); these tests pin its determinism contract, the admission and
placement decisions, mid-run attach/detach through the simulation, and the
churn-scenario file format with its field-contextual errors.
"""

import json

import pytest

from repro.cloud import (
    CloudFleet,
    ChurnScenarioError,
    FirstFitPolicy,
    FleetMachine,
    LeastLoadedPolicy,
    MixEntry,
    SensitivityAwarePolicy,
    SloAccountant,
    cache_sensitivity,
    load_churn_scenario,
    poisson_tenants,
    run_churn_scenario,
    scripted_tenants,
)
from repro.cloud import scenario as cloud_scenario
from repro.cloud.lifecycle import TenantSpec
from repro.core import policies
from repro.cpu.socket import SocketSpec
from repro.engine.events import (
    EventBus,
    JsonlTraceWriter,
    TenantAdmitted,
    TenantDeparted,
    TenantPlaced,
    TenantRejected,
    WorkloadDeregistered,
    WorkloadRegistered,
    use_bus,
)
from repro.harness import cli, scenario_file
from repro.harness.scenario_file import build_workload
from repro.platform.machine import Machine
from repro.platform.managers import DCatManager, SharedCacheManager, StaticCatManager
from repro.platform.sim import CloudSimulation
from repro.platform.vm import VirtualMachine


def make_machine(seed=7):
    return Machine(spec=SocketSpec.xeon_d(), seed=seed)


def make_fleet_machine(name="m0", seed=7):
    return FleetMachine(
        name=name, machine=make_machine(seed), manager=DCatManager()
    )


MIX = [
    MixEntry(workload={"type": "mlr", "wss_mb": 8}, baseline_ways=3),
    MixEntry(workload={"type": "lookbusy"}, baseline_ways=2, weight=0.5),
]


SCENARIO = {
    "fleet": {"machines": 2, "socket": "xeon_d", "seed": 7},
    "manager": {"type": "dcat"},
    "placement": "least_loaded",
    "duration_s": 10,
    "tenants": [
        {"name": "db", "arrival_s": 0, "baseline_ways": 4, "lifetime_s": 6,
         "workload": {"type": "postgres"}},
        {"name": "kv", "arrival_s": 2, "baseline_ways": 3,
         "workload": {"type": "redis"}},
    ],
}


class TestPoissonTenants:
    def test_same_seed_same_trace(self):
        a = poisson_tenants(rate_per_s=0.5, duration_s=40, mix=MIX, seed=11)
        b = poisson_tenants(rate_per_s=0.5, duration_s=40, mix=MIX, seed=11)
        assert a == b

    def test_different_seed_different_trace(self):
        a = poisson_tenants(rate_per_s=0.5, duration_s=40, mix=MIX, seed=11)
        b = poisson_tenants(rate_per_s=0.5, duration_s=40, mix=MIX, seed=12)
        assert a != b

    def test_sorted_unique_and_bounded(self):
        tenants = poisson_tenants(rate_per_s=0.5, duration_s=40, mix=MIX, seed=3)
        arrivals = [t.arrival_s for t in tenants]
        assert arrivals == sorted(arrivals)
        assert all(0 <= t.arrival_s < 40 for t in tenants)
        names = [t.name for t in tenants]
        assert len(set(names)) == len(names)

    def test_mix_fields_flow_through(self):
        tenants = poisson_tenants(rate_per_s=1.0, duration_s=30, mix=MIX, seed=3)
        assert tenants, "expected some arrivals at rate 1.0 over 30 s"
        assert {t.baseline_ways for t in tenants} <= {2, 3}
        assert all(t.lifetime_s > 0 for t in tenants)


class TestScriptedTenants:
    def test_sorts_by_arrival(self):
        late = TenantSpec("late", 9.0, 2, {"type": "lookbusy"})
        early = TenantSpec("early", 1.0, 2, {"type": "lookbusy"})
        assert [t.name for t in scripted_tenants([late, early])] == [
            "early", "late",
        ]

    def test_duplicate_names_rejected(self):
        a = TenantSpec("a", 0.0, 2, {"type": "lookbusy"})
        with pytest.raises(ValueError, match="duplicate"):
            scripted_tenants([a, a])

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="arrival_s"):
            TenantSpec("x", -1.0, 2, {"type": "lookbusy"})
        with pytest.raises(ValueError, match="baseline_ways"):
            TenantSpec("x", 0.0, 0, {"type": "lookbusy"})
        with pytest.raises(ValueError, match="lifetime_s"):
            TenantSpec("x", 0.0, 2, {"type": "lookbusy"}, lifetime_s=0.0)
        with pytest.raises(ValueError, match="'type'"):
            TenantSpec("x", 0.0, 2, {})


class TestPlacement:
    def _spec(self, name, workload, ways=3):
        return TenantSpec(name, 0.0, ways, workload)

    def _workload(self, spec, name="w"):
        return build_workload(spec["type"], name, dict(spec))

    def test_sensitivity_signal(self):
        fm = make_fleet_machine()
        sensitive = self._workload({"type": "mlr", "wss_mb": 8})
        insensitive = self._workload({"type": "lookbusy"})
        assert cache_sensitivity(sensitive, fm, 3) > 0.01
        assert cache_sensitivity(insensitive, fm, 3) <= 0.01

    def test_first_fit_takes_first_fitting(self):
        m0, m1 = make_fleet_machine("m0"), make_fleet_machine("m1", seed=8)
        spec = self._spec("t", {"type": "lookbusy"})
        policy = FirstFitPolicy()
        chosen = policy.place(spec, self._workload(spec.workload), policy.index([m0, m1]))
        assert chosen is m0

    def test_first_fit_skips_full_machine(self):
        m0, m1 = make_fleet_machine("m0"), make_fleet_machine("m1", seed=8)
        big = self._spec("big", {"type": "lookbusy"}, ways=11)
        m0.admit(big, self._workload(big.workload, "big"), now=0.0)
        spec = self._spec("t", {"type": "lookbusy"}, ways=4)
        policy = FirstFitPolicy()
        chosen = policy.place(spec, self._workload(spec.workload), policy.index([m0, m1]))
        assert chosen is m1

    def test_least_loaded_prefers_emptier_machine(self):
        m0, m1 = make_fleet_machine("m0"), make_fleet_machine("m1", seed=8)
        anchor = self._spec("anchor", {"type": "lookbusy"}, ways=5)
        m0.admit(anchor, self._workload(anchor.workload, "anchor"), now=0.0)
        spec = self._spec("t", {"type": "lookbusy"})
        policy = LeastLoadedPolicy()
        chosen = policy.place(spec, self._workload(spec.workload), policy.index([m0, m1]))
        assert chosen is m1

    def test_sensitivity_aware_splits_by_curvature(self):
        m0, m1 = make_fleet_machine("m0"), make_fleet_machine("m1", seed=8)
        anchor = self._spec("anchor", {"type": "lookbusy"}, ways=5)
        m0.admit(anchor, self._workload(anchor.workload, "anchor"), now=0.0)
        policy = SensitivityAwarePolicy()
        cache_hungry = self._spec("hungry", {"type": "mlr", "wss_mb": 8})
        spinner = self._spec("spin", {"type": "lookbusy"})
        # The sensitive tenant gets the machine with the most headroom ...
        assert policy.place(
            cache_hungry,
            self._workload(cache_hungry.workload, "hungry"),
            policy.index([m0, m1]),
        ) is m1
        # ... while the insensitive one is packed onto the loaded machine.
        assert policy.place(
            spinner, self._workload(spinner.workload, "spin"), policy.index([m0, m1])
        ) is m0

    def test_no_capacity_returns_none(self):
        m0 = make_fleet_machine("m0")
        big = self._spec("big", {"type": "lookbusy"}, ways=12)
        m0.admit(big, self._workload(big.workload, "big"), now=0.0)
        spec = self._spec("t", {"type": "lookbusy"})
        for policy in (FirstFitPolicy(), LeastLoadedPolicy(), SensitivityAwarePolicy()):
            assert policy.place(
                spec, self._workload(spec.workload), policy.index([m0])
            ) is None

    def test_sensitivity_depends_on_host_geometry(self):
        # An 8 MB working set behind a 4-way reservation: starved on the
        # Xeon-D (4 x 1 MB ways) but already fully resident on the E5
        # (4 x 2.25 MB = 9 MB), so the same workload scores sensitive on
        # one host and insensitive on the other.
        d = make_fleet_machine("d")
        e5 = FleetMachine(
            name="e5",
            machine=Machine(spec=SocketSpec.xeon_e5_2697v4(), seed=7),
            manager=DCatManager(),
        )
        w = self._workload({"type": "mlr", "wss_mb": 8})
        assert cache_sensitivity(w, d, 4) > 0.01
        assert cache_sensitivity(w, e5, 4) <= 0.01

    def test_sensitivity_judged_against_would_be_placement(self):
        # Mixed-geometry fleet, Xeon-D listed first.  The headroom machine
        # (most free ways) is the E5, where the tenant is insensitive, so
        # the policy must pack it tightly instead of granting headroom —
        # judging sensitivity against the first machine in fleet order
        # (the D, where the tenant looks starved) would wrongly park it on
        # the E5's spare ways.
        d = make_fleet_machine("d")
        e5 = FleetMachine(
            name="e5",
            machine=Machine(spec=SocketSpec.xeon_e5_2697v4(), seed=7),
            manager=DCatManager(),
        )
        spec = self._spec("t", {"type": "mlr", "wss_mb": 8}, ways=4)
        policy = SensitivityAwarePolicy()
        chosen = policy.place(spec, self._workload(spec.workload), policy.index([d, e5]))
        assert chosen is d  # packed: fewest free ways among fitting machines
        # D-only fleet: the would-be host is the D, where 4 MB of ways
        # cannot hold 8 MB, so the tenant is sensitive and keeps headroom.
        assert policy.place(spec, self._workload(spec.workload), policy.index([d])) is d


class TestFleetMachine:
    def test_admit_pins_lowest_threads_and_reserves(self):
        fm = make_fleet_machine()
        spec = TenantSpec("a", 0.0, 4, {"type": "lookbusy"})
        vm = fm.admit(spec, build_workload("lookbusy", "a", {"type": "lookbusy"}), 0.0)
        assert vm.vcpus == (0, 1)
        assert fm.reserved_ways == 4
        assert fm.free_ways == fm.machine.num_ways - 4

    def test_depart_returns_resources(self):
        fm = make_fleet_machine()
        spec = TenantSpec("a", 0.0, 4, {"type": "lookbusy"})
        fm.admit(spec, build_workload("lookbusy", "a", {"type": "lookbusy"}), 0.0)
        fm.depart("a")
        assert fm.reserved_ways == 0
        assert "a" not in fm.residents
        # The freed threads are reused by the next tenant.
        spec2 = TenantSpec("b", 0.0, 3, {"type": "lookbusy"})
        vm = fm.admit(spec2, build_workload("lookbusy", "b", {"type": "lookbusy"}), 1.0)
        assert vm.vcpus == (0, 1)

    def test_fits_rejects_way_overcommit(self):
        fm = make_fleet_machine()
        assert fm.fits(12)
        assert not fm.fits(13)
        spec = TenantSpec("a", 0.0, 10, {"type": "lookbusy"})
        fm.admit(spec, build_workload("lookbusy", "a", {"type": "lookbusy"}), 0.0)
        assert fm.fits(2)
        assert not fm.fits(3)

    def test_thread_slots_bound_admissions(self):
        fm = make_fleet_machine()
        # Xeon-D: 16 hardware threads / 2 vCPUs per VM = 8 slots.
        assert fm.free_thread_slots == 8
        for i in range(8):
            spec = TenantSpec(f"t{i}", 0.0, 1, {"type": "lookbusy"})
            fm.admit(spec, build_workload("lookbusy", f"t{i}", {"type": "lookbusy"}), 0.0)
        assert fm.free_thread_slots == 0
        assert not fm.fits(1)


class TestCloudFleetChurn:
    def test_scripted_churn_end_to_end(self):
        result = run_churn_scenario(SCENARIO)
        assert [p.reason for p in result.placements] == ["placed", "placed"]
        machines = {p.machine for p in result.placements}
        assert machines == {"m0", "m1"}  # least-loaded spreads the pair
        # db's 6 s lease expired mid-run; its timeline stops growing.
        db = result.tenants["db"]
        assert db.departed_s is not None
        assert db.departed_s <= 10.0
        assert result.tenants["kv"].departed_s is None
        assert set(result.summary) == {
            "tenants",
            "active_intervals",
            "violation_intervals",
            "violation_fraction",
            "mean_normalized_ipc",
        }
        assert result.summary["tenants"] == 2.0

    def test_rejection_when_fleet_full(self):
        scenario = dict(SCENARIO)
        scenario["fleet"] = {"machines": 1, "socket": "xeon_d", "seed": 7}
        scenario["tenants"] = [
            {"name": "a", "arrival_s": 0, "baseline_ways": 10,
             "workload": {"type": "lookbusy"}},
            {"name": "b", "arrival_s": 1, "baseline_ways": 10,
             "workload": {"type": "lookbusy"}},
        ]
        result = run_churn_scenario(scenario)
        assert [p.reason for p in result.placements] == ["placed", "no-ways"]
        assert result.rejected[0].tenant_id == "b"
        assert "b" not in result.tenants

    def test_departed_timelines_kept_reportable(self):
        result = run_churn_scenario(SCENARIO)
        db_machine = result.tenants["db"].machine
        timeline = result.machines[db_machine].timeline("db")
        assert timeline, "departed tenant's records must survive detach"
        assert timeline[-1].time_s < 10.0

    def test_same_scenario_same_result(self):
        a = run_churn_scenario(SCENARIO)
        b = run_churn_scenario(SCENARIO)
        assert a.placements == b.placements
        assert a.summary == b.summary
        for name in a.machines:
            assert a.machines[name].records == b.machines[name].records

    def test_fleet_interval_mismatch_rejected(self):
        m0 = make_fleet_machine("m0")
        m1 = FleetMachine(
            name="m1",
            machine=Machine(spec=SocketSpec.xeon_d(), seed=8, interval_s=0.5),
            manager=DCatManager(),
        )
        with pytest.raises(ValueError, match="interval_s"):
            CloudFleet([m0, m1], FirstFitPolicy(), [])


class TestLifecycleEventsOnBus:
    def _run_with_bus(self, scenario):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        # The bus must be the process default *before* construction so the
        # managers' controllers adopt it — exactly how --trace installs it.
        with use_bus(bus):
            fleet, duration = load_churn_scenario(scenario)
            fleet.run(duration)
        return seen

    def test_tenant_and_workload_events_emitted(self):
        seen = self._run_with_bus(SCENARIO)
        kinds = {type(e) for e in seen}
        assert {TenantPlaced, TenantAdmitted, TenantDeparted} <= kinds
        assert {WorkloadRegistered, WorkloadDeregistered} <= kinds
        placed = [e for e in seen if isinstance(e, TenantPlaced)]
        assert {e.tenant_id for e in placed} == {"db", "kv"}
        assert all(e.policy == "least_loaded" for e in placed)
        # Registration follows placement on the same machine's controller.
        registered = [e for e in seen if isinstance(e, WorkloadRegistered)]
        assert {e.workload_id for e in registered} == {"db", "kv"}
        departed = [e for e in seen if isinstance(e, TenantDeparted)]
        assert [e.tenant_id for e in departed] == ["db"]
        assert departed[0].reason == "lease-end"

    def test_rejection_event(self):
        scenario = dict(SCENARIO)
        scenario["fleet"] = {"machines": 1, "socket": "xeon_d", "seed": 7}
        scenario["tenants"] = [
            {"name": "a", "arrival_s": 0, "baseline_ways": 10,
             "workload": {"type": "lookbusy"}},
            {"name": "b", "arrival_s": 1, "baseline_ways": 10,
             "workload": {"type": "lookbusy"}},
        ]
        seen = self._run_with_bus(scenario)
        rejected = [e for e in seen if isinstance(e, TenantRejected)]
        assert [(e.tenant_id, e.reason) for e in rejected] == [("b", "no-ways")]

    def test_jsonl_trace_includes_lifecycle(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = EventBus()
        with JsonlTraceWriter(str(path)) as writer:
            bus.subscribe(writer)
            with use_bus(bus):
                fleet, duration = load_churn_scenario(SCENARIO)
                fleet.run(duration)
        events = [json.loads(line)["event"] for line in path.read_text().splitlines()]
        for kind in (
            "TenantPlaced",
            "TenantAdmitted",
            "TenantDeparted",
            "WorkloadRegistered",
            "WorkloadDeregistered",
        ):
            assert kind in events


class TestSloAccounting:
    def test_violation_spans_merge(self):
        acct = SloAccountant(interval_s=1.0, tolerance=0.05)
        acct.admitted("t", "m0", 0.0)
        for t in range(3):
            acct.observe("t", float(t), ipc=0.5, entitled_ipc=1.0, active=True)
        acct.observe("t", 3.0, ipc=1.0, entitled_ipc=1.0, active=True)
        stats = acct.tenants["t"]
        assert stats.violation_intervals == 3
        assert stats.violation_spans == [(0.0, 3.0)]
        assert stats.active_intervals == 4

    def test_tolerance_absorbs_small_shortfall(self):
        acct = SloAccountant(interval_s=1.0, tolerance=0.05)
        acct.admitted("t", "m0", 0.0)
        acct.observe("t", 0.0, ipc=0.97, entitled_ipc=1.0, active=True)
        assert acct.tenants["t"].violation_intervals == 0

    def test_idle_intervals_not_counted(self):
        acct = SloAccountant(interval_s=1.0, tolerance=0.05)
        acct.admitted("t", "m0", 0.0)
        acct.observe("t", 0.0, ipc=0.0, entitled_ipc=1.0, active=False)
        stats = acct.tenants["t"]
        assert stats.active_intervals == 0
        assert stats.violation_intervals == 0

    def test_spans_merge_over_long_runs(self):
        """Span adjacency must be judged at interval scale, not epsilon.

        Past t ~ 1e7 with millisecond intervals, float64 cannot represent
        successive interval starts to 1e-9, so an absolute-epsilon merge
        test splits one contiguous violation into hundreds of spans.
        """
        t0 = 1.0e7
        interval = 1e-3
        acct = SloAccountant(interval_s=interval, tolerance=0.05)
        acct.admitted("t", "m0", t0)
        for i in range(300):
            # Accumulated the way a long simulation produces timestamps.
            acct.observe(
                "t", t0 + i * interval, ipc=0.5, entitled_ipc=1.0, active=True
            )
        stats = acct.tenants["t"]
        assert stats.violation_intervals == 300
        assert len(stats.violation_spans) == 1
        start, end = stats.violation_spans[0]
        assert start == t0
        assert end == pytest.approx(t0 + 300 * interval)

    def test_distinct_violations_stay_separate_spans(self):
        acct = SloAccountant(interval_s=1.0, tolerance=0.05)
        acct.admitted("t", "m0", 0.0)
        acct.observe("t", 0.0, ipc=0.5, entitled_ipc=1.0, active=True)
        acct.observe("t", 5.0, ipc=0.5, entitled_ipc=1.0, active=True)
        assert acct.tenants["t"].violation_spans == [(0.0, 1.0), (5.0, 6.0)]

    def test_fleet_summary_aggregates(self):
        acct = SloAccountant(interval_s=1.0, tolerance=0.0)
        acct.admitted("a", "m0", 0.0)
        acct.admitted("b", "m1", 0.0)
        acct.observe("a", 0.0, ipc=2.0, entitled_ipc=1.0, active=True)
        acct.observe("b", 0.0, ipc=0.5, entitled_ipc=1.0, active=True)
        summary = acct.fleet_summary()
        assert summary["tenants"] == 2.0
        assert summary["active_intervals"] == 2.0
        assert summary["violation_intervals"] == 1.0
        assert summary["violation_fraction"] == 0.5
        assert summary["mean_normalized_ipc"] == pytest.approx(1.25)


class TestSimAttachDetach:
    def _sim(self):
        machine = make_machine()
        vm = VirtualMachine(
            name="resident",
            workload=build_workload("lookbusy", "resident", {"type": "lookbusy"}),
            vcpus=(0, 1),
            baseline_ways=3,
        )
        sim = CloudSimulation(machine, [vm], DCatManager())
        return sim

    def _vm(self, name, vcpus):
        return VirtualMachine(
            name=name,
            workload=build_workload("lookbusy", name, {"type": "lookbusy"}),
            vcpus=vcpus,
            baseline_ways=3,
        )

    def test_attach_duplicate_name_rejected(self):
        sim = self._sim()
        with pytest.raises(ValueError, match="already attached"):
            sim.attach_vm(self._vm("resident", (2, 3)))

    def test_attach_overlapping_vcpus_rejected(self):
        sim = self._sim()
        with pytest.raises(ValueError, match="overlaps"):
            sim.attach_vm(self._vm("newcomer", (1, 2)))

    def test_attach_then_step_records(self):
        sim = self._sim()
        sim.attach_vm(self._vm("newcomer", (2, 3)))
        sim.step()
        assert len(sim.result.timeline("newcomer")) == 1

    def test_detach_keeps_timeline_and_frees_rmid(self):
        sim = self._sim()
        sim.attach_vm(self._vm("newcomer", (2, 3)))
        sim.step()
        sim.detach_vm("newcomer")
        assert sim.result.timeline("newcomer")
        assert all(vm.name != "newcomer" for vm in sim.vms)
        # The freed RMID (lowest) goes to the next arrival.
        sim.attach_vm(self._vm("third", (4, 5)))
        assert sim._rmid_of["third"] == 2

    def test_detach_unknown_rejected(self):
        sim = self._sim()
        with pytest.raises(ValueError, match="not attached"):
            sim.detach_vm("ghost")


class TestManagerChurnHooks:
    def test_shared_and_static_default_to_noop(self):
        vm = VirtualMachine(
            name="x",
            workload=build_workload("lookbusy", "x", {"type": "lookbusy"}),
            vcpus=(0, 1),
            baseline_ways=3,
        )
        for manager in (SharedCacheManager(), StaticCatManager()):
            manager.attach_vm(vm)
            manager.detach_vm("x")


class TestScenarioManagers:
    @pytest.mark.parametrize("policy", [None, "Max-Performance", "memshare"])
    def test_hosts_share_one_config_resolved_once(self, policy, monkeypatch):
        calls = []
        real = policies.canonical_name

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        for module in (policies, scenario_file, cloud_scenario):
            monkeypatch.setattr(module, "canonical_name", counting)
        per_fleet = []
        for machines in (1, 6):
            calls.clear()
            scenario = dict(
                SCENARIO, fleet={"machines": machines, "socket": "xeon_d", "seed": 7}
            )
            if policy is not None:
                scenario["policy"] = policy
            fleet, _ = load_churn_scenario(scenario)
            per_fleet.append(len(calls))
            assert len({id(m.sim.manager.config) for m in fleet.machines}) == 1
            want = policies.normalize_policy(policy or "max_fairness")
            assert fleet.machines[-1].sim.manager.config.policy == want
        assert per_fleet[0] == per_fleet[1]  # once per scenario, not per host

    def test_shared_and_static_managers_build_fresh_per_host(self):
        for kind, cls in (("shared", SharedCacheManager), ("static", StaticCatManager)):
            scenario = dict(SCENARIO, manager={"type": kind})
            fleet, _ = load_churn_scenario(scenario)
            managers = [m.sim.manager for m in fleet.machines]
            assert all(type(m) is cls for m in managers)
            assert len({id(m) for m in managers}) == len(managers)


class TestChurnScenarioValidation:
    def test_error_names_tenant_entry_and_field(self):
        scenario = dict(SCENARIO)
        scenario["tenants"] = [
            SCENARIO["tenants"][0],
            {"name": "bad", "workload": {"type": "nope"}},
        ]
        with pytest.raises(ChurnScenarioError, match=r"tenants\[1\]\.workload\.type"):
            load_churn_scenario(scenario)

    def test_error_names_mix_entry(self):
        scenario = dict(SCENARIO)
        scenario["poisson"] = {
            "rate_per_s": 0.5,
            "mix": [{"workload": {"type": "mlr", "wss_mb": 8}}, {"workload": {}}],
        }
        with pytest.raises(ChurnScenarioError, match=r"poisson\.mix\[1\]\.workload"):
            load_churn_scenario(scenario)

    def test_bad_placement_listed(self):
        scenario = dict(SCENARIO)
        scenario["placement"] = "random"
        with pytest.raises(ChurnScenarioError, match="placement.*'random'"):
            load_churn_scenario(scenario)

    def test_bad_socket(self):
        scenario = dict(SCENARIO)
        scenario["fleet"] = {"machines": 2, "socket": "epyc"}
        with pytest.raises(ChurnScenarioError, match="fleet.socket"):
            load_churn_scenario(scenario)

    def test_negative_arrival_field_context(self):
        scenario = dict(SCENARIO)
        scenario["tenants"] = [
            {"name": "a", "arrival_s": -2, "workload": {"type": "lookbusy"}},
        ]
        with pytest.raises(ChurnScenarioError, match=r"tenants\[0\]\.arrival_s"):
            load_churn_scenario(scenario)

    def test_duplicate_tenant_names(self):
        scenario = dict(SCENARIO)
        scenario["tenants"] = [
            {"name": "a", "workload": {"type": "lookbusy"}},
            {"name": "a", "workload": {"type": "lookbusy"}},
        ]
        with pytest.raises(ChurnScenarioError, match="duplicate"):
            load_churn_scenario(scenario)

    def test_empty_scenario(self):
        with pytest.raises(ChurnScenarioError, match="tenants"):
            load_churn_scenario({"fleet": {"machines": 1}})

    def test_garbage_source(self):
        with pytest.raises(ChurnScenarioError, match="neither a file nor valid JSON"):
            load_churn_scenario("definitely not json")


class TestExperimentDeterminism:
    def test_poisson_experiment_report_byte_identical(self):
        from repro.harness.experiments.cloud import run_cloud_churn_poisson
        from repro.harness.report import render_experiment

        a = render_experiment(run_cloud_churn_poisson(seed=77))
        b = render_experiment(run_cloud_churn_poisson(seed=77))
        assert a == b
        assert a != render_experiment(run_cloud_churn_poisson(seed=78))


class TestChurnCli:
    def test_cli_runs_file(self, tmp_path, capsys):
        path = tmp_path / "churn.json"
        path.write_text(json.dumps(SCENARIO))
        assert cli.main(["churn", str(path)]) == 0
        out = capsys.readouterr().out
        assert "admissions" in out
        assert "fleet" in out

    def test_cli_validation_error_exits_2(self, tmp_path, capsys):
        bad = dict(SCENARIO)
        bad["tenants"] = [{"name": "a", "workload": {"type": "nope"}}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert cli.main(["churn", str(path)]) == 2
        err = capsys.readouterr().err
        assert "tenants[0].workload.type" in err


class TestChurnFaultInjection:
    def faulted(self, manager=None):
        scenario = dict(SCENARIO)
        if manager is not None:
            scenario["manager"] = manager
        scenario["faults"] = {
            "seed": 11,
            "rules": [
                {"kind": "counter_read_error", "probability": 0.2},
                {"kind": "l3ca_set_fail", "probability": 0.2},
            ],
        }
        return scenario

    def test_per_machine_plans_applied_and_deterministic(self):
        a = run_churn_scenario(self.faulted())
        b = run_churn_scenario(self.faulted())
        assert set(a.faults) == {"m0", "m1"}
        assert any(a.faults.values())  # something actually fired
        assert a.faults == b.faults
        assert a.summary == b.summary
        # per-machine derived seeds give the hosts independent schedules
        fleet, _ = load_churn_scenario(self.faulted())
        seeds = [m.injector.plan.seed for m in fleet.machines]
        assert len(set(seeds)) == len(seeds)

    def test_no_faults_section_means_empty_faults(self):
        result = run_churn_scenario(SCENARIO)
        assert result.faults == {}

    def test_bad_plan_names_field(self):
        scenario = self.faulted()
        scenario["faults"]["rules"][0]["kind"] = "nope"
        with pytest.raises(ChurnScenarioError, match=r"faults: rules\[0\]\.kind"):
            load_churn_scenario(scenario)

    def test_non_dcat_manager_rejected(self):
        scenario = self.faulted(manager={"type": "shared"})
        with pytest.raises(ChurnScenarioError, match="dcat manager"):
            load_churn_scenario(scenario)
