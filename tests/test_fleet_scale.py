"""Fleet-scale guarantees: integer-tick clock, event-driven stepping,
and the process-pool executor's byte-identity contract.

These pin the two bug classes this layer existed to eliminate:

* **Clock drift** — the old fleet accumulated ``now += interval_s`` in
  floats, so after ~1e7 millisecond intervals admission and departure
  boundaries shifted by an interval.  The clock is now a derived
  ``tick * interval_s``, exact at any horizon.
* **Divergent parallelism** — sharding the fleet across worker processes
  must be invisible: same placements, same SLO ledgers, same JSONL
  trace, byte for byte, whatever ``fleet_jobs`` is.
"""

import json
import os
import pickle
import signal
from pathlib import Path

import pytest

from repro.cloud import (
    ChurnScenarioError,
    CloudFleet,
    FleetMachine,
    LeastLoadedPolicy,
    load_churn_scenario,
    run_churn_scenario,
)
from repro.cloud.executor import ParallelCloudFleet
from repro.cloud.lifecycle import TenantSpec
from repro.cpu.socket import SocketSpec
from repro.engine.events import (
    EventBus,
    RingBufferRecorder,
    TenantDeparted,
    use_bus,
)
from repro.errors import FleetWorkerDied
from repro.harness import cli
from repro.platform.machine import Machine
from repro.platform.managers import DCatManager, SharedCacheManager
from repro.platform.sim import CloudSimulation


def make_fleet_machine(name="m0", seed=7, manager=None):
    return FleetMachine(
        name=name,
        machine=Machine(spec=SocketSpec.xeon_d(), seed=seed),
        manager=manager or DCatManager(),
    )


def scenario(machines=3, seed=7, duration=12, interval=1.0, faults=False):
    data = {
        "fleet": {
            "machines": machines,
            "socket": "xeon_d",
            "seed": seed,
            "interval_s": interval,
        },
        "manager": {"type": "dcat"},
        "placement": "least_loaded",
        "duration_s": duration,
        "slo": {"tolerance": 0.05},
        "tenants": [
            {"name": "db", "arrival_s": 0, "baseline_ways": 4,
             "lifetime_s": 6, "workload": {"type": "postgres"}},
            {"name": "kv", "arrival_s": 1, "baseline_ways": 3,
             "workload": {"type": "redis"}},
            {"name": "ml", "arrival_s": 2, "baseline_ways": 3,
             "lifetime_s": 5, "workload": {"type": "mlr", "wss_mb": 8}},
        ],
        "poisson": {
            "rate_per_s": 0.3,
            "seed": seed + 1,
            "mix": [
                {"weight": 1, "baseline_ways": 3, "mean_lifetime_s": 4,
                 "workload": {"type": "lookbusy"}},
            ],
        },
    }
    if faults:
        data["faults"] = {
            "seed": 11,
            "rules": [
                {"kind": "counter_read_error", "probability": 0.2},
                {"kind": "l3ca_set_fail", "probability": 0.2},
            ],
        }
    return data


PLACEMENTS = ("first_fit", "least_loaded", "sensitivity")


# -- integer-tick clock ------------------------------------------------------


class TestIntegerTickClock:
    def test_sim_clock_is_derived_not_accumulated(self):
        machine = Machine(spec=SocketSpec.xeon_d(), seed=1, interval_s=0.001)
        sim = CloudSimulation(machine, [], DCatManager())
        sim.skip_idle(10_000_000)
        assert sim.tick == 10_000_000
        # Exact product, not 1e7 accumulated additions of a non-dyadic
        # float (which lands ~2e-3 s off after this many intervals).
        assert sim._time_s == 10_000_000 * 0.001

    def test_skip_idle_rejects_negative_and_busy(self):
        fm = make_fleet_machine()
        with pytest.raises(ValueError):
            fm.sim.skip_idle(-1)
        spec = TenantSpec(name="t", arrival_s=0.0, baseline_ways=3,
                          workload={"type": "redis"})
        fm.admit(spec, spec.build_workload(), now=0.0)
        with pytest.raises(ValueError, match="attached"):
            fm.sim.skip_idle(5)

    def test_fleet_clock_exact_at_long_horizon(self):
        # Quiescent fleets bulk-skip, so 1e7 ms-intervals cost ~nothing.
        data = {
            "fleet": {"machines": 2, "socket": "xeon_d", "seed": 7,
                      "interval_s": 0.001},
            "manager": {"type": "dcat"},
            "placement": "least_loaded",
            "duration_s": 10_000,
            "tenants": [
                {"name": "late", "arrival_s": 9999.0, "baseline_ways": 3,
                 "lifetime_s": 0.05, "workload": {"type": "redis"}},
            ],
        }
        fleet, duration = load_churn_scenario(data)
        result = fleet.run(duration)
        assert fleet.tick == 10_000_000
        assert fleet.now == fleet.tick * 0.001
        stats = result.tenants["late"]
        # Admission lands on the first tick whose derived time reaches
        # arrival_s — computed with the same arithmetic the fleet uses.
        tick = int(9999.0 / 0.001)
        while tick * 0.001 < 9999.0:
            tick += 1
        assert stats.admitted_s == tick * 0.001
        # The lease is exactly 50 intervals at any horizon: drift in an
        # accumulated clock would stretch or clip it.
        assert stats.active_intervals == 50
        assert stats.departed_s is not None

    def test_machine_of_uses_tenant_index(self):
        machines = [make_fleet_machine(f"m{i}", seed=i) for i in range(3)]
        fleet = CloudFleet(machines=machines, policy=LeastLoadedPolicy(), tenants=[])
        spec = TenantSpec(name="t0", arrival_s=0.0, baseline_ways=3,
                          workload={"type": "redis"})
        record = fleet.admit_tenant(spec)
        assert fleet.machine_of("t0").name == record.machine
        fleet.depart_tenant("t0", reason="detached")
        assert fleet.machine_of("t0") is None
        assert fleet.machine_of("never-admitted") is None


# -- duration contract -------------------------------------------------------


class TestDurationContract:
    def test_run_rejects_non_multiple_duration(self):
        machine = FleetMachine(
            name="m0",
            machine=Machine(spec=SocketSpec.xeon_d(), seed=7, interval_s=0.25),
            manager=DCatManager(),
        )
        fleet = CloudFleet(machines=[machine], policy=LeastLoadedPolicy(),
                           tenants=[])
        with pytest.raises(ValueError, match="whole number of .* intervals"):
            fleet.run(1.1)

    def test_run_rejects_negative_duration(self):
        fleet = CloudFleet(machines=[make_fleet_machine()],
                           policy=LeastLoadedPolicy(), tenants=[])
        with pytest.raises(ValueError):
            fleet.run(-1.0)

    def test_scenario_names_field_on_bad_duration(self):
        data = scenario(duration=12)
        data["duration_s"] = 12.3
        data["fleet"]["interval_s"] = 0.5
        with pytest.raises(
            ChurnScenarioError,
            match=r"scenario\.duration_s: 12\.3 is not a whole number",
        ):
            load_churn_scenario(data)

    def test_cli_bad_duration_exits_2(self, tmp_path, capsys):
        data = scenario()
        data["duration_s"] = 7.77
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli.main(["churn", str(path)]) == 2
        assert "scenario.duration_s" in capsys.readouterr().err


# -- serial vs parallel byte-identity ---------------------------------------


class TestParallelByteIdentity:
    def run_pair(self, data, jobs=2, tmp_path=None):
        kwargs = {}
        results = []
        for n, tag in ((1, "serial"), (jobs, "parallel")):
            if tmp_path is not None:
                kwargs["trace"] = str(tmp_path / f"{tag}.jsonl")
            results.append(
                run_churn_scenario(dict(data), fleet_jobs=n, **kwargs)
            )
        return results

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_churn_results_identical(self, placement):
        a, b = self.run_pair(dict(scenario(), placement=placement))
        assert a.canonical_bytes() == b.canonical_bytes()
        assert a.placements == b.placements
        assert a.summary == b.summary

    def test_churn_results_identical_with_faults(self):
        a, b = self.run_pair(scenario(faults=True), jobs=3)
        assert a.canonical_bytes() == b.canonical_bytes()
        assert a.faults == b.faults
        assert any(a.faults.values())  # the injectors actually fired

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_traces_identical(self, tmp_path, placement):
        self.run_pair(dict(scenario(), placement=placement), tmp_path=tmp_path)
        serial = (tmp_path / "serial.jsonl").read_bytes()
        parallel = (tmp_path / "parallel.jsonl").read_bytes()
        assert serial == parallel
        assert serial  # non-trivial trace

    def test_per_machine_results_identical(self):
        data = scenario()
        f1, d1 = load_churn_scenario(dict(data))
        f1.run(d1)
        r1 = f1.machine_results()
        f1.close()
        f2, d2 = load_churn_scenario(dict(data), fleet_jobs=2)
        try:
            f2.run(d2)
            r2 = f2.machine_results()
        finally:
            f2.close()
        assert list(r1) == list(r2)
        for name in r1:
            assert pickle.dumps(r1[name], protocol=4) == pickle.dumps(
                r2[name], protocol=4
            )

    def test_more_jobs_than_machines(self):
        a, b = self.run_pair(scenario(machines=2), jobs=5)
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_shared_manager_fleet_parallel(self):
        data = scenario()
        data["manager"] = {"type": "shared"}
        del data["slo"]
        a, b = self.run_pair(data)
        assert a.canonical_bytes() == b.canonical_bytes()


class TestFinishedDeparture:
    """A tenant whose workload finished departs ``"finished"`` under one
    rule, however the fleet is sharded."""

    DATA = {
        "fleet": {"machines": 2, "socket": "xeon_d", "seed": 3},
        "manager": {"type": "dcat"},
        "placement": "first_fit",
        "duration_s": 10,
        "tenants": [
            {"name": "short", "arrival_s": 0, "baseline_ways": 2,
             "workload": {"type": "spec", "benchmark": "namd",
                          "instructions": 30000000}},
        ],
    }

    def departures(self, jobs, drive):
        bus = EventBus()
        recorder = RingBufferRecorder()
        bus.subscribe(recorder)
        with use_bus(bus):
            fleet, _ = load_churn_scenario(
                json.loads(json.dumps(self.DATA)), fleet_jobs=jobs
            )
            try:
                drive(fleet)
            finally:
                fleet.close()
        return [
            (e.tenant_id, e.reason, e.time_s)
            for e in recorder.of_type(TenantDeparted)
        ]

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_scripted_run_departs_finished(self, jobs):
        departed = self.departures(jobs, lambda fleet: fleet.run(10.0))
        assert departed == [("short", "finished", 7.0)]

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_default_reason_reads_the_last_interval(self, jobs):
        # The parallel parent's mirror workload never advances; the
        # default reason must come from the hosts' completion reports.
        def drive(fleet):
            fleet.run(7.0)
            fleet.depart_tenant("short")

        assert self.departures(jobs, drive) == [("short", "finished", 7.0)]


class TestSpawnParity:
    def test_run_level_policy_reaches_spawned_workers(self, monkeypatch):
        # A spawned worker starts without the parent's ambient context;
        # the parent must ship the policy it resolved, or the workers
        # fall back to max_fairness and the parallel run diverges.
        import repro.cloud.executor as executor
        from repro.engine.context import RunContext, use_context

        monkeypatch.setattr(
            executor.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        path = Path(__file__).parent.parent / "examples" / "churn.json"
        data = json.loads(path.read_text())
        data["duration_s"] = 12
        with use_context(RunContext.parse(policy="max_performance")):
            serial, parallel = (
                run_churn_scenario(dict(data), fleet_jobs=jobs).canonical_bytes()
                for jobs in (1, 2)
            )
        assert serial == parallel


# -- executor plumbing -------------------------------------------------------


class TestExecutor:
    def test_close_is_idempotent(self):
        fleet, duration = load_churn_scenario(scenario(), fleet_jobs=2)
        fleet.run(duration)
        fleet.close()
        fleet.close()  # second close is a no-op, not a hang or crash

    def test_rejects_bad_jobs(self):
        with pytest.raises(ChurnScenarioError, match="fleet_jobs"):
            load_churn_scenario(scenario(), fleet_jobs=0)

    def test_cli_rejects_bad_fleet_jobs(self, tmp_path, capsys):
        path = tmp_path / "churn.json"
        path.write_text(json.dumps(scenario()))
        assert cli.main(["churn", str(path), "--fleet-jobs", "0"]) == 2
        assert "--fleet-jobs" in capsys.readouterr().err

    def test_dead_worker_raises_typed_error(self):
        path = Path(__file__).parent.parent / "examples" / "churn.json"
        fleet, _ = load_churn_scenario(str(path), fleet_jobs=2)
        try:
            fleet.step()
            proc, _, shard = fleet._workers[0]
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=10)
            with pytest.raises(FleetWorkerDied) as info:
                fleet.step()
            assert info.value.shard == shard
            assert info.value.exitcode == -signal.SIGKILL
            message = str(info.value)
            assert all(name in message for name in shard)
            assert "-9" in message
        finally:
            fleet.close()  # still returns with one worker gone

    def test_unknown_tenant_raises_in_parent(self):
        from repro.errors import UnknownTenantError

        fleet, _ = load_churn_scenario(scenario(), fleet_jobs=2)
        try:
            # The tenant index answers in the parent; a bogus depart must
            # raise cleanly without wedging the worker pipe protocol.
            with pytest.raises(UnknownTenantError):
                fleet.depart_tenant("ghost", reason="detached")
            fleet.step()  # the pool still works after the failed op
        finally:
            fleet.close()


# -- service-layer parity ----------------------------------------------------


class TestServiceFleetJobs:
    CONFIG = {
        "fleet": {"machines": 3, "socket": "xeon_d", "seed": 11},
        "manager": {"type": "dcat"},
        "placement": "least_loaded",
        "service": {"tick_interval_s": 0.01},
    }

    def build(self, jobs):
        from repro.service.config import load_service_config

        data = json.loads(json.dumps(self.CONFIG))
        data["service"]["fleet_jobs"] = jobs
        return load_service_config(data).build()

    def drive(self, setup):
        from repro.cloud.handle import FleetHandle

        handle = FleetHandle(setup.fleet)
        try:
            handle.admit("a", 4, {"type": "redis"})
            for _ in range(8):
                handle.tick()
            handle.admit("b", 4, {"type": "postgres"}, lifetime_s=0.04)
            for _ in range(12):
                handle.tick()
            handle.detach("a")
            for _ in range(4):
                handle.tick()
            return (
                handle.snapshot_json(),
                setup.violation_count(),
                setup.intervals_checked(),
            )
        finally:
            setup.fleet.close()

    def test_parallel_daemon_fleet_matches_serial(self):
        serial = self.drive(self.build(1))
        parallel = self.drive(self.build(2))
        assert serial[0] == parallel[0]
        assert serial[1] == parallel[1]
        # Parallel checkers live in the workers; their interval tallies
        # must still reach the setup's totals via checker_stats().
        assert serial[2] == parallel[2]
        assert serial[2] > 0

    def test_bad_fleet_jobs_named(self):
        from repro.service.config import ServiceConfigError, load_service_config

        data = json.loads(json.dumps(self.CONFIG))
        data["service"]["fleet_jobs"] = 0
        with pytest.raises(ServiceConfigError, match="service.fleet_jobs"):
            load_service_config(data)

    def serve_config(self, tmp_path, monkeypatch, *flags):
        import repro.service.daemon as daemon

        class Captured(Exception):
            pass

        def capture(config, **kwargs):
            raise Captured(config)

        monkeypatch.setattr(daemon, "ControllerDaemon", capture)
        data = json.loads(json.dumps(self.CONFIG))
        data["service"]["fleet_jobs"] = 2
        path = tmp_path / "svc.json"
        path.write_text(json.dumps(data))
        with pytest.raises(Captured) as info:
            cli.main(["serve", str(path), *flags])
        return info.value.args[0]

    def test_serve_config_fleet_jobs_applies_without_flag(
        self, tmp_path, monkeypatch
    ):
        config = self.serve_config(tmp_path, monkeypatch)
        assert config.ctx.fleet_jobs == 2
        setup = config.build()
        try:
            assert isinstance(setup.fleet, ParallelCloudFleet)
        finally:
            setup.fleet.close()

    def test_serve_flag_overrides_config(self, tmp_path, monkeypatch):
        config = self.serve_config(tmp_path, monkeypatch, "--fleet-jobs", "1")
        assert config.ctx.fleet_jobs == 1

    def test_parallel_fleet_is_parallel_class(self):
        setup = self.build(2)
        try:
            assert isinstance(setup.fleet, ParallelCloudFleet)
            assert setup.checkers == {}
        finally:
            setup.fleet.close()
