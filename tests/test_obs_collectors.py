"""Unit tests for the bus→metrics collector and the bench payload schema."""

import json

import pytest

from repro.cloud.slo import TenantSloStats
from repro.core.states import WorkloadState
from repro.engine.events import (
    AllocationPlanned,
    EventBus,
    FaultInjected,
    FaultRecovered,
    IntervalFinished,
    InvariantViolated,
    SampleCollected,
    SloViolated,
    StateTransition,
    TenantAdmitted,
    TenantDeparted,
    TenantRejected,
    WorkloadDeregistered,
    WorkloadRegistered,
)
from repro.obs.bench import (
    BENCH_FORMAT,
    MIN_BENCHMARKS,
    validate_bench_payload,
    write_bench,
)
from repro.obs.collectors import BusMetricsCollector, record_slo_stats


def _sample(**kw):
    base = dict(
        time_s=1.0,
        source="controller",
        workload_id="w0",
        ipc=1.5,
        llc_miss_rate=0.2,
        mem_refs_per_instr=0.01,
        instructions=1000,
        cycles=800,
        idle=False,
    )
    base.update(kw)
    return SampleCollected(**base)


class TestBusMetricsCollector:
    def test_counts_every_event_by_type(self):
        c = BusMetricsCollector()
        c.on_event(_sample())
        c.on_event(_sample())
        c.on_event(IntervalFinished(time_s=1.0, source="controller"))
        assert c.registry.value("dcat_events_total", event="SampleCollected") == 2
        assert c.registry.value("dcat_events_total", event="IntervalFinished") == 1
        assert c.registry.value("dcat_intervals_total", loop="controller") == 1

    def test_only_active_controller_samples_feed_histograms(self):
        c = BusMetricsCollector()
        c.on_event(_sample(ipc=1.5))
        c.on_event(_sample(source="sim"))
        c.on_event(_sample(idle=True))
        ipc = c.registry.get("dcat_workload_ipc")
        (sample,) = ipc.samples()
        assert sample[1].count == 1

    def test_grants_and_harvests_attributed_to_tracked_state(self):
        c = BusMetricsCollector()
        c.on_event(WorkloadRegistered(time_s=0.0, workload_id="a", cos_id=1,
                                      baseline_ways=3))
        c.on_event(AllocationPlanned(time_s=0.0, plan={"a": 3}, free_ways=17))
        c.on_event(StateTransition(time_s=1.0, workload_id="a",
                                   old_state="keeper", new_state="receiver"))
        c.on_event(AllocationPlanned(time_s=1.0, plan={"a": 5}, free_ways=15))
        c.on_event(AllocationPlanned(time_s=2.0, plan={"a": 2}, free_ways=18))
        r = c.registry
        # First plan lands while "a" is still a keeper (registration default).
        assert r.value("dcat_ways_granted_total", state="keeper") == 3
        assert r.value("dcat_ways_granted_total", state="receiver") == 2
        assert r.value("dcat_ways_harvested_total", state="receiver") == 3
        assert r.value("dcat_free_ways") == 18
        assert r.value(
            "dcat_state_transitions_total", old_state="keeper", new_state="receiver"
        ) == 1

    def test_unknown_workload_attributed_to_unknown_state(self):
        c = BusMetricsCollector()
        c.on_event(AllocationPlanned(time_s=0.0, plan={"ghost": 4}, free_ways=16))
        assert c.registry.value(
            "dcat_ways_granted_total", state=WorkloadState.UNKNOWN.value
        ) == 4

    def test_state_gauge_follows_lifecycle(self):
        c = BusMetricsCollector()
        c.on_event(WorkloadRegistered(time_s=0.0, workload_id="a", cos_id=1,
                                      baseline_ways=3))
        c.on_event(WorkloadRegistered(time_s=0.0, workload_id="b", cos_id=2,
                                      baseline_ways=3))
        c.on_event(StateTransition(time_s=1.0, workload_id="a",
                                   old_state="keeper", new_state="donor"))
        assert c.registry.value("dcat_workloads", state="keeper") == 1
        assert c.registry.value("dcat_workloads", state="donor") == 1
        c.on_event(WorkloadDeregistered(time_s=2.0, workload_id="a", cos_id=1))
        assert c.registry.value("dcat_workloads", state="donor") == 0

    def test_fault_and_tenant_counters(self):
        c = BusMetricsCollector()
        c.on_event(FaultInjected(time_s=0.0, kind="msr_write_fail",
                                 target="w0", detail=""))
        c.on_event(FaultRecovered(time_s=0.1, kind="msr_write_fail",
                                  target="w0", action="retried", attempts=2))
        c.on_event(InvariantViolated(time_s=0.2, invariant="contiguous_masks",
                                     detail=""))
        c.on_event(TenantAdmitted(time_s=1.0, tenant_id="t0", machine="m0",
                                  baseline_ways=2))
        c.on_event(TenantRejected(time_s=1.0, tenant_id="t1", reason="full"))
        c.on_event(TenantDeparted(time_s=2.0, tenant_id="t0", machine="m0",
                                  reason="lease_end"))
        c.on_event(SloViolated(time_s=2.0, tenant_id="t0", machine="m0",
                               ipc=0.5, entitled_ipc=1.0))
        r = c.registry
        assert r.value("dcat_faults_injected_total", kind="msr_write_fail") == 1
        assert r.value("dcat_fault_recoveries_total", action="retried") == 1
        assert r.value(
            "dcat_invariant_violations_total", invariant="contiguous_masks"
        ) == 1
        assert r.value("dcat_tenant_lifecycle_total", action="admitted") == 1
        assert r.value("dcat_tenant_lifecycle_total", action="rejected") == 1
        assert r.value("dcat_tenant_lifecycle_total", action="departed") == 1
        assert r.value("dcat_slo_violations_total", tenant="t0") == 1

    def test_attach_detach(self):
        bus = EventBus()
        c = BusMetricsCollector(bus=bus)
        with pytest.raises(RuntimeError):
            c.attach(bus)
        bus.emit(IntervalFinished(time_s=0.0, source="sim"))
        c.detach()
        bus.emit(IntervalFinished(time_s=1.0, source="sim"))
        assert c.registry.value("dcat_intervals_total", loop="sim") == 1

    def test_determinism_same_stream_same_registry(self):
        events = [
            WorkloadRegistered(time_s=0.0, workload_id="a", cos_id=1,
                               baseline_ways=3),
            AllocationPlanned(time_s=0.0, plan={"a": 3}, free_ways=17),
            _sample(),
        ]
        snapshots = []
        for _ in range(2):
            c = BusMetricsCollector()
            for ev in events:
                c.on_event(ev)
            from repro.obs.export import render_prometheus
            snapshots.append(render_prometheus(c.registry))
        assert snapshots[0] == snapshots[1]


def test_record_slo_stats_gauges():
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    stats = TenantSloStats(tenant_id="t0", machine="m0", admitted_s=0.0)
    stats.active_intervals = 10
    stats.violation_intervals = 3
    stats.violation_spans = [(1.0, 2.0), (5.0, 7.5)]
    stats.normalized_sum = 9.0
    record_slo_stats(registry, {"t0": stats})
    assert registry.value("dcat_slo_active_intervals", tenant="t0") == 10
    assert registry.value("dcat_slo_violation_intervals", tenant="t0") == 3
    assert registry.value("dcat_slo_violation_spans", tenant="t0") == 2
    assert registry.value("dcat_slo_violation_seconds", tenant="t0") == 3.5
    assert registry.value(
        "dcat_slo_mean_normalized_ipc", tenant="t0"
    ) == pytest.approx(0.9)


def _good_payload():
    return {
        "format": BENCH_FORMAT,
        "quick": True,
        "benchmarks": [
            {
                "name": f"bench_{i}",
                "note": "n",
                "iterations": 10,
                "repeats": 3,
                "best_s": 1e-6,
                "median_s": 2e-6,
                "mean_s": 2e-6,
            }
            for i in range(MIN_BENCHMARKS)
        ],
    }


class TestBenchPayload:
    def test_good_payload_validates(self):
        validate_bench_payload(_good_payload())

    def test_wrong_format_rejected(self):
        payload = _good_payload()
        payload["format"] = "other/v9"
        with pytest.raises(ValueError, match="format"):
            validate_bench_payload(payload)

    def test_too_few_benchmarks_rejected(self):
        payload = _good_payload()
        payload["benchmarks"] = payload["benchmarks"][: MIN_BENCHMARKS - 1]
        with pytest.raises(ValueError):
            validate_bench_payload(payload)

    def test_missing_key_rejected(self):
        payload = _good_payload()
        del payload["benchmarks"][0]["best_s"]
        with pytest.raises(ValueError, match="best_s"):
            validate_bench_payload(payload)

    def test_duplicate_names_rejected(self):
        payload = _good_payload()
        payload["benchmarks"][1]["name"] = payload["benchmarks"][0]["name"]
        with pytest.raises(ValueError):
            validate_bench_payload(payload)

    def test_nonpositive_timing_rejected(self):
        payload = _good_payload()
        payload["benchmarks"][2]["best_s"] = 0.0
        with pytest.raises(ValueError):
            validate_bench_payload(payload)

    def test_best_exceeding_mean_rejected(self):
        payload = _good_payload()
        payload["benchmarks"][0]["best_s"] = 5e-6
        with pytest.raises(ValueError):
            validate_bench_payload(payload)

    def test_write_bench_round_trips(self, tmp_path):
        out = tmp_path / "BENCH.json"
        write_bench(_good_payload(), str(out))
        loaded = json.loads(out.read_text())
        assert loaded["format"] == BENCH_FORMAT
        validate_bench_payload(loaded)

    def test_committed_payload_is_full_mode_with_fleet_rows(self):
        """The repo's committed BENCH_controller.json must stay schema-valid,
        full mode, and carry the fleet-step and fleet-admit baseline rows."""
        from pathlib import Path

        path = Path(__file__).parent.parent / "BENCH_controller.json"
        payload = validate_bench_payload(json.loads(path.read_text()))
        assert payload["quick"] is False
        names = {b["name"] for b in payload["benchmarks"]}
        assert {"fleet_step_1k", "fleet_step_dense", "fleet_admit_1k"} <= names, sorted(names)

    def test_write_bench_refuses_invalid(self, tmp_path):
        payload = _good_payload()
        payload["benchmarks"] = []
        out = tmp_path / "BENCH.json"
        with pytest.raises(ValueError):
            write_bench(payload, str(out))
        assert not out.exists()
