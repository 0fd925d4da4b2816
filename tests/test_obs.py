"""Unit tests for the metrics registry, stage profiler and exporters."""

import json

import pytest

from repro.engine.pipeline import (
    StagedLoop,
    get_default_profiler,
    use_profiler,
)
from repro.obs.export import (
    json_sibling,
    registry_to_dict,
    render_prometheus,
    write_metrics,
)
from repro.obs.profiler import StageProfiler
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricError,
    MetricsRegistry,
)


class TestRegistry:
    def test_counter_accumulates(self):
        r = MetricsRegistry()
        c = r.counter("dcat_test_total", "help")
        c.inc()
        c.inc(2.5)
        assert r.value("dcat_test_total") == 3.5

    def test_counter_rejects_negative(self):
        r = MetricsRegistry()
        with pytest.raises(MetricError):
            r.counter("dcat_test_total", "help").inc(-1)

    def test_gauge_moves_both_ways(self):
        r = MetricsRegistry()
        g = r.gauge("dcat_level", "help")
        g.set(10)
        g.dec(3)
        g.inc(1)
        assert r.value("dcat_level") == 8.0

    def test_labels_create_independent_children(self):
        r = MetricsRegistry()
        c = r.counter("dcat_events_total", "help", labels=("event",))
        c.labels(event="A").inc()
        c.labels(event="A").inc()
        c.labels(event="B").inc()
        assert r.value("dcat_events_total", event="A") == 2.0
        assert r.value("dcat_events_total", event="B") == 1.0
        assert r.value("dcat_events_total", event="C") == 0.0

    def test_wrong_label_set_rejected(self):
        r = MetricsRegistry()
        c = r.counter("dcat_events_total", "help", labels=("event",))
        with pytest.raises(MetricError):
            c.labels(kind="A")
        with pytest.raises(MetricError):
            c.labels()

    def test_registration_is_get_or_create(self):
        r = MetricsRegistry()
        a = r.counter("dcat_shared_total", "help", labels=("k",))
        b = r.counter("dcat_shared_total", "other help", labels=("k",))
        assert a is b
        with pytest.raises(MetricError):
            r.gauge("dcat_shared_total", "help", labels=("k",))
        with pytest.raises(MetricError):
            r.counter("dcat_shared_total", "help", labels=("other",))

    def test_invalid_names_rejected(self):
        r = MetricsRegistry()
        with pytest.raises(MetricError):
            r.counter("0bad", "help")
        with pytest.raises(MetricError):
            r.counter("dcat_ok_total", "help", labels=("bad-label",))

    def test_histogram_buckets(self):
        h = Histogram((0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]
        assert h.cumulative() == [1, 2, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)

    def test_histogram_boundary_lands_in_its_bucket(self):
        # Prometheus buckets are `le` (inclusive upper bounds).
        h = Histogram((1.0, 2.0))
        h.observe(1.0)
        assert h.counts == [1, 0, 0]

    def test_histogram_rejects_bad_boundaries(self):
        with pytest.raises(MetricError):
            Histogram(())
        with pytest.raises(MetricError):
            Histogram((1.0, 1.0))
        with pytest.raises(MetricError):
            Histogram((1.0, float("inf")))

    def test_default_buckets_strictly_increase(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(set(DEFAULT_TIME_BUCKETS))

    def test_child_reads_without_creating(self):
        r = MetricsRegistry()
        c = r.counter("dcat_events_total", "help", labels=("event",))
        c.labels(event="A").inc(2)
        assert c.child(event="A").value == 2.0
        # Absent children are reported as None, not materialized: exporting
        # must not grow zero-count series just because someone peeked.
        assert c.child(event="B") is None
        c.labels(event="A")  # re-fetch does not disturb anything
        assert [tuple(k) for k in c._children] == [("A",)]

    def test_child_validates_label_names(self):
        r = MetricsRegistry()
        c = r.counter("dcat_events_total", "help", labels=("event",))
        with pytest.raises(MetricError):
            c.child(kind="A")
        with pytest.raises(MetricError):
            c.child()

    def test_sum_value_reads_histogram_sum(self):
        r = MetricsRegistry()
        h = r.histogram(
            "dcat_stage_seconds", "help", labels=("loop", "stage"),
            buckets=(0.1, 1.0),
        )
        child = h.labels(loop="controller", stage="collect")
        child.observe(0.25)
        child.observe(0.5)
        assert r.sum_value(
            "dcat_stage_seconds", loop="controller", stage="collect"
        ) == pytest.approx(0.75)
        # Unset label combination: zero, and still not materialized.
        assert r.sum_value("dcat_stage_seconds", loop="x", stage="y") == 0.0

    def test_sum_value_rejects_non_histograms(self):
        r = MetricsRegistry()
        r.counter("dcat_events_total", "help").inc()
        with pytest.raises(MetricError):
            r.sum_value("dcat_events_total")


class TestProfilerHook:
    def test_no_default_profiler_outside_context(self):
        assert get_default_profiler() is None

    def test_loop_captures_profiler_at_construction(self):
        profiler = StageProfiler()
        with use_profiler(profiler):
            loop = StagedLoop(
                [("a", lambda ctx: None), ("b", lambda ctx: None)],
                name="demo",
            )
        assert get_default_profiler() is None
        for _ in range(3):
            loop.run(None)
        assert profiler.invocations("demo", "a") == 3
        assert profiler.invocations("demo", "b") == 3
        assert profiler.total_seconds("demo", "a") > 0.0

    def test_loop_without_profiler_records_nothing(self):
        profiler = StageProfiler()
        loop = StagedLoop([("a", lambda ctx: None)], name="demo")
        loop.run(None)
        assert profiler.invocations("demo", "a") == 0

    def test_spliced_stage_is_profiled(self):
        profiler = StageProfiler()
        with use_profiler(profiler):
            loop = StagedLoop([("a", lambda ctx: None)], name="demo")
        loop.insert_before("a", ("pre", lambda ctx: None))
        loop.run(None)
        assert profiler.invocations("demo", "pre") == 1

    def test_use_profiler_restores_previous(self):
        outer = StageProfiler()
        inner = StageProfiler()
        with use_profiler(outer):
            with use_profiler(inner):
                assert get_default_profiler() is inner
            assert get_default_profiler() is outer
        assert get_default_profiler() is None


def _sample_registry():
    r = MetricsRegistry()
    c = r.counter("dcat_events_total", "Events by type.", labels=("event",))
    c.labels(event="A").inc(3)
    c.labels(event="B").inc()
    r.gauge("dcat_free_ways", "Free ways.").set(5)
    h = r.histogram("dcat_lat_seconds", "Latency.", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    return r


class TestExport:
    def test_prometheus_text_shape(self):
        text = render_prometheus(_sample_registry())
        lines = text.splitlines()
        assert "# TYPE dcat_events_total counter" in lines
        assert 'dcat_events_total{event="A"} 3' in lines
        assert 'dcat_events_total{event="B"} 1' in lines
        assert "dcat_free_ways 5" in lines
        assert 'dcat_lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'dcat_lat_seconds_bucket{le="1"} 2' in lines
        assert 'dcat_lat_seconds_bucket{le="+Inf"} 3' in lines
        assert "dcat_lat_seconds_count 3" in lines
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        r = MetricsRegistry()
        r.counter("dcat_x_total", "h", labels=("k",)).labels(k='a"b\\c\nd').inc()
        text = render_prometheus(r)
        assert 'k="a\\"b\\\\c\\nd"' in text

    def test_json_snapshot_round_trips(self):
        payload = registry_to_dict(_sample_registry())
        assert payload["format"] == "dcat-metrics/v1"
        by_name = {m["name"]: m for m in payload["metrics"]}
        events = by_name["dcat_events_total"]
        assert events["type"] == "counter"
        assert {"labels": {"event": "A"}, "value": 3.0} in events["samples"]
        hist = by_name["dcat_lat_seconds"]["samples"][0]
        assert hist["count"] == 3
        assert hist["buckets"][-1] == {"le": "+Inf", "count": 1}
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_write_metrics_emits_both_files(self, tmp_path):
        prom = str(tmp_path / "out.prom")
        sibling = write_metrics(_sample_registry(), prom)
        assert sibling == json_sibling(prom)
        text = (tmp_path / "out.prom").read_text()
        assert "dcat_events_total" in text
        loaded = json.loads((tmp_path / "out.prom.json").read_text())
        assert loaded["format"] == "dcat-metrics/v1"

    def test_deterministic_export_order(self):
        a = render_prometheus(_sample_registry())
        b = render_prometheus(_sample_registry())
        assert a == b
