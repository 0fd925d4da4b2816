"""Tests for the application workloads and the closed-loop client model."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.analytical import AccessPattern
from repro.workloads.clients import AppMetrics, ClosedLoopClient
from repro.workloads.database import LruBufferPool, PostgresWorkload
from repro.workloads.kvstore import RedisWorkload
from repro.workloads.search import ElasticsearchWorkload


def reference_mva(client, service_time_s, servers):
    """The MVA recursion as first written, on mixed int/float operands."""
    response = service_time_s
    queue = 0.0
    for n in range(1, client.concurrency + 1):
        waiting_ahead = max(0.0, queue - (servers - 1))
        response = service_time_s * (1.0 + waiting_ahead / servers)
        queue = n / (client.think_time_s + response) * response
    throughput = client.concurrency / (client.think_time_s + response)
    wait = max(0.0, response - service_time_s)
    p99 = service_time_s * (1.0 + 2.3) + wait * math.log(100.0)
    return AppMetrics(
        throughput_ops=throughput,
        avg_latency_s=response,
        p99_latency_s=max(p99, response),
        utilization=min(1.0, throughput * service_time_s / servers),
    )


class TestClosedLoopClient:
    @settings(max_examples=300, deadline=None)
    @given(
        concurrency=st.integers(min_value=1, max_value=400),
        think=st.one_of(
            st.just(0), st.floats(min_value=0.0, max_value=2.0, allow_subnormal=False)
        ),
        service=st.one_of(
            st.integers(min_value=1, max_value=3),
            st.floats(min_value=1e-7, max_value=0.1, allow_subnormal=False),
        ),
        servers=st.integers(min_value=1, max_value=64),
    )
    def test_float_recursion_is_bit_identical(self, concurrency, think, service, servers):
        client = ClosedLoopClient(concurrency=concurrency, think_time_s=think)
        got = client.solve(service, servers)
        want = reference_mva(client, service, servers)
        assert [float(v).hex() for v in got.__dict__.values()] == [
            float(v).hex() for v in want.__dict__.values()
        ]

    def test_single_client_no_queueing(self):
        client = ClosedLoopClient(concurrency=1, think_time_s=0.0)
        m = client.solve(service_time_s=0.001, servers=2)
        assert m.avg_latency_s == pytest.approx(0.001)
        assert m.throughput_ops == pytest.approx(1000.0)

    def test_saturation_bound(self):
        client = ClosedLoopClient(concurrency=1000, think_time_s=0.0)
        m = client.solve(service_time_s=0.001, servers=2)
        # Throughput cannot exceed servers / service_time.
        assert m.throughput_ops <= 2000.0 * 1.001
        assert m.utilization == pytest.approx(1.0, abs=0.01)

    def test_latency_grows_with_population(self):
        small = ClosedLoopClient(10, 0.0).solve(0.001, 2)
        large = ClosedLoopClient(100, 0.0).solve(0.001, 2)
        assert large.avg_latency_s > small.avg_latency_s

    def test_p99_at_least_average(self):
        m = ClosedLoopClient(50, 0.0001).solve(0.001, 2)
        assert m.p99_latency_s >= m.avg_latency_s

    def test_faster_service_more_throughput(self):
        client = ClosedLoopClient(concurrency=240, think_time_s=0.0002)
        fast = client.solve(0.0005, 2)
        slow = client.solve(0.001, 2)
        assert fast.throughput_ops > slow.throughput_ops
        assert fast.avg_latency_s < slow.avg_latency_s

    def test_think_time_caps_offered_load(self):
        client = ClosedLoopClient(concurrency=4, think_time_s=1.0)
        m = client.solve(0.001, 2)
        assert m.throughput_ops == pytest.approx(4.0, rel=0.01)
        assert m.utilization < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedLoopClient(0, 0.0)
        with pytest.raises(ValueError):
            ClosedLoopClient(1, -1.0)
        with pytest.raises(ValueError):
            ClosedLoopClient(1, 0.0).solve(0.0, 1)
        with pytest.raises(ValueError):
            ClosedLoopClient(1, 0.0).solve(0.1, 0)

    def test_scaled(self):
        m = AppMetrics(100.0, 0.01, 0.02, 0.5)
        assert m.scaled(2.0).throughput_ops == 200.0
        assert m.scaled(2.0).avg_latency_s == 0.01


def _mva_recurrence(client: ClosedLoopClient, service_time_s: float, servers: int):
    """The closed-network MVA recurrence, written as plainly as possible."""
    queue = 0.0
    response = service_time_s
    for n in range(1, client.concurrency + 1):
        waiting_ahead = max(0.0, queue - (servers - 1))
        response = service_time_s * (1.0 + waiting_ahead / servers)
        throughput = n / (client.think_time_s + response)
        queue = throughput * response
    throughput = client.concurrency / (client.think_time_s + response)
    utilization = min(1.0, throughput * service_time_s / servers)
    wait = max(0.0, response - service_time_s)
    p99 = service_time_s * (1.0 + 2.3) + wait * math.log(100.0)
    return AppMetrics(throughput, response, max(p99, response), utilization)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    concurrency=st.integers(min_value=1, max_value=256),
    servers=st.integers(min_value=1, max_value=16),
    service_time_s=st.floats(min_value=1e-7, max_value=0.1, allow_nan=False),
    think_time_s=st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=0.01, allow_nan=False)
    ),
)
def test_solve_matches_mva_recurrence_bit_for_bit(
    concurrency, servers, service_time_s, think_time_s
):
    client = ClosedLoopClient(concurrency, think_time_s)
    got = client.solve(service_time_s, servers)
    want = _mva_recurrence(client, service_time_s, servers)
    for field in ("throughput_ops", "avg_latency_s", "p99_latency_s", "utilization"):
        assert getattr(got, field).hex() == getattr(want, field).hex(), field


class TestLruBufferPool:
    def test_hit_after_insert(self):
        pool = LruBufferPool(4)
        assert not pool.access(1)
        assert pool.access(1)

    def test_lru_eviction_order(self):
        pool = LruBufferPool(2)
        pool.access(1)
        pool.access(2)
        pool.access(1)  # refresh 1
        pool.access(3)  # evicts 2
        assert pool.access(1)
        assert not pool.access(2)

    def test_hit_rate_accounting(self):
        pool = LruBufferPool(10)
        for page in (1, 2, 1, 2):
            pool.access(page)
        assert pool.hit_rate == pytest.approx(0.5)

    def test_warm_hit_rate_bounded(self):
        pool = LruBufferPool(100)
        rate = pool.warm_hit_rate(table_pages=1000, zipf_s=0.9, samples=4000)
        assert 0.2 < rate < 0.95

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LruBufferPool(0)


class TestAppWorkloads:
    def test_redis_footprint(self):
        redis = RedisWorkload()
        phase = redis.current_phase()
        assert phase.pattern is AccessPattern.HOTCOLD
        assert phase.wss_bytes > 150 * (1 << 20)
        assert redis.client.concurrency == 240  # 8 threads x 30 pipeline

    def test_postgres_pool_resident(self):
        pg = PostgresWorkload()
        assert pg.pool_hit_rate == 1.0  # 4 GB pool holds 10 M tuples

    def test_postgres_small_pool_costs_instructions(self):
        small = PostgresWorkload(buffer_pool_pages=2_000)
        resident = PostgresWorkload()
        assert small.pool_hit_rate < 1.0
        assert small.instr_per_op > resident.instr_per_op

    def test_elasticsearch_footprint(self):
        es = ElasticsearchWorkload()
        phase = es.current_phase()
        assert phase.pattern is AccessPattern.HOTCOLD
        assert es.instr_per_op > PostgresWorkload().instr_per_op

    def test_app_metrics_respond_to_cpi(self):
        redis = RedisWorkload()
        fast = redis.app_metrics(cpi=2.0, frequency_hz=2.3e9)
        slow = redis.app_metrics(cpi=8.0, frequency_hz=2.3e9)
        assert fast.throughput_ops > slow.throughput_ops
        assert fast.avg_latency_s < slow.avg_latency_s

    def test_app_metrics_none_while_idle(self):
        redis = RedisWorkload(start_delay_s=5.0)
        assert redis.app_metrics(cpi=2.0, frequency_hz=2.3e9) is None

    def test_app_metrics_validation(self):
        redis = RedisWorkload()
        with pytest.raises(ValueError):
            redis.app_metrics(cpi=0.0, frequency_hz=1e9)

    def test_apps_parallel_across_vcpus(self):
        assert RedisWorkload().parallelism == 2
        assert PostgresWorkload().parallelism == 2
