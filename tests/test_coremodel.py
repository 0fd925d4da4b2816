"""Tests for repro.cpu: core timing model and socket topology."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.coremodel import (
    NOISE_BLOCK,
    CoreTimingModel,
    MemoryBehavior,
    core_cpis,
    execute_cores,
)
from repro.cpu.socket import SocketSpec
from repro.hwcounters.events import L1_CACHE_HITS, L1_CACHE_MISSES, LLC_MISSES, LLC_REFERENCES


def quiet_model(**kw):
    kw.setdefault("noise_sigma", 0.0)
    return CoreTimingModel(**kw)


MEMHEAVY = MemoryBehavior(refs_per_instr=0.25, l1_miss_ratio=1.0, base_cpi=0.5, mlp=1.5)


class TestBehaviorValidation:
    def test_rejects_bad_l1_ratio(self):
        with pytest.raises(ValueError):
            MemoryBehavior(l1_miss_ratio=1.5)

    def test_rejects_bad_mlp(self):
        with pytest.raises(ValueError):
            MemoryBehavior(mlp=0.5)

    def test_rejects_bad_duty(self):
        with pytest.raises(ValueError):
            MemoryBehavior(duty_cycle=-0.1)

    def test_rejects_zero_cpi(self):
        with pytest.raises(ValueError):
            MemoryBehavior(base_cpi=0.0)


class TestCpi:
    def test_cpu_bound_behavior_is_base_cpi(self):
        model = quiet_model()
        b = MemoryBehavior(refs_per_instr=0.1, l1_miss_ratio=0.0, base_cpi=0.6)
        assert model.cpi(b, llc_hit_rate=0.0) == pytest.approx(0.6)

    def test_cpi_decreases_with_hit_rate(self):
        model = quiet_model()
        cpis = [model.cpi(MEMHEAVY, h) for h in (0.0, 0.5, 0.9, 1.0)]
        assert cpis == sorted(cpis, reverse=True)

    def test_mlp_divides_the_stall(self):
        model = quiet_model()
        chained = MemoryBehavior(refs_per_instr=0.25, l1_miss_ratio=1.0, mlp=1.0)
        streaming = MemoryBehavior(refs_per_instr=0.25, l1_miss_ratio=1.0, mlp=8.0)
        assert model.cpi(chained, 0.0) > model.cpi(streaming, 0.0)

    def test_known_value(self):
        model = quiet_model(llc_latency=40.0)
        b = MemoryBehavior(refs_per_instr=0.25, l1_miss_ratio=1.0, base_cpi=0.5, mlp=1.0)
        # All LLC hits: cpi = 0.5 + 0.25 * 1.0 * 40 = 10.5
        assert model.cpi(b, 1.0) == pytest.approx(10.5)

    def test_invalid_hit_rate_rejected(self):
        with pytest.raises(ValueError):
            quiet_model().cpi(MEMHEAVY, 1.5)


class TestCounterIdentities:
    def test_counter_relations_hold(self):
        model = quiet_model()
        act = model.execute_interval(MEMHEAVY, llc_hit_rate=0.8)
        l1_ref = act.event_counts[L1_CACHE_HITS] + act.event_counts[L1_CACHE_MISSES]
        assert l1_ref == pytest.approx(act.instructions * 0.25, rel=0.01)
        assert act.event_counts[LLC_REFERENCES] == pytest.approx(l1_ref, rel=0.01)
        assert act.event_counts[LLC_MISSES] == pytest.approx(
            act.event_counts[LLC_REFERENCES] * 0.2, rel=0.02
        )
        assert act.ipc == pytest.approx(1.0 / model.cpi(MEMHEAVY, 0.8), rel=0.01)

    def test_duty_cycle_scales_cycles(self):
        model = quiet_model(cycles_per_interval=1_000_000)
        half = MemoryBehavior(refs_per_instr=0.1, duty_cycle=0.5)
        act = model.execute_interval(half, 0.0)
        assert act.cycles == 500_000

    def test_avg_latency_decreases_with_hit_rate(self):
        model = quiet_model()
        lat_low = model.execute_interval(MEMHEAVY, 0.1).avg_mem_latency_cycles
        lat_high = model.execute_interval(MEMHEAVY, 0.99).avg_mem_latency_cycles
        assert lat_high < lat_low

    def test_loaded_dram_raises_latency(self):
        model = quiet_model()
        idle = model.execute_interval(MEMHEAVY, 0.5)
        loaded = model.execute_interval(MEMHEAVY, 0.5, dram_latency=600.0)
        assert loaded.avg_mem_latency_cycles > idle.avg_mem_latency_cycles
        assert loaded.ipc < idle.ipc


class TestNoise:
    def test_zero_noise_deterministic(self):
        a = quiet_model().execute_interval(MEMHEAVY, 0.5)
        b = quiet_model().execute_interval(MEMHEAVY, 0.5)
        assert a.instructions == b.instructions

    def test_noise_jitters_ipc(self):
        model = CoreTimingModel(noise_sigma=0.01, seed=0)
        vals = {model.execute_interval(MEMHEAVY, 0.5).instructions for _ in range(8)}
        assert len(vals) > 1

    def test_noise_is_small(self):
        model = CoreTimingModel(noise_sigma=0.005, seed=0)
        base = quiet_model().execute_interval(MEMHEAVY, 0.5).ipc
        samples = [model.execute_interval(MEMHEAVY, 0.5).ipc for _ in range(50)]
        assert all(abs(s / base - 1) < 0.05 for s in samples)


@settings(max_examples=40, deadline=None)
@given(
    hit=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    refs=st.floats(min_value=0.0, max_value=1.0),
    miss=st.floats(min_value=0.0, max_value=1.0),
)
def test_counters_never_negative(hit, refs, miss):
    model = quiet_model()
    b = MemoryBehavior(refs_per_instr=refs, l1_miss_ratio=miss)
    act = model.execute_interval(b, hit)
    assert act.instructions >= 0
    assert all(v >= 0 for v in act.event_counts.values())


# -- the batched core kernel ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    sigma=st.floats(min_value=1e-6, max_value=2.0),
    splits=st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=8),
)
def test_block_noise_equals_scalar_draws(seed, sigma, splits):
    """``np.exp(normal(0, s, size=n))`` in blocks of any split is the
    sequence of scalar ``float(np.exp(normal(0, s)))`` draws, bit for bit
    (``math.exp`` is not: it may round differently)."""
    scalar_rng = np.random.default_rng(seed)
    scalar = [
        float(np.exp(scalar_rng.normal(0.0, sigma))) for _ in range(sum(splits))
    ]
    block_rng = np.random.default_rng(seed)
    blocks = []
    for n in splits:
        blocks.extend(np.exp(block_rng.normal(0.0, sigma, size=n)).tolist())
    assert [x.hex() for x in blocks] == [x.hex() for x in scalar]


def scalar_interval(model, noise, behavior, hit, dram):
    """The per-core formulas, written out in scalar Python: the oracle the
    numpy kernel must match exactly."""
    blended = hit * model.llc_latency + (1.0 - hit) * dram
    stall = blended / behavior.mlp
    cpi = behavior.base_cpi + behavior.refs_per_instr * behavior.l1_miss_ratio * stall
    cpi *= noise
    cycles = int(round(model.cycles_per_interval * behavior.duty_cycle))
    instructions = int(cycles / cpi) if cycles else 0
    l1_ref = int(round(instructions * behavior.refs_per_instr))
    llc_ref = int(round(l1_ref * behavior.l1_miss_ratio))
    llc_miss = int(round(llc_ref * (1.0 - hit)))
    return {
        "instructions": instructions,
        "cycles": cycles,
        "l1_hits": max(l1_ref - llc_ref, 0),
        "llc_refs": llc_ref,
        "llc_misses": max(llc_miss, 0),
        "avg_latency": model.l1_latency + behavior.l1_miss_ratio * blended,
    }


behaviors = st.builds(
    MemoryBehavior,
    refs_per_instr=st.floats(min_value=0.0, max_value=2.0),
    l1_miss_ratio=st.floats(min_value=0.0, max_value=1.0),
    base_cpi=st.floats(min_value=0.05, max_value=5.0),
    mlp=st.floats(min_value=1.0, max_value=16.0),
    duty_cycle=st.floats(min_value=0.0, max_value=1.0),
)
cores = st.tuples(
    behaviors,
    st.floats(min_value=0.0, max_value=1.0),  # hit rate
    st.floats(min_value=40.0, max_value=2000.0),  # DRAM latency
    st.integers(min_value=1, max_value=5_000_000),  # cycles per interval
    st.sampled_from([0.0, 0.005, 0.05]),  # noise sigma
)


@settings(max_examples=60, deadline=None)
@given(batch=st.lists(cores, min_size=1, max_size=12), seed=st.integers(0, 2**32))
def test_kernel_matches_scalar_formulas(batch, seed):
    """Every counter of a batched kernel call equals the scalar formulas
    under the same noise factor, whatever the batch holds."""
    models = [
        CoreTimingModel(
            cycles_per_interval=cpi_cycles,
            noise_sigma=sigma,
            seed=seed + i,
        )
        for i, (_, _, _, cpi_cycles, sigma) in enumerate(batch)
    ]
    twins = [
        CoreTimingModel(
            cycles_per_interval=cpi_cycles,
            noise_sigma=sigma,
            seed=seed + i,
        )
        for i, (_, _, _, cpi_cycles, sigma) in enumerate(batch)
    ]
    out = execute_cores(
        models,
        [b for b, *_ in batch],
        [hit for _, hit, *_ in batch],
        [dram for _, _, dram, *_ in batch],
    )
    for i, (twin, (behavior, hit, dram, _, _)) in enumerate(zip(twins, batch)):
        want = scalar_interval(twin, twin.next_noise(), behavior, hit, dram)
        got = {field: getattr(out, field)[i] for field in want}
        assert got == want
        assert all(type(v) is int for k, v in got.items() if k != "avg_latency")


def test_one_core_call_is_the_kernel():
    """``execute_interval`` returns the kernel's counters for that core."""
    a = CoreTimingModel(noise_sigma=0.01, seed=5)
    b = CoreTimingModel(noise_sigma=0.01, seed=5)
    for hit in (0.0, 0.3, 1.0):
        act = a.execute_interval(MEMHEAVY, hit, dram_latency=300.0)
        out = execute_cores([b], [MEMHEAVY], [hit], [300.0])
        assert act.instructions == out.instructions[0]
        assert act.cycles == out.cycles[0]
        assert act.event_counts[L1_CACHE_HITS] == out.l1_hits[0]
        assert act.event_counts[L1_CACHE_MISSES] == out.llc_refs[0]
        assert act.event_counts[LLC_REFERENCES] == out.llc_refs[0]
        assert act.event_counts[LLC_MISSES] == out.llc_misses[0]
        assert act.avg_mem_latency_cycles == out.avg_latency[0]


class TestNoiseBlocks:
    def test_drawn_on_first_use(self):
        model = CoreTimingModel(noise_sigma=0.01, seed=1)
        assert model._noise == () and model._rng is None
        model.next_noise()
        assert len(model._noise) == NOISE_BLOCK and model._rng is not None

    def test_block_refills_continue_the_stream(self):
        model = CoreTimingModel(noise_sigma=0.01, seed=2)
        rng = np.random.default_rng(2)
        want = [float(np.exp(rng.normal(0.0, 0.01))) for _ in range(3 * NOISE_BLOCK + 1)]
        assert [model.next_noise() for _ in want] == want

    def test_noiseless_core_never_draws(self):
        model = quiet_model()
        assert model.next_noise() == 1.0
        assert model._noise == () and model._rng is None


class TestKernelValidation:
    def test_rejects_hit_rate_outside_unit_interval(self):
        for bad in (-0.1, 1.5, float("nan")):
            model = CoreTimingModel(noise_sigma=0.01, seed=3)
            with pytest.raises(ValueError):
                execute_cores([model], [MEMHEAVY], [bad], [200.0])
            assert model._noise == ()  # rejected before any noise was drawn

    def test_empty_batch(self):
        out = execute_cores([], [], [], [])
        assert out.instructions == [] and out.avg_latency == []

    def test_core_cpis_equal_scalar_cpi(self):
        model = quiet_model()
        hits = [0.0, 0.25, 0.5, 1.0]
        cpis = core_cpis([model] * 4, [MEMHEAVY] * 4, hits, [250.0] * 4).tolist()
        assert cpis == [model.cpi(MEMHEAVY, h, dram_latency=250.0) for h in hits]


class TestSocket:
    def test_paper_machine(self):
        spec = SocketSpec.xeon_e5_2697v4()
        assert spec.num_cores == 18
        assert spec.num_threads == 36
        assert spec.llc.num_ways == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            SocketSpec("x", 0, 1, 1e9, SocketSpec.xeon_d().llc)
