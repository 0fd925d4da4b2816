"""Tests for repro.workloads: phases, microbenchmarks, SPEC proxies."""

import numpy as np
import pytest

from repro.cache.analytical import AccessPattern
from repro.mem.address import MB
from repro.workloads.base import (
    PhasedWorkload,
    idle_phase,
    l1_miss_ratio_for,
)
from repro.workloads.lookbusy import LookbusyWorkload, lookbusy_phase
from repro.workloads.mload import (
    MloadWorkload,
    generate_mload_offsets,
    mload_phase,
)
from repro.workloads.mlr import MlrWorkload, generate_mlr_offsets, mlr_phase
from repro.workloads.spec import (
    SPEC_PROFILES,
    spec_benchmark_names,
    spec_workload,
)


class TestL1MissRatio:
    def test_none_pattern(self):
        assert l1_miss_ratio_for(AccessPattern.NONE, 10 * MB) == 0.0

    def test_l1_resident(self):
        assert l1_miss_ratio_for(AccessPattern.RANDOM, 16 * 1024) == 0.0

    def test_sequential_spatial_locality(self):
        assert l1_miss_ratio_for(AccessPattern.SEQUENTIAL, 60 * MB) == pytest.approx(
            8 / 64
        )

    def test_random_large_wss_mostly_misses(self):
        ratio = l1_miss_ratio_for(AccessPattern.RANDOM, 32 * MB)
        assert ratio > 0.99


class TestPhase:
    def test_duration_validation(self):
        with pytest.raises(ValueError):
            mlr_phase(MB, duration_s=-1.0)

    def test_instruction_validation(self):
        with pytest.raises(ValueError):
            mlr_phase(MB, instructions=0)

    def test_footprint_exposed(self):
        fp = mlr_phase(8 * MB).footprint
        assert fp.pattern is AccessPattern.RANDOM
        assert fp.wss_bytes == 8 * MB


class TestPhasedWorkload:
    def two_phase(self):
        return PhasedWorkload(
            "w",
            phases=[
                mlr_phase(MB, duration_s=2.0, name="p1"),
                mlr_phase(2 * MB, instructions=1000, name="p2"),
            ],
        )

    def test_initial_phase(self):
        w = self.two_phase()
        assert w.current_phase().name == "p1"
        assert not w.finished

    def test_time_bounded_transition(self):
        w = self.two_phase()
        w.advance(2.0, 500)
        assert w.current_phase().name == "p2"

    def test_work_bounded_transition(self):
        w = self.two_phase()
        w.advance(2.0, 0)
        w.advance(1.0, 999)
        assert w.current_phase().name == "p2"
        w.advance(1.0, 1)
        assert w.finished

    def test_finished_workload_reports_none(self):
        w = self.two_phase()
        w.advance(2.0, 0)
        w.advance(1.0, 1000)
        assert w.current_phase() is None
        w.advance(1.0, 100)  # harmless after finish

    def test_loop(self):
        w = PhasedWorkload(
            "w", phases=[mlr_phase(MB, duration_s=1.0, name="p")], loop=True
        )
        for _ in range(5):
            w.advance(1.0, 10)
        assert not w.finished
        assert w.current_phase().name == "p"

    def test_reset(self):
        w = self.two_phase()
        w.advance(2.0, 0)
        w.reset()
        assert w.current_phase().name == "p1"

    def test_start_delay_inserts_idle(self):
        w = PhasedWorkload("w", [mlr_phase(MB)], start_delay_s=3.0)
        assert "idle" in w.current_phase().name
        w.advance(3.0, 10)
        assert w.current_phase().name.startswith("mlr")

    def test_remaining_instructions(self):
        w = PhasedWorkload("w", [mlr_phase(MB, instructions=1000)])
        assert w.remaining_instructions() == 1000
        w.advance(1.0, 300)
        assert w.remaining_instructions() == 700

    def test_negative_progress_rejected(self):
        with pytest.raises(ValueError):
            self.two_phase().advance(-1.0, 0)

    def test_needs_phases(self):
        with pytest.raises(ValueError):
            PhasedWorkload("w", [])

    def test_idle_phase_is_quiet(self):
        p = idle_phase(duration_s=1.0)
        assert p.behavior.duty_cycle <= 0.05
        assert p.pattern is AccessPattern.NONE


class TestMicrobenchmarks:
    def test_mlr_is_random(self):
        p = mlr_phase(8 * MB)
        assert p.pattern is AccessPattern.RANDOM
        assert p.behavior.mlp < 2.0  # latency bound

    def test_mload_is_streaming(self):
        p = mload_phase(60 * MB)
        assert p.pattern is AccessPattern.SEQUENTIAL
        assert p.behavior.mlp >= 4.0
        assert p.behavior.l1_miss_ratio == pytest.approx(0.125)

    def test_same_refs_per_instr(self):
        """MLR and MLOAD share the refs/instr signature (both tight loops)."""
        assert (
            mlr_phase(8 * MB).behavior.refs_per_instr
            == mload_phase(60 * MB).behavior.refs_per_instr
        )

    def test_lookbusy_no_llc_traffic(self):
        p = lookbusy_phase()
        assert p.behavior.l1_miss_ratio == 0.0
        assert p.pattern is AccessPattern.NONE

    def test_lookbusy_utilization_validation(self):
        with pytest.raises(ValueError):
            lookbusy_phase(utilization=0.0)

    def test_workload_names(self):
        assert MlrWorkload(8 * MB).name == "mlr-8mb"
        assert MloadWorkload().name == "mload-60mb"
        assert LookbusyWorkload().parallelism > 1

    def test_mload_uses_both_vcpus(self):
        assert MloadWorkload().parallelism == 2


class TestOffsetGenerators:
    def test_mlr_offsets_within_bounds(self):
        offsets = generate_mlr_offsets(1 * MB, 1000, rng=np.random.default_rng(0))
        assert offsets.size == 1000
        assert (offsets >= 0).all()
        assert (offsets < 1 * MB).all()
        assert (offsets % 64 == 0).all()

    def test_mload_offsets_sequential_and_cyclic(self):
        offsets = generate_mload_offsets(64 * 10, 25, start=0)
        assert offsets[0] == 0
        assert offsets[1] == 64
        assert offsets[10] == 0  # wrapped after 10 lines

    def test_mload_resume(self):
        first = generate_mload_offsets(64 * 10, 5, start=0)
        second = generate_mload_offsets(64 * 10, 5, start=5)
        assert second[0] == 5 * 64
        assert not np.array_equal(first, second)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_mlr_offsets(MB, -1)


class TestSpecProxies:
    def test_twenty_benchmarks(self):
        assert len(spec_benchmark_names()) == 20

    def test_paper_winners_present(self):
        names = spec_benchmark_names()
        for required in ("omnetpp", "astar", "libquantum", "mcf"):
            assert required in names

    def test_streaming_benchmarks_sequential(self):
        for name in ("libquantum", "lbm", "milc", "bwaves", "leslie3d"):
            assert SPEC_PROFILES[name].pattern is AccessPattern.SEQUENTIAL

    def test_every_profile_builds_a_valid_phase(self):
        for name in spec_benchmark_names():
            phase = SPEC_PROFILES[name].phase()
            assert phase.instructions > 0
            assert phase.behavior.refs_per_instr > 0

    def test_workload_factory(self):
        w = spec_workload("omnetpp", instructions=1234)
        assert w.current_phase().instructions == 1234

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError, match="unknown SPEC"):
            spec_workload("doom3")

    def test_small_benchmarks_are_llc_quiet(self):
        for name in ("perlbench", "hmmer", "namd", "gobmk"):
            behavior = SPEC_PROFILES[name].phase().behavior
            assert behavior.l1_miss_ratio < 0.05
