"""Tiered-fidelity cache substrates: contract, agreement, and the oracle.

Three claims pinned here:

1. **Agreement** — on stationary single-tenant stages the analytical and
   exact substrates report the same steady-state hit rate within a few
   percent, across seeds (the cross-validation the mixed oracle automates).
2. **Divergence detection** — a mixed run with a zero tolerance must
   report divergences: ``FidelityDivergence`` events on the bus, counted
   by :class:`~repro.obs.collectors.BusMetricsCollector`.
3. **Fidelity isolation** — with sampling disabled, a mixed run's event
   trace is byte-identical to a pure analytical run's: the oracle is
   observation-only and its absence leaves no fingerprint.

Plus the plumbing: ``build_substrate`` validation, the one-simulation
bind contract, exact-substrate COS recycling across churn, and the run
context's fidelity as the default for simulations built without one.
"""

import io

import pytest

from repro.engine.context import RunContext, current_context, use_context
from repro.engine.events import (
    EventBus,
    FidelityDivergence,
    JsonlTraceWriter,
    RingBufferRecorder,
)
from repro.mem.address import MB
from repro.obs.collectors import BusMetricsCollector
from repro.platform.machine import Machine
from repro.platform.managers import DCatManager, SharedCacheManager, StaticCatManager
from repro.platform.sim import CloudSimulation
from repro.platform.substrate import (
    FIDELITIES,
    AnalyticalSubstrate,
    ExactSubstrate,
    MixedSubstrate,
    build_substrate,
)
from repro.platform.vm import VirtualMachine, pin_vms
from repro.workloads.lookbusy import LookbusyWorkload
from repro.workloads.mlr import MlrWorkload


def single_tenant_stage(machine, wss_bytes=2 * MB, start_delay_s=0.0):
    vms = [
        VirtualMachine(
            "target",
            MlrWorkload(wss_bytes, start_delay_s=start_delay_s, name="target"),
            baseline_ways=1,
        ),
        VirtualMachine("lb0", LookbusyWorkload(name="lb0"), baseline_ways=1),
    ]
    return pin_vms(vms, machine.spec)


class TestAnalyticalExactAgreement:
    """Seeded property: the two fidelities agree on stationary phases."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_steady_hit_rates_agree_single_tenant(self, seed):
        def run(substrate):
            machine = Machine(seed=seed)
            sim = CloudSimulation(
                machine,
                single_tenant_stage(machine),
                StaticCatManager(),
                substrate=substrate,
            )
            return sim.run(10.0)

        fast = run(AnalyticalSubstrate())
        exact = run(ExactSubstrate(accesses_per_interval=100_000, seed=seed))
        f = fast.steady_mean("target", "llc_hit_rate", 4)
        e = exact.steady_mean("target", "llc_hit_rate", 4)
        assert e == pytest.approx(f, abs=0.05)


class TestDivergenceDetection:
    def test_zero_tolerance_mixed_run_reports_divergence(self):
        """Analytical and measured hit rates never match to the last bit,
        so a zero-tolerance oracle sampling every interval must fire —
        on the bus, in the log, and in the metrics registry."""
        ring = RingBufferRecorder()
        collector = BusMetricsCollector()
        bus = EventBus()
        bus.subscribe(ring)
        bus.subscribe(collector.on_event)

        machine = Machine(seed=5)
        oracle = MixedSubstrate(
            sample_rate=1.0,
            tolerance=0.0,
            warmup_samples=0,
            accesses_per_interval=20_000,
        )
        sim = CloudSimulation(
            machine,
            single_tenant_stage(machine),
            DCatManager(),
            bus=bus,
            substrate=oracle,
        )
        sim.run(6.0)

        assert oracle.samples > 0
        assert oracle.divergences > 0
        assert len(oracle.divergence_log) == oracle.divergences

        events = ring.of_type(FidelityDivergence)
        assert len(events) == oracle.divergences
        first = events[0]
        assert first.workload_id == "target"
        assert first.tolerance == 0.0
        assert first.analytical != first.exact

        counted = collector.registry.value(
            "dcat_fidelity_divergences_total", workload="target"
        )
        assert counted == oracle.divergences

    def test_generous_tolerance_stays_silent(self):
        machine = Machine(seed=5)
        oracle = MixedSubstrate(
            sample_rate=1.0,
            tolerance=1.0,  # hit rates live in [0, 1]: nothing can diverge
            warmup_samples=0,
            accesses_per_interval=20_000,
        )
        sim = CloudSimulation(
            machine, single_tenant_stage(machine), DCatManager(), substrate=oracle
        )
        sim.run(6.0)
        assert oracle.samples > 0
        assert oracle.divergences == 0
        assert oracle.divergence_log == []


class TestMixedNoSamplingIsAnalytical:
    """sample_rate=0 must leave no fingerprint: byte-identical traces."""

    def _trace(self, substrate):
        buffer = io.StringIO()
        writer = JsonlTraceWriter(buffer)
        bus = EventBus()
        bus.subscribe(writer)
        machine = Machine(seed=9)
        sim = CloudSimulation(
            machine,
            single_tenant_stage(machine, start_delay_s=2.0),
            DCatManager(),
            bus=bus,
            substrate=substrate,
        )
        sim.run(8.0)
        writer.close()
        return buffer.getvalue()

    def test_traces_byte_identical(self):
        analytical = self._trace(AnalyticalSubstrate())
        mixed = self._trace(MixedSubstrate(sample_rate=0.0))
        assert analytical  # the run actually emitted events
        assert mixed == analytical

    def test_no_sampling_oracle_never_samples(self):
        machine = Machine(seed=9)
        oracle = MixedSubstrate(sample_rate=0.0)
        sim = CloudSimulation(
            machine, single_tenant_stage(machine), DCatManager(), substrate=oracle
        )
        sim.run(4.0)
        assert oracle.samples == 0
        assert oracle.divergences == 0


class TestBuildSubstrate:
    def test_builds_each_fidelity(self):
        assert isinstance(build_substrate("analytical"), AnalyticalSubstrate)
        assert isinstance(build_substrate("exact", seed=7), ExactSubstrate)
        mixed = build_substrate("mixed", sample_rate=0.5, tolerance=0.2)
        assert isinstance(mixed, MixedSubstrate)
        assert mixed.sample_rate == 0.5
        assert mixed.tolerance == 0.2

    def test_unknown_fidelity_names_the_choices(self):
        with pytest.raises(ValueError, match="unknown fidelity 'quantum'"):
            build_substrate("quantum")

    def test_analytical_accepts_no_options(self):
        with pytest.raises(ValueError, match="does not accept option"):
            build_substrate("analytical", seed=1)

    def test_exact_rejects_mixed_only_options(self):
        with pytest.raises(ValueError, match=r"\['sample_rate'\]"):
            build_substrate("exact", sample_rate=0.5)

    def test_mixed_validates_option_ranges(self):
        with pytest.raises(ValueError, match="sample_rate"):
            build_substrate("mixed", sample_rate=1.5)
        with pytest.raises(ValueError, match="tolerance"):
            build_substrate("mixed", tolerance=-0.1)
        with pytest.raises(ValueError, match="warmup_samples"):
            build_substrate("mixed", warmup_samples=-1)


class TestBindContract:
    @pytest.mark.parametrize(
        "factory", [AnalyticalSubstrate, ExactSubstrate, MixedSubstrate]
    )
    def test_substrates_bind_once(self, factory):
        substrate = factory()
        machine = Machine(seed=1)
        CloudSimulation(
            machine, single_tenant_stage(machine), StaticCatManager(),
            substrate=substrate,
        )
        other = Machine(seed=2)
        with pytest.raises(RuntimeError, match="already bound"):
            CloudSimulation(
                other, single_tenant_stage(other), StaticCatManager(),
                substrate=substrate,
            )

    def test_unbound_substrate_has_no_sim(self):
        with pytest.raises(AssertionError):
            AnalyticalSubstrate().sim


class TestExactRmidTags:
    """The exact LLC tags each line with its owner's RMID, so a tenant's
    tag is the simulation's RMID and is recycled with it."""

    def test_departed_vm_rmid_tags_the_next_arrival(self):
        machine = Machine(seed=1)
        substrate = ExactSubstrate(accesses_per_interval=4_000)
        sim = CloudSimulation(
            machine, single_tenant_stage(machine), StaticCatManager(),
            substrate=substrate,
        )
        sim.run(1.0)
        assert set(substrate.llc.occupancy_by_cos()) == {sim.rmid_of("target")}
        recycled = sim.rmid_of("target")
        sim.detach_vm("target")
        sim.attach_vm(VirtualMachine(
            "newcomer", MlrWorkload(8 * MB, name="newcomer"), baseline_ways=1,
            vcpus=(8, 9),
        ))
        assert sim.rmid_of("newcomer") == recycled
        before = substrate.llc.occupancy_by_cos()[recycled]
        sim.run(1.0)
        assert substrate.llc.occupancy_by_cos()[recycled] > before

    def test_shared_host_attaches_a_sixteenth_vm(self):
        """Tags are not bounded by the 16 classes of service: a shared
        host (no CAT classes in use) can hold as many tenants as RMIDs."""
        machine = Machine(seed=1)
        vms = pin_vms(
            [VirtualMachine(f"lb{i}", LookbusyWorkload(name=f"lb{i}")) for i in range(15)],
            machine.spec, vcpus_per_vm=1,
        )
        substrate = ExactSubstrate(accesses_per_interval=4_000)
        sim = CloudSimulation(machine, vms, SharedCacheManager(), substrate=substrate)
        sim.attach_vm(VirtualMachine(
            "late", MlrWorkload(2 * MB, name="late"), vcpus=(20,),
        ))
        sim.run(2.0)
        assert sim.rmid_of("late") == 16
        assert substrate.llc.occupancy_by_cos()[16] > 0
        assert sim.result.timeline("late")[-1].llc_hit_rate > 0.0


class TestDefaultFidelitySlot:
    """The run context's fidelity: what a simulation built without a
    substrate runs on."""

    @staticmethod
    def default_substrate():
        machine = Machine(seed=1)
        return CloudSimulation(
            machine, single_tenant_stage(machine), StaticCatManager()
        ).substrate

    def test_default_is_analytical(self):
        assert current_context().fidelity is None
        assert isinstance(self.default_substrate(), AnalyticalSubstrate)

    def test_use_context_scopes_the_fidelity(self):
        with use_context(RunContext.parse(fidelity="exact")):
            with use_context(RunContext.parse(fidelity="mixed")):
                assert isinstance(self.default_substrate(), MixedSubstrate)
            # Leaving the inner block restores the outer context.
            assert current_context().fidelity == "exact"
            assert isinstance(self.default_substrate(), ExactSubstrate)
        assert current_context().fidelity is None

    def test_unknown_fidelity_leaves_context_untouched(self):
        with use_context(RunContext.parse(fidelity="mixed")):
            with pytest.raises(ValueError, match="--fidelity: unknown fidelity 'bogus'"):
                use_context(RunContext.parse(fidelity="bogus"))
            with pytest.raises(TypeError, match="RunContext"):
                with use_context("exact"):
                    pass
            assert current_context().fidelity == "mixed"

    def test_none_restores_analytical(self):
        with use_context(RunContext.parse(fidelity="exact")):
            with use_context(RunContext()):
                assert isinstance(self.default_substrate(), AnalyticalSubstrate)

    def test_fidelity_order_is_cost_order(self):
        assert FIDELITIES == ("analytical", "mixed", "exact")
