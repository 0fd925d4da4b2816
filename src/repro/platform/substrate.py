"""Swappable cache substrates: how the simulation resolves LLC hit rates.

The simulation loop (:class:`~repro.platform.sim.CloudSimulation`) is
fidelity-agnostic: each interval it asks its :class:`CacheSubstrate` for
every VM's LLC hit rate and effective ways, given the phases about to
execute.  Three substrates implement that contract:

* :class:`AnalyticalSubstrate` — the fast path: closed-form hit rates from
  :class:`~repro.cache.analytical.AnalyticalCacheModel` under CAT masks,
  or the shared-LLC contention solver when nothing is partitioned.
* :class:`ExactSubstrate` — measurement: sampled per-VM access traces
  (real physical addresses through per-VM page tables) interleaved and
  driven through one tag-array :class:`~repro.cache.setassoc.SetAssociativeCache`
  under the live CAT masks.  10-100x slower; the ground truth.
* :class:`MixedSubstrate` — the analytical fast path every interval plus,
  on deterministically sampled intervals, an exact replay of the same
  interval as an online cross-validation oracle.  When the two hit-rate
  estimates diverge past a tolerance it emits
  :class:`~repro.engine.events.FidelityDivergence` on the bus.

Fidelity is a per-experiment dial: pass a substrate to
:class:`~repro.platform.sim.CloudSimulation` (or a ``fidelity`` spec to
scenario files / :class:`~repro.cloud.fleet.FleetMachine`); a simulation
built without one takes the fidelity of the current
:class:`~repro.engine.context.RunContext` — the route ``dcat-experiment
run --fidelity exact|analytical|mixed`` takes, so any registered
experiment can run at any fidelity without code changes.

Mixed-mode sampling discipline: the oracle's tag array persists across
sampled intervals, warming the way the pure exact mode warms across *all*
intervals — so each VM's first ``warmup_samples`` spot checks only seed
that state and are never judged; within each sampled interval the first
half of the interleaved trace re-warms after any allocation change and
only the second half is measured.  A substrate's spot check never touches
machine state (CMT occupancy, PMUs): with ``sample_rate=0`` a mixed run
is byte-identical to an analytical one.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.cache.analytical import AccessPattern
from repro.cache.contention import CacheDemand
from repro.cache.setassoc import SetAssociativeCache
from repro.engine.events import FidelityDivergence
from repro.engine.runner import derive_seed
from repro.mem.paging import PageTable
from repro.workloads.trace import TraceGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports us)
    from repro.platform.sim import CloudSimulation
    from repro.platform.vm import VirtualMachine
    from repro.workloads.base import Phase

__all__ = [
    "FIDELITIES",
    "CacheSubstrate",
    "AnalyticalSubstrate",
    "ExactSubstrate",
    "MixedSubstrate",
    "build_substrate",
]

#: The fidelity dial's legal positions, in increasing cost order.
FIDELITIES = ("analytical", "mixed", "exact")

Resolution = Tuple[Dict[str, float], Dict[str, float]]


class CacheSubstrate(abc.ABC):
    """Resolves per-VM hit rates and effective ways for one interval.

    A substrate is bound to exactly one simulation (:meth:`bind`, called by
    ``CloudSimulation.__init__``) and sees tenant churn through
    :meth:`on_attach` / :meth:`on_detach`, so stateful substrates (page
    tables, tag arrays) can track the resident set.
    """

    name: str = "substrate"

    def __init__(self) -> None:
        self._sim: Optional["CloudSimulation"] = None

    @property
    def sim(self) -> "CloudSimulation":
        assert self._sim is not None, "substrate is not bound to a simulation"
        return self._sim

    def bind(self, sim: "CloudSimulation") -> None:
        """Adopt the simulation (once); sees its machine, VMs and manager."""
        if self._sim is not None:
            raise RuntimeError(
                f"{type(self).__name__} is already bound to a simulation; "
                "substrates are stateful — build one per CloudSimulation"
            )
        self._sim = sim
        for vm in sim.vms:
            self.on_attach(vm)

    def on_attach(self, vm: "VirtualMachine") -> None:
        """A VM joined the simulation (at bind time or mid-run churn)."""

    def on_detach(self, vm_name: str) -> None:
        """A VM left the simulation (mid-run churn)."""

    @abc.abstractmethod
    def resolve(self, phases: Mapping[str, Optional["Phase"]]) -> Resolution:
        """Per-VM LLC hit rate and effective ways for this interval."""


class AnalyticalSubstrate(CacheSubstrate):
    """Closed-form hit rates: the fast path every figure/table bench uses.

    Partitioned managers resolve each VM through the analytical model at
    its CAT-granted ways; the shared regime routes every demanding VM
    through the contention solver, seeding reference-rate estimates from
    the previous interval's resolved hit rate.
    """

    name = "analytical"

    def __init__(self) -> None:
        super().__init__()
        # Previous-interval hit-rate estimate per VM, used to seed the
        # contention solver's reference-rate estimates.
        self._last_hit: Dict[str, float] = {}

    def on_attach(self, vm: "VirtualMachine") -> None:
        self._last_hit[vm.name] = 0.5

    def on_detach(self, vm_name: str) -> None:
        self._last_hit.pop(vm_name, None)

    def resolve(self, phases: Mapping[str, Optional["Phase"]]) -> Resolution:
        sim = self.sim
        machine = sim.machine
        hit: Dict[str, float] = {}
        ways: Dict[str, float] = {}

        if sim.manager.mode == "shared":
            demanding = []
            for vm in sim.vms:
                phase = phases[vm.name]
                if phase is None or phase.pattern is AccessPattern.NONE:
                    hit[vm.name] = 0.0
                    ways[vm.name] = 0.0
                    continue
                behavior = phase.behavior
                if behavior.l1_miss_ratio <= 0 or phase.wss_bytes <= 0:
                    hit[vm.name] = 0.0
                    ways[vm.name] = 0.0
                    continue
                # Reference rate estimate from last interval's hit rate.
                cpi_est = machine.core_models.built[vm.vcpus[0]].cpi(
                    behavior, self._last_hit[vm.name]
                )
                ref_rate = (
                    behavior.refs_per_instr
                    * behavior.l1_miss_ratio
                    * behavior.duty_cycle
                    * len(vm.busy_vcpus)
                    / cpi_est
                )
                demanding.append(
                    (vm.name, CacheDemand(phase.footprint, ref_rate=ref_rate))
                )
            shares = machine.contention.solve([d for _, d in demanding])
            for (name, _), share in zip(demanding, shares):
                hit[name] = share.hit_rate
                ways[name] = share.effective_ways
            self._last_hit.update(hit)
            return hit, ways

        for vm in sim.vms:
            phase = phases[vm.name]
            w = machine.effective_ways(vm.vcpus[0])
            ways[vm.name] = float(w)
            if phase is None or phase.pattern is AccessPattern.NONE:
                hit[vm.name] = 0.0
                continue
            hit[vm.name] = machine.analytic.hit_rate_fp(phase.footprint, w)
        self._last_hit.update(hit)
        return hit, ways


class ExactSubstrate(CacheSubstrate):
    """Measured hit rates on a real tag-array LLC.

    Each interval it generates a sampled access trace per VM, interleaves
    the traces in proportion to reference rates, and drives them through a
    shared :class:`SetAssociativeCache` under the live CAT masks.  The
    first half of each interval's interleaved trace warms the cache after
    any allocation change; only the second half is measured.  Unlike real
    hardware, accesses are sampled (counter magnitudes are scaled, rates
    preserved) and chunked round-robin stands in for cycle-accurate
    arbitration.

    VMs present at :meth:`bind` time draw their page-table and trace RNG
    streams sequentially from the master seed (the historical exact-platform
    discipline, preserved bit-for-bit); VMs that
    churn in later derive per-name seeds so arrival order cannot perturb
    other tenants' streams.  A departed tenant's lines stay resident until
    evicted — exactly as on real hardware.

    Args:
        accesses_per_interval: Total sampled LLC references driven per
            interval across all VMs (split by relative reference rate).
        interleave_chunks: Round-robin granularity of the merged trace.
        seed: Seed for the per-VM trace generators.
        llc_policy: Replacement policy for the tag-array LLC (``lru``
            engages the batch pipeline's inlined stamp path, so it is
            also the fastest choice).
    """

    name = "exact"

    def __init__(
        self,
        accesses_per_interval: int = 40_000,
        interleave_chunks: int = 16,
        seed: int = 2024,
        llc_policy: str = "lru",
    ) -> None:
        super().__init__()
        if accesses_per_interval < 1:
            raise ValueError("accesses_per_interval must be positive")
        self.accesses_per_interval = accesses_per_interval
        self.interleave_chunks = max(1, interleave_chunks)
        self.seed = seed
        self.llc_policy = llc_policy
        self.llc: Optional[SetAssociativeCache] = None
        self._tables: Dict[str, PageTable] = {}
        self._trace_rng: Dict[str, np.random.Generator] = {}
        self._generators: Dict[Tuple[str, str], TraceGenerator] = {}
        self._cos_of: Dict[str, int] = {}
        self._free_cos: List[int] = []
        # Previous-interval IPC estimates seed the reference-rate split.
        self._ipc_estimate: Dict[str, float] = {}

    def bind(self, sim: "CloudSimulation") -> None:
        if self._sim is not None:
            raise RuntimeError(
                f"{type(self).__name__} is already bound to a simulation; "
                "substrates are stateful — build one per CloudSimulation"
            )
        self._sim = sim
        machine = sim.machine
        self.llc = SetAssociativeCache(machine.spec.llc, policy=self.llc_policy)
        # Historical seeding for the initial resident set: two sequential
        # draws per VM from the master stream, in VM order.
        master = np.random.default_rng(self.seed)
        for vm in sim.vms:
            self._tables[vm.name] = PageTable(
                rng=np.random.default_rng(master.integers(0, 2**63))
            )
        for vm in sim.vms:
            self._trace_rng[vm.name] = np.random.default_rng(
                master.integers(0, 2**63)
            )
        for i, vm in enumerate(sim.vms):
            self._cos_of[vm.name] = i + 1
            self._ipc_estimate[vm.name] = 0.3
        num_cos = machine.pqos.cap_get().num_cos
        used = set(self._cos_of.values())
        self._free_cos = [c for c in range(1, num_cos) if c not in used]

    def on_attach(self, vm: "VirtualMachine") -> None:
        if vm.name in self._cos_of:
            return  # bind() already registered the initial resident set
        if not self._free_cos:
            raise ValueError(
                f"exact substrate has no free COS tag for VM {vm.name!r}"
            )
        self._cos_of[vm.name] = self._free_cos.pop(0)
        self._tables[vm.name] = PageTable(
            rng=np.random.default_rng(derive_seed(self.seed, vm.name))
        )
        self._trace_rng[vm.name] = np.random.default_rng(
            derive_seed(self.seed, vm.name + "/trace")
        )
        self._ipc_estimate[vm.name] = 0.3

    def on_detach(self, vm_name: str) -> None:
        cos = self._cos_of.pop(vm_name, None)
        if cos is not None:
            self._free_cos.append(cos)
            self._free_cos.sort()
        self._tables.pop(vm_name, None)
        self._trace_rng.pop(vm_name, None)
        self._ipc_estimate.pop(vm_name, None)
        for key in [k for k in self._generators if k[0] == vm_name]:
            del self._generators[key]

    # -- trace plumbing ------------------------------------------------------

    def _generator_for(self, vm_name: str, phase: "Phase") -> TraceGenerator:
        key = (vm_name, phase.name)
        gen = self._generators.get(key)
        if gen is None:
            gen = TraceGenerator(
                phase.footprint,
                self._tables[vm_name],
                rng=self._trace_rng[vm_name],
                line_size=self.sim.machine.spec.llc.line_size,
            )
            self._generators[key] = gen
        return gen

    def _reference_budget(
        self, phases: Mapping[str, Optional["Phase"]]
    ) -> Dict[str, int]:
        """Split the interval's access budget by relative LLC demand."""
        demands: Dict[str, float] = {}
        for vm in self.sim.vms:
            phase = phases[vm.name]
            if phase is None or phase.pattern is AccessPattern.NONE:
                continue
            b = phase.behavior
            if b.l1_miss_ratio <= 0 or phase.wss_bytes <= 0:
                continue
            instr_rate = self._ipc_estimate[vm.name] * len(vm.busy_vcpus)
            demands[vm.name] = (
                b.refs_per_instr * b.l1_miss_ratio * b.duty_cycle * instr_rate
            )
        total = sum(demands.values())
        if total <= 0:
            return {}
        return {
            name: max(1, int(self.accesses_per_interval * d / total))
            for name, d in demands.items()
        }

    # -- measurement ---------------------------------------------------------

    def measure(
        self, phases: Mapping[str, Optional["Phase"]]
    ) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Replay one interval through the tag array; measure per-VM hits.

        Pure with respect to machine state: only the substrate's own tag
        array, RNG streams and IPC estimates advance, so the mixed oracle
        can call this as a side-effect-free spot check.

        Returns:
            ``(hit_rates, measured)`` — hit rate per VM (0.0 for idle VMs)
            and the number of measured accesses behind each estimate.
        """
        sim = self.sim
        machine = sim.machine
        assert self.llc is not None
        budgets = self._reference_budget(phases)

        # Pre-generate every VM's trace, then drive the cache in chunked
        # round-robin so co-runners contend the way concurrent cores do.
        traces: Dict[str, np.ndarray] = {
            name: self._generator_for(name, phases[name]).generate(count)
            for name, count in budgets.items()
        }
        hits: Dict[str, int] = {name: 0 for name in traces}
        measured: Dict[str, int] = {name: 0 for name in traces}
        chunks: List[Tuple[str, int, np.ndarray]] = []
        for name, trace in traces.items():
            for ci, part in enumerate(np.array_split(trace, self.interleave_chunks)):
                if part.size:
                    chunks.append((name, ci, part))
        # Stable round-robin: chunk i of every VM before chunk i+1 of any.
        order = sorted(range(len(chunks)), key=lambda i: (chunks[i][1], i))
        shared = sim.manager.mode == "shared"
        # The first half of each interval's trace warms the cache after any
        # allocation change; only the second half is measured.
        measure_from = self.interleave_chunks // 2
        for i in order:
            name, ci, part = chunks[i]
            vm = next(v for v in sim.vms if v.name == name)
            mask = (
                self.llc.full_mask
                if shared
                else machine.cat.effective_mask(vm.vcpus[0])
            )
            chunk_hits = self.llc.access_many(
                part, mask=mask, cos=self._cos_of[name]
            )
            if ci >= measure_from:
                hits[name] += chunk_hits
                measured[name] += int(part.size)

        hit_rates: Dict[str, float] = {}
        for vm in sim.vms:
            count = measured.get(vm.name, 0)
            hit_rates[vm.name] = hits.get(vm.name, 0) / count if count else 0.0

        # Refresh the IPC estimates for the next interval's budget split.
        for vm in sim.vms:
            phase = phases[vm.name]
            if phase is None:
                continue
            cpi = machine.core_models.built[vm.vcpus[0]].cpi(
                phase.behavior, hit_rates[vm.name]
            )
            self._ipc_estimate[vm.name] = 1.0 / cpi
        return hit_rates, measured

    def resolve(self, phases: Mapping[str, Optional["Phase"]]) -> Resolution:
        sim = self.sim
        machine = sim.machine
        assert self.llc is not None
        hit_rates, _ = self.measure(phases)
        shared = sim.manager.mode == "shared"

        ways: Dict[str, float] = {}
        occupancy = self.llc.occupancy_by_cos()
        for vm in sim.vms:
            if shared:
                ways[vm.name] = occupancy.get(self._cos_of[vm.name], 0) / max(
                    1, machine.spec.llc.num_sets
                )
            else:
                ways[vm.name] = float(machine.effective_ways(vm.vcpus[0]))

        # Exact occupancy feeds the CMT model (line-accurate, per COS).
        for vm in sim.vms:
            rmid = sim.rmid_of(vm.name)
            lines = occupancy.get(self._cos_of[vm.name], 0)
            machine.cmt.report_occupancy(
                rmid, lines * machine.spec.llc.line_size
            )
        return hit_rates, ways


class MixedSubstrate(CacheSubstrate):
    """Analytical every interval; exact spot checks on sampled intervals.

    The analytical resolution always drives the simulation, so timelines
    and reports depend only on the analytical path — the exact replay is
    an online cross-validation oracle.  On each sampled interval the same
    phases are replayed through a private :class:`ExactSubstrate` and each
    warm VM's measured hit rate is compared against the analytical one; a
    gap beyond ``tolerance`` emits :class:`FidelityDivergence` on the
    simulation's bus and increments :attr:`divergences`.

    Sampling is deterministically seeded (one draw per interval from a
    dedicated PCG64 stream), so a given scenario spot-checks the same
    intervals on every run.  With ``sample_rate=0`` no draw is made and
    the run is byte-identical to a pure analytical one.

    Args:
        sample_rate: Probability an interval is spot-checked (0 disables).
        tolerance: Absolute hit-rate gap beyond which divergence fires.
        warmup_samples: Per-VM sampled intervals that only warm the
            oracle's tag array before comparisons are trusted.
        seed: Seed for the sampling stream and the oracle substrate.
        accesses_per_interval: Oracle trace budget per sampled interval.
        interleave_chunks: Oracle round-robin granularity.
        llc_policy: Oracle tag-array replacement policy.
    """

    name = "mixed"

    def __init__(
        self,
        sample_rate: float = 0.25,
        tolerance: float = 0.1,
        warmup_samples: int = 3,
        seed: int = 2024,
        accesses_per_interval: int = 40_000,
        interleave_chunks: int = 16,
        llc_policy: str = "lru",
    ) -> None:
        super().__init__()
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be within [0, 1], got {sample_rate}")
        if tolerance < 0.0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        if warmup_samples < 0:
            raise ValueError(f"warmup_samples must be >= 0, got {warmup_samples}")
        self.sample_rate = sample_rate
        self.tolerance = tolerance
        self.warmup_samples = warmup_samples
        self.analytical = AnalyticalSubstrate()
        self.exact = ExactSubstrate(
            accesses_per_interval=accesses_per_interval,
            interleave_chunks=interleave_chunks,
            seed=seed,
            llc_policy=llc_policy,
        )
        self._sample_rng = np.random.default_rng(
            derive_seed(seed, "mixed/sampling")
        )
        self._samples_of: Dict[str, int] = {}
        #: Sampled intervals so far (warmup included).
        self.samples = 0
        #: Spot checks whose gap exceeded the tolerance.
        self.divergences = 0
        #: Every divergence as ``(time_s, vm, analytical, exact)``.
        self.divergence_log: List[Tuple[float, str, float, float]] = []

    def bind(self, sim: "CloudSimulation") -> None:
        if self._sim is not None:
            raise RuntimeError(
                f"{type(self).__name__} is already bound to a simulation; "
                "substrates are stateful — build one per CloudSimulation"
            )
        self._sim = sim
        self.analytical.bind(sim)
        self.exact.bind(sim)

    def on_attach(self, vm: "VirtualMachine") -> None:
        self.analytical.on_attach(vm)
        self.exact.on_attach(vm)

    def on_detach(self, vm_name: str) -> None:
        self.analytical.on_detach(vm_name)
        self.exact.on_detach(vm_name)
        self._samples_of.pop(vm_name, None)

    def resolve(self, phases: Mapping[str, Optional["Phase"]]) -> Resolution:
        hit, ways = self.analytical.resolve(phases)
        if self.sample_rate > 0.0 and self._sample_rng.random() < self.sample_rate:
            self._spot_check(phases, hit)
        return hit, ways

    def _spot_check(
        self,
        phases: Mapping[str, Optional["Phase"]],
        analytical_hit: Dict[str, float],
    ) -> None:
        self.samples += 1
        exact_hit, measured = self.exact.measure(phases)
        sim = self.sim
        bus = sim.bus
        for name in sorted(measured):
            if measured[name] <= 0:
                continue
            seen = self._samples_of.get(name, 0) + 1
            self._samples_of[name] = seen
            if seen <= self.warmup_samples:
                continue  # this VM's oracle state is still warming
            analytical = analytical_hit.get(name, 0.0)
            exact = exact_hit[name]
            if abs(exact - analytical) <= self.tolerance:
                continue
            self.divergences += 1
            self.divergence_log.append((sim.now, name, analytical, exact))
            if bus.active:
                # Resolution runs stage-major over a batch of hosts: the
                # event waits for this host's turn (CloudSimulation.defer).
                sim.defer(
                    FidelityDivergence.fast(
                        time_s=sim.now,
                        workload_id=name,
                        analytical=analytical,
                        exact=exact,
                        tolerance=self.tolerance,
                    )
                )


# -- construction -------------------------------------------------------------

#: Constructor keywords each fidelity accepts (beyond the mode itself).
_EXACT_OPTIONS = ("accesses_per_interval", "interleave_chunks", "seed", "llc_policy")
_MIXED_OPTIONS = _EXACT_OPTIONS + ("sample_rate", "tolerance", "warmup_samples")


def build_substrate(fidelity: str, **options: Any) -> CacheSubstrate:
    """Build a substrate for one simulation from a fidelity name.

    Args:
        fidelity: One of :data:`FIDELITIES`.
        options: Substrate constructor keywords (``seed``,
            ``accesses_per_interval``, ... for exact/mixed; ``sample_rate``,
            ``tolerance``, ``warmup_samples`` for mixed only).

    Raises:
        ValueError: For an unknown fidelity or an option the chosen
            fidelity does not accept — the message names both.
    """
    if fidelity not in FIDELITIES:
        raise ValueError(
            f"unknown fidelity {fidelity!r}; use one of {list(FIDELITIES)}"
        )
    allowed = {
        "analytical": (),
        "exact": _EXACT_OPTIONS,
        "mixed": _MIXED_OPTIONS,
    }[fidelity]
    unknown = sorted(set(options) - set(allowed))
    if unknown:
        raise ValueError(
            f"fidelity {fidelity!r} does not accept option(s) {unknown}; "
            f"allowed: {sorted(allowed) or 'none'}"
        )
    if fidelity == "analytical":
        return AnalyticalSubstrate()
    if fidelity == "exact":
        return ExactSubstrate(**options)
    return MixedSubstrate(**options)
