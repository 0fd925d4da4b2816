"""Fidelity validation: the analytical model vs the exact tag array, online.

Not a paper figure — the reproduction's own cross-check, promoted into the
registry so the exact substrate is exercised by ``dcat-experiment`` (and
the registry smoke sweep), not only by tests.  One stage — an MLR target
growing into its working set next to lookbusy neighbors under dCat — runs
at all three fidelities:

* **analytical** — the fast closed-form path every figure bench uses;
* **exact** — :class:`~repro.platform.substrate.ExactSubstrate` injected
  into the same ``CloudSimulation`` (``--fidelity exact``), measuring each
  hit rate on a real :class:`~repro.cache.setassoc.SetAssociativeCache`;
* **mixed** — analytical with the exact oracle spot-checking every
  interval (``sample_rate=1``), counting ``FidelityDivergence`` events.

The experiment passes when the controller's ways trajectory is identical
across fidelities, the steady-state hit rates agree within tolerance, and
the mixed oracle reports zero divergences.
"""

from __future__ import annotations

from repro.harness.results import ExperimentResult, Series, TableResult
from repro.harness.scenarios import build_stage, paper_machine
from repro.mem.address import MB
from repro.platform.managers import DCatManager
from repro.platform.sim import CloudSimulation
from repro.platform.substrate import ExactSubstrate, MixedSubstrate
from repro.workloads.mlr import MlrWorkload

__all__ = ["run_fidelity_validation"]

_TOLERANCE = 0.1


def _stage(machine):
    return build_stage(
        machine,
        [MlrWorkload(2 * MB, start_delay_s=2.0, name="target")],
        baseline_ways=1,
        n_lookbusy=3,
    )


def run_fidelity_validation(
    seed: int = 1234,
    duration_s: float = 18.0,
    accesses_per_interval: int = 120_000,
) -> ExperimentResult:
    """Cross-validate the cache substrates on one dCat stage.

    Args:
        seed: Machine seed, shared by all three runs (paired comparison).
        duration_s: Virtual time per run.
        accesses_per_interval: Exact-substrate trace budget per interval.
    """
    result = ExperimentResult(
        "fidelity_validation",
        "Analytical vs exact vs mixed cache substrates, one dCat stage",
    )

    runs = {}
    machine = paper_machine(seed=seed)
    fast = CloudSimulation(machine, _stage(machine), DCatManager())
    runs["analytical"] = fast.run(duration_s)

    machine = paper_machine(seed=seed)
    exact_sim = CloudSimulation(
        machine,
        _stage(machine),
        DCatManager(),
        substrate=ExactSubstrate(accesses_per_interval=accesses_per_interval),
    )
    runs["exact"] = exact_sim.run(duration_s)

    machine = paper_machine(seed=seed)
    oracle = MixedSubstrate(
        sample_rate=1.0,
        tolerance=_TOLERANCE,
        accesses_per_interval=accesses_per_interval,
    )
    mixed_sim = CloudSimulation(
        machine, _stage(machine), DCatManager(), substrate=oracle
    )
    runs["mixed"] = mixed_sim.run(duration_s)

    table = TableResult(
        headers=["fidelity", "steady_hit_rate", "steady_ipc", "final_ways"]
    )
    for label, run in runs.items():
        table.add_row(
            label,
            round(run.steady_mean("target", "llc_hit_rate", 5), 4),
            round(run.steady_mean("target", "ipc", 5), 4),
            run.final("target", "ways"),
        )
        times = run.series("target", "time_s")
        result.add(
            f"hit_rate_{label}",
            Series(
                name=f"target hit rate ({label})",
                x=times,
                y=run.series("target", "llc_hit_rate"),
            ),
        )
    result.add("substrates", table)

    ways_agree = (
        runs["analytical"].series("target", "ways")
        == runs["exact"].series("target", "ways")
        == runs["mixed"].series("target", "ways")
    )
    hit_gap = abs(
        runs["analytical"].steady_mean("target", "llc_hit_rate", 5)
        - runs["exact"].steady_mean("target", "llc_hit_rate", 5)
    )
    result.note(
        "controller ways trajectory identical across fidelities: "
        f"{'yes' if ways_agree else 'NO'}"
    )
    result.note(f"steady-state hit-rate gap (analytical vs exact): {hit_gap:.4f}")
    result.note(
        f"mixed oracle: {oracle.samples} spot checks, "
        f"{oracle.divergences} divergences past tolerance {_TOLERANCE}"
    )
    return result
