"""Validation bench: the full dCat stack on the exact tag-array LLC.

Not a paper artifact — this regenerates the reproduction's own validation
claim: running the controller against a *real* set-associative cache model
(every access walks the tag array under the programmed CAT masks) yields
the same allocation trajectory as the fast analytical mode used by the
figure/table benches.
"""

from repro.mem.address import MB
from repro.platform.machine import Machine
from repro.platform.managers import DCatManager
from repro.platform.sim import CloudSimulation
from repro.platform.substrate import ExactSubstrate
from repro.platform.vm import VirtualMachine, pin_vms
from repro.workloads.lookbusy import LookbusyWorkload
from repro.workloads.mlr import MlrWorkload


def _build(exact):
    machine = Machine(seed=5)
    vms = [
        VirtualMachine(
            "target",
            MlrWorkload(2 * MB, start_delay_s=2.0, name="target"),
            baseline_ways=1,
        )
    ] + [
        VirtualMachine(
            f"lb{i}", LookbusyWorkload(name=f"lb{i}"), baseline_ways=1
        )
        for i in range(3)
    ]
    pin_vms(vms, machine.spec)
    substrate = ExactSubstrate(accesses_per_interval=120_000) if exact else None
    return CloudSimulation(machine, vms, DCatManager(), substrate=substrate)


def test_validation_exact_vs_fast(benchmark):
    def run():
        exact = _build(True).run(16.0)
        fast = _build(False).run(16.0)
        return exact, fast

    exact, fast = benchmark.pedantic(run, rounds=1, iterations=1)

    ways_exact = exact.series("target", "ways")
    ways_fast = fast.series("target", "ways")
    print(f"\nexact ways: {ways_exact}\nfast ways : {ways_fast}")

    # Identical control decisions on both substrates.
    assert ways_exact == ways_fast
    # Steady hit rates agree within measurement noise.
    e = exact.steady_mean("target", "llc_hit_rate", 5)
    f = fast.steady_mean("target", "llc_hit_rate", 5)
    assert abs(e - f) < 0.03
