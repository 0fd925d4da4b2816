#!/usr/bin/env python3
"""Tuning dCat: thresholds, allocation policies, and the resctrl frontend.

Three short studies on the canonical stage:

1. the cache-miss threshold sweep (paper Fig. 8) — how aggressively dCat
   chases residual misses;
2. max-fairness vs max-performance allocation (paper Fig. 14) — how two
   competing receivers split a scarce pool;
3. driving the same CAT hardware through the Linux resctrl-style frontend,
   the control path a modern deployment would use instead of libpqos.

Run:  python examples/tuning_and_policies.py
"""

from repro.core.config import DCatConfig
from repro.harness.scenarios import build_stage, paper_machine, run_scenario
from repro.mem.address import MB
from repro.platform.managers import DCatManager
from repro.workloads.mlr import MlrWorkload


def miss_threshold_sweep() -> None:
    print("== 1. llc_miss_rate_thr sweep (paper Fig. 8) ==")
    print(f"  {'threshold':>9} {'converged ways':>15} {'latency (cyc)':>14}")
    for thr in (0.01, 0.03, 0.10, 0.20):

        def factory(machine):
            return build_stage(
                machine,
                [MlrWorkload(8 * MB, start_delay_s=1.0, name="probe")],
                baseline_ways=2,
                n_lookbusy=5,
            )

        result = run_scenario(
            factory,
            DCatManager(config=DCatConfig(llc_miss_rate_thr=thr)),
            duration_s=25.0,
            seed=3,
        )
        ways = result.steady_mean("probe", "ways", 5)
        latency = result.steady_mean("probe", "avg_mem_latency_cycles", 5)
        print(f"  {thr:9.0%} {ways:15.1f} {latency:14.1f}")
    print("  smaller threshold -> more ways demanded -> lower latency\n")


def policy_comparison() -> None:
    print("== 2. max-fairness vs max-performance (paper Fig. 14) ==")

    def factory(machine):
        return build_stage(
            machine,
            [
                MlrWorkload(8 * MB, start_delay_s=1.0, name="mlr-8mb"),
                MlrWorkload(12 * MB, start_delay_s=1.0, name="mlr-12mb"),
            ],
            baseline_ways=3,
            n_lookbusy=6,
        )

    for policy in ("max_fairness", "max_performance"):
        result = run_scenario(
            factory,
            DCatManager(config=DCatConfig(policy=policy)),
            duration_s=35.0,
            seed=3,
        )
        a = result.steady_mean("mlr-8mb", "ways", 5)
        b = result.steady_mean("mlr-12mb", "ways", 5)
        total_ipc = sum(
            result.steady_mean(vm, "ipc", 5) for vm in ("mlr-8mb", "mlr-12mb")
        )
        print(
            f"  {policy:<16} mlr-8mb={a:.0f} ways, mlr-12mb={b:.0f} ways, "
            f"total IPC={total_ipc:.3f}"
        )
    print("  the DP shifts a scarce way toward the workload that converts it\n")


def resctrl_walkthrough() -> None:
    print("== 3. the resctrl control path ==")
    machine = paper_machine(seed=3)
    fs = machine.resctrl

    print("  info/L3/num_closids =", fs.read("info/L3/num_closids").strip())
    print("  info/L3/cbm_mask    =", fs.read("info/L3/cbm_mask").strip())

    fs.mkdir("tenant-a")
    fs.write("tenant-a/cpus_list", "0-1")
    fs.write("tenant-a/schemata", "L3:0=f")  # 4 ways
    print("  created group tenant-a: cpus", fs.read("tenant-a/cpus_list").strip())
    print("  tenant-a schemata:", fs.read("tenant-a/schemata").strip())
    print("  tenant-a size:    ", fs.read("tenant-a/size").strip())

    # The same CAT device state is visible through the pqos-style API.
    print("  core 0 now resolves to", machine.effective_ways(0), "ways")
    fs.rmdir("tenant-a")
    print("  after rmdir, core 0 is back to", machine.effective_ways(0), "ways")


def main() -> None:
    miss_threshold_sweep()
    policy_comparison()
    resctrl_walkthrough()


if __name__ == "__main__":
    main()
