"""What a long run keeps alive per VM-interval.

dCat is a long-lived daemon: its next decision needs each workload's last
sample and its performance tables, not the run's past.  Until the
per-interval lists themselves become bounded, the bytes each VM-interval
leaves behind are pinned here, so a field added to a retained record (a
counter sample on every status, say) fails a test instead of quietly
growing every long run.
"""

import gc
import tracemalloc

from repro.cloud.scenario import load_churn_scenario

#: Reserved ways of one host's five tenants: the whole 12-way xeon_d LLC.
SLOT_WAYS = (3, 3, 2, 2, 2)

#: The phased mix of the dense fleet benchmark, rotated over the slots.
MIX = (
    {"type": "mlr", "wss_mb": 4},
    {"type": "mlr", "wss_mb": 8},
    {"type": "mlr", "wss_mb": 16},
    {"type": "mload", "wss_mb": 60},
    {"type": "lookbusy"},
    {"type": "redis"},
    {"type": "postgres"},
)

HOSTS = 2
VMS = HOSTS * len(SLOT_WAYS)
WARM_INTERVALS = 250
MEASURED_INTERVALS = 250

#: Live bytes each VM-interval may add: one interval record, the
#: controller's share of its step result and the list slots holding them.
#: The run kept about 1,000 B while every status carried its counter
#: sample; it keeps about 700 B without it.
MAX_BYTES_PER_VM_INTERVAL = 760


def dense_fleet(intervals):
    """Two full hosts whose tenants stay for the whole run."""
    tenants = []
    for host in range(HOSTS):
        for slot, ways in enumerate(SLOT_WAYS):
            workload = dict(MIX[(host * len(SLOT_WAYS) + slot) % len(MIX)])
            workload["start_delay_s"] = float(slot)
            tenants.append({
                "name": f"d{host}-{slot}",
                "arrival_s": 0.0,
                "baseline_ways": ways,
                "lifetime_s": float(intervals + 1),
                "workload": workload,
            })
    fleet, _ = load_churn_scenario({
        "fleet": {"machines": HOSTS, "socket": "xeon_d", "seed": 1},
        "manager": {"type": "dcat"},
        "placement": "first_fit",
        "duration_s": float(intervals + 1),
        "tenants": tenants,
    })
    return fleet


def test_dense_fleet_growth_per_vm_interval_is_bounded():
    tracemalloc.start()
    try:
        fleet = dense_fleet(WARM_INTERVALS + MEASURED_INTERVALS)
        for _ in range(WARM_INTERVALS):
            fleet.step()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(MEASURED_INTERVALS):
            fleet.step()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(len(m.sim.vms) == len(SLOT_WAYS) for m in fleet.machines)
    growth = (after - before) / (VMS * MEASURED_INTERVALS)
    assert growth <= MAX_BYTES_PER_VM_INTERVAL, (
        f"{growth:.0f} B kept per VM-interval, "
        f"bound {MAX_BYTES_PER_VM_INTERVAL} B"
    )
