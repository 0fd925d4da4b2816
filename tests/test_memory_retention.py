"""What a long run keeps alive per VM-interval.

dCat is a long-lived daemon: its next decision needs each workload's last
sample and its performance tables, not the run's past.  Until the
per-interval lists themselves become bounded, the bytes each VM-interval
leaves behind are pinned here, so a field added to a retained record (a
counter sample on every status, say) fails a test instead of quietly
growing every long run.

Reads of the whole run are bounded too: hashing the canonical snapshot
and answering ``GET /v1/trace`` encode piece by piece, so neither holds
the run as objects.
"""

import asyncio
import gc
import tracemalloc

from repro.cloud.scenario import load_churn_scenario
from repro.service.config import load_service_config
from repro.service.daemon import ControllerDaemon
from repro.service.http import HttpRequest

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


#: Peak bytes the digest may hold, per byte of canonical snapshot: about
#: one placement, timeline or ledger piece, plus the sorted tenant ids.
#: Building the snapshot as dicts first peaked near 10x.
MAX_DIGEST_PEAK_PER_SNAPSHOT_BYTE = 0.05

#: Peak bytes of one ``GET /v1/trace`` response, per body byte: the body
#: itself, its growth headroom and the digest.  Building the journal as
#: dicts and the snapshot as objects first peaked above 40x.
MAX_TRACE_PEAK_PER_BODY_BYTE = 3.0


def churned_daemon(rounds=200):
    """A daemon whose 12 hosts saw ``rounds`` ticks of four 5 s tenants
    each, applied through its handle (no server started)."""
    daemon = ControllerDaemon(load_service_config({
        "fleet": {"machines": 12, "socket": "xeon_d", "seed": 7},
        "manager": {"type": "dcat"},
        "placement": "least_loaded",
    }), port=0)
    handle = daemon.handle
    for tick in range(rounds):
        for slot, workload in enumerate(MIX[:4]):
            handle.admit(f"t{tick}-{slot}", 2, workload, lifetime_s=5.0)
        handle.tick()
    return daemon


def traced_peak(call):
    """Peak traced bytes above the start while ``call()`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak, result


def test_snapshot_digest_and_trace_response_peaks_are_bounded():
    daemon = churned_daemon()
    handle = daemon.handle
    # Catches the machines' clocks up, so the peaks below measure reads.
    size = len(handle.snapshot_json())

    digest_peak, _ = traced_peak(handle.snapshot_digest)
    assert digest_peak <= MAX_DIGEST_PEAK_PER_SNAPSHOT_BYTE * size, (
        f"digest peaked at {digest_peak:,} B for a {size:,} B snapshot"
    )

    async def trace_body_length():
        # Only the length leaves the loop: a large result returned from
        # ``asyncio.run`` is itself copied.
        _, status, (_, body) = await daemon._dispatch(
            HttpRequest("GET", "/v1/trace", {}, b"")
        )
        assert status == 200
        return len(body)

    asyncio.run(trace_body_length())  # first-run allocations of the loop
    trace_peak, length = traced_peak(lambda: asyncio.run(trace_body_length()))
    assert trace_peak <= MAX_TRACE_PEAK_PER_BODY_BYTE * length, (
        f"GET /v1/trace peaked at {trace_peak:,} B for a {length:,} B body"
    )
