"""FleetHandle contract tests: journaling, replay identity, rejections.

The handle is the determinism boundary of the service: every mutation
that reaches the fleet is journaled, commands that cannot mutate are
not, and replaying the journal against a freshly built fleet must
reproduce the live snapshot byte-for-byte.  These tests pin that
contract without any HTTP in the way.
"""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud.admission import RejectReason, classify_rejection
from repro.cloud.handle import FleetHandle, replay_journal
from repro.errors import UnknownTenantError
from repro.service.config import load_service_config

CONFIG = {
    "fleet": {"machines": 2, "socket": "xeon_d", "seed": 7, "interval_s": 1.0},
    "manager": {"type": "dcat"},
    "placement": "least_loaded",
    "service": {"tick_interval_s": 0.05},
}

ONE_MACHINE = dict(CONFIG, fleet={"machines": 1, "socket": "xeon_d", "seed": 7})

MLR = {"type": "mlr", "wss_mb": 8}


def make_handle(config=CONFIG):
    return FleetHandle(load_service_config(config).build().fleet)


class TestAdmit:
    def test_admit_places_and_journals(self):
        handle = make_handle()
        outcome = handle.admit("t0", 3, MLR)
        assert outcome.admitted is True
        assert outcome.machine in ("m0", "m1")
        assert outcome.reason == "placed"
        assert outcome.cos_id is not None
        assert [r.op for r in handle.journal] == ["admit"]
        assert handle.journal[0].args["name"] == "t0"

    def test_duplicate_admit_rejected_without_journaling(self):
        handle = make_handle()
        handle.admit("t0", 3, MLR)
        before = len(handle.journal)
        outcome = handle.admit("t0", 3, MLR)
        assert outcome.admitted is False
        assert outcome.reason == RejectReason.DUPLICATE_TENANT.value
        assert len(handle.journal) == before, "no-op commands must not journal"

    def test_duplicate_spans_departure(self):
        # The SLO ledger is forever, so a detached tenant's id stays taken.
        handle = make_handle()
        handle.admit("t0", 3, MLR)
        handle.detach("t0")
        outcome = handle.admit("t0", 3, MLR)
        assert outcome.reason == RejectReason.DUPLICATE_TENANT.value

    def test_invalid_spec_raises_before_journaling(self):
        handle = make_handle()
        with pytest.raises(ValueError):
            handle.admit("bad", 3, {"type": "no-such-workload"})
        assert handle.journal == []

    def test_ways_exhaustion_reports_no_ways(self):
        handle = make_handle(ONE_MACHINE)
        assert handle.admit("a", 10, {"type": "lookbusy"}).admitted
        outcome = handle.admit("b", 10, {"type": "lookbusy"})
        assert outcome.admitted is False
        assert outcome.reason == RejectReason.NO_WAYS.value
        # Policy rejections mutate the placement log, so they journal.
        assert [r.op for r in handle.journal] == ["admit", "admit"]


class TestDetach:
    def test_unknown_tenant_raises_without_journaling(self):
        handle = make_handle()
        with pytest.raises(UnknownTenantError):
            handle.detach("ghost")
        assert handle.journal == []

    def test_detach_returns_machine_and_reason(self):
        handle = make_handle()
        machine = handle.admit("t0", 3, MLR).machine
        result = handle.detach("t0")
        assert result == {"tenant_id": "t0", "machine": machine,
                          "reason": "detached"}

    def test_stats_survive_detach(self):
        handle = make_handle()
        handle.admit("t0", 3, MLR)
        handle.tick()
        handle.detach("t0")
        stats = handle.tenant_stats("t0")
        assert stats["resident"] is False
        assert stats["departed_s"] is not None

    def test_stats_unknown_tenant_raises(self):
        handle = make_handle()
        with pytest.raises(UnknownTenantError):
            handle.tenant_stats("ghost")


class TestReplay:
    def run_mixed_sequence(self, handle):
        handle.admit("t0", 3, MLR)
        handle.tick()
        handle.admit("t1", 2, {"type": "mload", "wss_mb": 60})
        handle.tick()
        handle.tick()
        handle.detach("t0")
        handle.admit("t2", 3, MLR)
        handle.tick()

    def test_replay_is_byte_identical(self):
        config = load_service_config(CONFIG)
        live = FleetHandle(config.build().fleet)
        self.run_mixed_sequence(live)
        replayed = replay_journal(lambda: config.build().fleet, live.journal)
        assert replayed.snapshot_json() == live.snapshot_json()
        assert replayed.snapshot_digest() == live.snapshot_digest()
        # Replay re-journals through the same paths: journals match too.
        assert replayed.journal == live.journal

    def test_replay_accepts_plain_dicts(self):
        # The journal round-trips through JSON (GET /v1/trace).
        config = load_service_config(CONFIG)
        live = FleetHandle(config.build().fleet)
        self.run_mixed_sequence(live)
        wire = json.loads(json.dumps([r.payload() for r in live.journal]))
        replayed = replay_journal(lambda: config.build().fleet, wire)
        assert replayed.snapshot_json() == live.snapshot_json()

    def test_unknown_op_rejected(self):
        handle = make_handle()
        with pytest.raises(ValueError, match="unknown journal op"):
            handle.apply({"op": "teleport", "args": {}})

    def test_snapshot_digest_is_sha256_hex(self):
        handle = make_handle()
        digest = handle.snapshot_digest()
        assert len(digest) == 64
        int(digest, 16)

    def test_snapshot_excludes_wall_clock(self):
        # Only sim state: two identically seeded fleets that saw the same
        # commands hash identically no matter how long the walls took.
        config = load_service_config(CONFIG)
        a, b = FleetHandle(config.build().fleet), FleetHandle(config.build().fleet)
        for handle in (a, b):
            handle.admit("t0", 3, MLR)
            handle.tick()
        assert a.snapshot_digest() == b.snapshot_digest()


#: Twelve hosts, so machine names ``m10`` and ``m11`` sort before ``m2``.
TWELVE = dict(
    CONFIG, fleet={"machines": 12, "socket": "xeon_d", "seed": 7, "interval_s": 1.0}
)

MIX = (MLR, {"type": "redis"}, {"type": "lookbusy"}, {"type": "mload", "wss_mb": 60})


def oracle_snapshot_json(handle):
    """The canonical snapshot as the dict encoder built it: the whole run
    as nested lists and dicts, then one sorted-key, space-free dump."""
    results = handle.fleet.machine_results()
    machines = {}
    for machine in handle.fleet.machines:
        records = results[machine.name].records
        machines[machine.name] = {
            tid: [
                [rec.time_s, rec.phase_name, rec.ways, rec.llc_hit_rate, rec.ipc,
                 rec.instructions, rec.cycles,
                 rec.state.value if rec.state is not None else None]
                for rec in records[tid]
            ]
            for tid in sorted(records)
        }
    snapshot = {
        "now": handle.fleet.now,
        "ticks": handle.ticks,
        "placements": [
            [p.time_s, p.tenant_id, p.machine, p.reason]
            for p in handle.fleet.placements
        ],
        "tenants": {
            tid: handle.tenant_stats(tid)
            for tid in sorted(handle.fleet.accountant.tenants)
        },
        "machines": machines,
    }
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":")).encode("utf-8")


def assert_matches_oracle(handle):
    expected = oracle_snapshot_json(handle)
    assert handle.snapshot_json() == expected
    assert handle.snapshot_digest() == hashlib.sha256(expected).hexdigest()


commands = st.lists(
    st.one_of(
        st.tuples(
            st.just("admit"),
            st.integers(min_value=1, max_value=6),
            st.sampled_from(range(len(MIX))),
            st.sampled_from([None, 1.5, 4.0]),
        ),
        st.tuples(st.just("detach"), st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("tick")),
    ),
    max_size=40,
)


class TestCanonicalSnapshot:
    @settings(max_examples=40, deadline=None)
    # Every host busy, then departures by lifetime and by detach.
    @example(
        steps=[("admit", 2, 0, 1.5)] * 14 + [("tick",)] * 3
        + [("detach", 1), ("admit", 3, 3, None), ("tick",)]
    )
    @given(steps=commands)
    def test_streamed_snapshot_matches_dict_oracle(self, steps):
        handle = make_handle(TWELVE)
        names = []
        for step in steps:
            if step[0] == "admit":
                _, ways, kind, lifetime_s = step
                names.append(f"t{len(names)}")
                handle.admit(names[-1], ways, MIX[kind], lifetime_s=lifetime_s)
            elif step[0] == "detach" and names:
                name = names[step[1] % len(names)]
                if handle.fleet.machine_of(name) is not None:
                    handle.detach(name)
            elif step[0] == "tick":
                handle.tick()
        assert_matches_oracle(handle)

    def test_zero_tenants(self):
        handle = make_handle(TWELVE)
        assert_matches_oracle(handle)
        snapshot = json.loads(handle.snapshot_json())
        assert snapshot["tenants"] == {} and snapshot["placements"] == []
        assert all(timelines == {} for timelines in snapshot["machines"].values())

    def test_machines_without_timelines_sort_as_strings(self):
        handle = make_handle(TWELVE)
        handle.admit("t0", 3, MLR)
        handle.tick()
        assert_matches_oracle(handle)
        machines = json.loads(handle.snapshot_json())["machines"]
        assert list(machines) == sorted(f"m{i}" for i in range(12))
        assert list(machines)[:4] == ["m0", "m1", "m10", "m11"]
        assert sum(timelines == {} for timelines in machines.values()) == 11


class TestFleetState:
    def test_fleet_state_shape(self):
        handle = make_handle()
        handle.admit("t0", 3, MLR)
        handle.tick()
        state = handle.fleet_state()
        assert state["policy"] == "least_loaded"
        assert state["ticks"] == 1
        names = [m["name"] for m in state["machines"]]
        assert names == ["m0", "m1"]
        host = next(m for m in state["machines"] if "t0" in m["residents"])
        assert host["reserved_ways"] >= 3
        assert sum(host["states"].values()) == 1


class TestRejectReasons:
    def test_machine_reject_reason_orders_budgets(self):
        config = load_service_config(ONE_MACHINE)
        machine = config.build().fleet.machines[0]
        assert machine.reject_reason(3) is None and machine.fits(3)
        assert machine.reject_reason(99) == RejectReason.NO_WAYS
        assert not machine.fits(99)

    def test_classify_unanimous_reason_is_specific(self):
        fleet = load_service_config(CONFIG).build().fleet
        assert classify_rejection(fleet.machines, 99) == RejectReason.NO_WAYS

    def test_classify_any_fit_collapses_to_no_capacity(self):
        # Some machine fits but the policy still declined: the budget
        # reasons disagree (None among them), so the verdict is generic.
        fleet = load_service_config(CONFIG).build().fleet
        handle = FleetHandle(fleet)
        handle.admit("a", 10, {"type": "lookbusy"})
        reasons = {m.reject_reason(10) for m in fleet.machines}
        assert None in reasons and len(reasons) > 1
        assert classify_rejection(fleet.machines, 10) == RejectReason.NO_CAPACITY
