"""Tests for repro.core.classifier: the Fig. 6 categorization rules."""


from repro.core.classifier import Decision, categorize
from repro.core.config import DCatConfig
from repro.core.phase import PhaseSignature
from repro.core.states import WorkloadState
from repro.core.stats import WorkloadRecord
from repro.hwcounters.perfmon import CounterSample


def record(
    state=WorkloadState.KEEPER,
    ways=3,
    prev_ways=None,
    baseline=3,
    idle=False,
    **extra,
):
    rec = WorkloadRecord(
        workload_id="w",
        cores=(0, 1),
        cos_id=1,
        baseline_ways=baseline,
        state=state,
        ways=ways,
        prev_ways=prev_ways if prev_ways is not None else ways,
    )
    rec.idle = idle
    rec.signature = PhaseSignature(bucket=5)
    for key, value in extra.items():
        setattr(rec, key, value)
    return rec


def sample(llc_ref=50_000, llc_miss=5_000, ret_ins=1_000_000, cycles=2_000_000):
    return CounterSample(
        l1_ref=250_000,
        llc_ref=llc_ref,
        llc_miss=llc_miss,
        ret_ins=ret_ins,
        cycles=cycles,
    )


CFG = DCatConfig()


def decide(rec, s, pool_empty):
    """The Fig. 6 decision for one sample, fed its derived values the way
    the controller's collect stage computes them."""
    return categorize(
        rec, s, CFG, pool_empty, ipc=s.ipc, miss_rate=s.llc_miss_rate
    )


def seed_table(rec, entries):
    """Fill the record's current-phase table with normalized IPCs."""
    table = rec.table.phase(rec.signature)
    table.baseline_ipc = 1.0
    table.entries.update(entries)
    return table


class TestDonorRules:
    def test_idle_is_immediate_donor(self):
        d = decide(record(idle=True), sample(), pool_empty=False)
        assert d.state is WorkloadState.DONOR
        assert d.target_ways == CFG.min_ways

    def test_low_llc_refs_is_immediate_donor(self):
        d = decide(record(), sample(llc_ref=100), pool_empty=False)
        assert d.state is WorkloadState.DONOR
        assert d.target_ways == 1

    def test_near_zero_misses_shrinks_gradually(self):
        d = decide(record(ways=5), sample(llc_miss=10), pool_empty=False)
        assert d.state is WorkloadState.DONOR
        assert d.target_ways == 4  # one way per round

    def test_shrink_respects_floor(self):
        rec = record(ways=4, donor_floor_ways=4)
        d = decide(rec, sample(llc_miss=10), pool_empty=False)
        assert d.state is WorkloadState.KEEPER
        assert d.target_ways == 4

    def test_shrink_stops_at_min(self):
        rec = record(ways=1)
        d = decide(rec, sample(llc_miss=10), pool_empty=False)
        assert d.state is WorkloadState.KEEPER


class TestKeeperBand:
    def test_moderate_misses_hold(self):
        # Miss rate between the donor and grow thresholds: stable Keeper.
        d = decide(record(ways=5), sample(llc_miss=500), pool_empty=False)
        assert d.state is WorkloadState.KEEPER
        assert d.target_ways == 5
        assert d.grow_request == 0

    def test_satisfied_receiver_becomes_keeper(self):
        rec = record(state=WorkloadState.RECEIVER, ways=8, prev_ways=7)
        d = decide(rec, sample(llc_miss=500), pool_empty=False)
        assert d.state is WorkloadState.KEEPER


class TestGrowthRules:
    def test_starved_keeper_becomes_unknown(self):
        d = decide(record(), sample(llc_miss=20_000), pool_empty=False)
        assert d.state is WorkloadState.UNKNOWN
        assert d.grow_request == 1

    def test_growth_ceiling_blocks_regrow(self):
        rec = record(
            growth_ceiling_ways=5, ways=5, growth_ceiling_miss_rate=0.4
        )
        d = decide(rec, sample(llc_miss=20_000), pool_empty=False)
        assert d.state is WorkloadState.KEEPER

    def test_growth_ceiling_reopens_when_misses_climb(self):
        # Growth stopped at 2% misses; the working set then grew and the
        # miss rate shot to 40%: the ceiling no longer applies.
        rec = record(
            growth_ceiling_ways=5, ways=5, growth_ceiling_miss_rate=0.02
        )
        d = decide(rec, sample(llc_miss=20_000), pool_empty=False)
        assert d.state is WorkloadState.UNKNOWN

    def test_below_ceiling_may_regrow(self):
        rec = record(growth_ceiling_ways=7, ways=4)
        d = decide(rec, sample(llc_miss=20_000), pool_empty=False)
        assert d.state is WorkloadState.UNKNOWN

    def test_unknown_promoted_to_receiver_on_gain(self):
        rec = record(state=WorkloadState.UNKNOWN, ways=4, prev_ways=3)
        rec.last_ipc = 0.45  # measured at 3 ways; this interval: 0.5 (+11%)
        d = decide(rec, sample(llc_miss=20_000), pool_empty=False)
        assert d.state is WorkloadState.RECEIVER
        assert d.grow_request == 1

    def test_unknown_promotion_falls_back_to_table(self):
        rec = record(state=WorkloadState.UNKNOWN, ways=4, prev_ways=3)
        rec.last_ipc = 0.0  # no fresh measurement available
        seed_table(rec, {3: 1.0, 4: 1.10})  # +10% >= 5%
        d = decide(rec, sample(llc_miss=20_000), pool_empty=False)
        assert d.state is WorkloadState.RECEIVER

    def test_unknown_with_subthreshold_cumulative_gain_keeps(self):
        rec = record(state=WorkloadState.UNKNOWN, ways=5, prev_ways=4)
        rec.last_ipc = 0.485  # +3.1% this grant: below ipc_imp_thr
        seed_table(rec, {3: 1.0, 4: 1.03, 5: 1.06})  # 3%/way cumulative
        d = decide(rec, sample(llc_miss=20_000), pool_empty=False)
        assert d.state is WorkloadState.KEEPER

    def test_unknown_without_improvement_keeps_probing(self):
        rec = record(state=WorkloadState.UNKNOWN, ways=4, prev_ways=3)
        rec.last_ipc = 0.5  # identical to this interval: no gain
        d = decide(rec, sample(llc_miss=20_000), pool_empty=False)
        assert d.state is WorkloadState.UNKNOWN
        assert d.grow_request == 1


class TestStreamingRules:
    def test_streaming_at_size_threshold(self):
        rec = record(state=WorkloadState.UNKNOWN, ways=9, prev_ways=8, baseline=3)
        rec.last_ipc = 0.5  # flat IPC despite the grant
        seed_table(rec, {3: 1.0, 9: 1.0})
        d = decide(rec, sample(llc_miss=20_000), pool_empty=False)
        assert d.state is WorkloadState.STREAMING
        assert d.target_ways == 1

    def test_streaming_when_pool_exhausted(self):
        rec = record(
            state=WorkloadState.UNKNOWN,
            ways=6,
            prev_ways=5,
            baseline=3,
            unknown_grants=2,
        )
        rec.last_ipc = 0.5  # flat IPC despite the grant
        d = decide(rec, sample(llc_miss=20_000), pool_empty=True)
        assert d.state is WorkloadState.STREAMING

    def test_no_streaming_without_grant_evidence(self):
        rec = record(
            state=WorkloadState.UNKNOWN, ways=4, prev_ways=4, baseline=3,
            unknown_grants=0,
        )
        d = decide(rec, sample(llc_miss=20_000), pool_empty=True)
        assert d.state is WorkloadState.UNKNOWN

    def test_streaming_stays_until_phase_change(self):
        rec = record(state=WorkloadState.STREAMING, ways=1)
        d = decide(rec, sample(llc_miss=20_000), pool_empty=False)
        assert d.state is WorkloadState.STREAMING
        assert d.target_ways == 1


class TestReceiverRules:
    def test_receiver_keeps_growing_on_gains(self):
        rec = record(state=WorkloadState.RECEIVER, ways=5, prev_ways=4)
        rec.last_ipc = 0.44  # this interval: 0.5 (+13.6%)
        d = decide(rec, sample(llc_miss=20_000), pool_empty=False)
        assert d.state is WorkloadState.RECEIVER
        assert d.grow_request == 1

    def test_receiver_stops_when_grant_stops_paying(self):
        rec = record(state=WorkloadState.RECEIVER, ways=6, prev_ways=5)
        rec.last_ipc = 0.495  # this interval: 0.5 (+1%)
        d = decide(rec, sample(llc_miss=20_000), pool_empty=False)
        assert d.state is WorkloadState.KEEPER

    def test_receiver_without_grant_keeps_requesting(self):
        rec = record(state=WorkloadState.RECEIVER, ways=5, prev_ways=5)
        d = decide(rec, sample(llc_miss=20_000), pool_empty=False)
        assert d.state is WorkloadState.RECEIVER
        assert d.grow_request == 1


class TestDecisionShape:
    def test_decision_fields(self):
        d = Decision(WorkloadState.KEEPER, 4, grow_request=0)
        assert d.target_ways == 4
