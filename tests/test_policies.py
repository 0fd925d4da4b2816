"""The allocation-strategy table and the three rival strategies.

The fuzz suite (``test_allocation_fuzz.py``) pins the §3.5 contract and
the legacy byte-identity; this file covers the table's surface (names,
aliases, normalization, the run context's policy), the declared-phase
hint types, and each rival strategy's characteristic behaviour on
hand-built inputs.
"""

import pytest

from repro.core.allocation import AllocationInput, base_plan, plan_allocation
from repro.core.config import DCatConfig
from repro.core.hints import DeclaredPhase, DeclaredSchedule, PhaseHint
from repro.core.perftable import PhaseTable
from repro.core.policies import (
    _ALIASES,
    canonical_name,
    curvature_score,
    fit_to_budget,
    get_strategy,
    normalize_policy,
    protected_floors,
    strategy_names,
)
from repro.core.states import WorkloadState
from repro.engine.context import RunContext, current_context, use_context


def _inp(wid, state=WorkloadState.KEEPER, target=3, grow=0, baseline=3,
         reclaiming=False, table=None, hint=None):
    return AllocationInput(
        workload_id=wid,
        state=state,
        target_ways=target,
        grow_request=grow,
        baseline_ways=baseline,
        reclaiming=reclaiming,
        phase_table=table,
        hint=hint,
    )


def _table(entries, baseline=3):
    return PhaseTable(baseline_ways=baseline, baseline_ipc=1.0, entries=entries)


# -- the strategy table --------------------------------------------------------


def test_registry_ships_five_strategies():
    assert strategy_names() == [
        "lfoc_clustering",
        "max_fairness",
        "max_performance",
        "phase_hint",
        "reserved_pooled",
    ]


@pytest.mark.parametrize(
    "spelling,expected",
    [
        ("max_fairness", "max_fairness"),
        ("fairness", "max_fairness"),
        ("Max-Performance", "max_performance"),
        ("  performance ", "max_performance"),
        ("LFOC", "lfoc_clustering"),
        ("phase hints", "phase_hint"),
        ("declared", "phase_hint"),
        ("memshare", "reserved_pooled"),
        ("harvest", "reserved_pooled"),
    ],
)
def test_canonical_name_accepts_every_spelling(spelling, expected):
    assert canonical_name(spelling) == expected
    policy = DCatConfig(policy=spelling).policy
    assert policy == expected
    assert type(policy) is str


def test_canonical_name_rejects_unknown_listing_registry():
    with pytest.raises(ValueError) as excinfo:
        canonical_name("round_robin")
    message = str(excinfo.value)
    assert "round_robin" in message
    for name in strategy_names():
        assert name in message


def test_canonical_name_rejects_non_strings():
    with pytest.raises(ValueError, match="int"):
        canonical_name(7)


def test_normalize_policy_stores_canonical_names():
    assert normalize_policy("max_fairness") == "max_fairness"
    assert normalize_policy("performance") == "max_performance"
    assert normalize_policy("lfoc") == "lfoc_clustering"
    assert normalize_policy(None) == "max_fairness"


def test_config_normalizes_policy_spellings():
    assert DCatConfig(policy="Max-Performance").policy == "max_performance"
    assert DCatConfig(policy="lfoc").policy == "lfoc_clustering"
    assert DCatConfig().policy == "max_fairness"


def test_config_rejects_unknown_policy_listing_registry():
    with pytest.raises(ValueError, match="registered strategies"):
        DCatConfig(policy="banana")


def test_use_context_policy_feeds_fresh_configs():
    assert current_context().policy is None
    assert DCatConfig().policy == "max_fairness"
    with use_context(RunContext.parse(policy="reserved_pooled")):
        assert DCatConfig().policy == "reserved_pooled"
        with use_context(RunContext.parse(policy="performance")):
            assert DCatConfig().policy == "max_performance"
        # Leaving the inner block restores the outer context.
        assert DCatConfig().policy == "reserved_pooled"
        # An explicit policy still wins over the context's.
        assert DCatConfig(policy="lfoc").policy == "lfoc_clustering"
    assert DCatConfig().policy == "max_fairness"


def test_context_without_policy_restores_fairness():
    with use_context(RunContext.parse(policy="lfoc")):
        assert current_context().policy == "lfoc_clustering"
        with pytest.raises(ValueError, match="--policy: unknown allocation policy 'banana'"):
            use_context(RunContext.parse(policy="banana"))
        assert current_context().policy == "lfoc_clustering"
        with use_context(RunContext()):
            assert DCatConfig().policy == "max_fairness"


def test_strategy_table_names_are_canonical():
    # Every name is its own canonical spelling, so no alias shadows a name.
    for name in strategy_names():
        assert name == name.lower()
        assert canonical_name(name) == name
        assert get_strategy(name).name == name
    assert set(_ALIASES.values()) <= set(strategy_names())


# -- invariant helpers ---------------------------------------------------------


def test_protected_floors_entitlement():
    config = DCatConfig()
    inputs = [
        _inp("grower", target=6, baseline=3),       # entitled: target >= baseline
        _inp("shrinker", target=1, baseline=3),     # not entitled
        _inp("reclaimer", target=3, baseline=3, reclaiming=True),
    ]
    plan = {"grower": 6, "shrinker": 2, "reclaimer": 3}
    floors = protected_floors(plan, inputs, config)
    assert floors == {"grower": 3, "shrinker": 1, "reclaimer": 3}


def test_fit_to_budget_shares_shortage_round_robin():
    floors = {"a": 1, "b": 1, "c": 1}
    desires = {"a": 5, "b": 5, "c": 1}
    plan = fit_to_budget(floors, desires, total_ways=6)
    # Three spare ways, handed out one per round: a,b then a.
    assert plan == {"a": 3, "b": 2, "c": 1}
    assert sum(plan.values()) <= 6


def test_curvature_score_flat_and_steep():
    assert curvature_score(lambda w: 1.0, 2, 6) == 0.0
    assert curvature_score(lambda w: w / 4.0, 2, 6) == pytest.approx(0.25)
    assert curvature_score(lambda w: w, 6, 6) == 0.0  # degenerate range


# -- declared-phase hints ------------------------------------------------------


def test_declared_schedule_from_spec_and_active_at():
    schedule = DeclaredSchedule.from_spec(
        [
            {"start_s": 0, "preferred_ways": 3},
            {"start_s": 10, "preferred_ways": 6, "refs_per_instr": 0.4},
        ]
    )
    assert schedule.active_at(0.0).preferred_ways == 3
    assert schedule.active_at(9.9).preferred_ways == 3
    assert schedule.active_at(10.0).preferred_ways == 6
    assert schedule.active_at(-1.0) is None


@pytest.mark.parametrize(
    "spec,fragment",
    [
        ({"start_s": 0}, "declared_phases"),
        ([{"start_s": 0}], "preferred_ways"),
        ([{"start_s": 0, "preferred_ways": 0}], "preferred_ways"),
        ([{"start_s": -1, "preferred_ways": 2}], "start_s"),
        (
            [
                {"start_s": 5, "preferred_ways": 2},
                {"start_s": 5, "preferred_ways": 3},
            ],
            "start_s",
        ),
        ([{"start_s": 0, "preferred_ways": 2, "bogus": 1}], "bogus"),
    ],
)
def test_declared_schedule_rejects_bad_specs(spec, fragment):
    with pytest.raises(ValueError, match=fragment):
        DeclaredSchedule.from_spec(spec)


# -- rival strategy behaviour --------------------------------------------------


def test_lfoc_squeezes_flat_curves_toward_sensitive_tenants():
    config = DCatConfig(policy="lfoc_clustering")
    steep = _table({2: 0.6, 6: 1.4})     # 0.2 normIPC per way
    flat = _table({2: 1.0, 6: 1.02})     # 0.005 per way: squanderer
    inputs = [
        _inp("steep", target=4, baseline=3, table=steep),
        _inp("flat", target=1, baseline=3, table=flat),
        _inp("fresh", target=3, baseline=3),  # unknown curve: untouched
    ]
    total = 12
    base = base_plan(inputs, total, config)
    plan = plan_allocation(inputs, total, config)
    floors = protected_floors(base, inputs, config)
    assert plan["flat"] == floors["flat"]
    assert plan["fresh"] == base["fresh"]
    assert plan["steep"] > base["steep"]
    assert sum(plan.values()) <= total


def test_lfoc_without_sensitive_tenants_is_base_plan():
    config = DCatConfig(policy="lfoc")
    inputs = [_inp("a"), _inp("b", state=WorkloadState.STREAMING, target=1)]
    assert plan_allocation(inputs, 10, config) == base_plan(inputs, 10, config)


def _hint(preferred, declared_refs=None, measured=0.3, time_s=1.0):
    schedule = DeclaredSchedule(
        phases=(
            DeclaredPhase(
                start_s=0.0,
                preferred_ways=preferred,
                refs_per_instr=declared_refs,
            ),
        )
    )
    return PhaseHint(
        time_s=time_s, schedule=schedule, measured_refs_per_instr=measured
    )


def test_phase_hint_steers_trusted_workloads_to_preferred_ways():
    config = DCatConfig(policy="phase_hint")
    inputs = [
        _inp("hinted", target=3, baseline=3, hint=_hint(6)),
        _inp("plain", target=3, baseline=3),
    ]
    plan = plan_allocation(inputs, 12, config)
    assert plan["hinted"] == 6
    assert plan["plain"] >= 3


def test_phase_hint_distrusts_diverging_signatures():
    config = DCatConfig(policy="phase_hint")
    # Declared 0.4 refs/instr but measuring 0.04: 90% divergence > 30%.
    inputs = [
        _inp("liar", target=3, baseline=3, hint=_hint(8, 0.4, measured=0.04)),
        _inp("plain", target=3, baseline=3),
    ]
    total = 12
    assert plan_allocation(inputs, total, config) == (
        base_plan(inputs, total, config)
    )


def test_phase_hint_trusts_matching_signatures():
    config = DCatConfig(policy="hints")
    inputs = [
        _inp("honest", target=3, baseline=3, hint=_hint(7, 0.4, measured=0.38)),
    ]
    assert plan_allocation(inputs, 12, config)["honest"] == 7


def test_reserved_pooled_grants_pool_by_marginal_gain():
    config = DCatConfig(policy="reserved_pooled")
    hungry = _table({3: 1.0, 9: 2.2})    # 0.2 per extra way
    sated = _table({3: 1.0, 9: 1.06})    # 0.01 per extra way
    inputs = [
        _inp("hungry", target=3, baseline=3, table=hungry),
        _inp("sated", target=3, baseline=3, table=sated),
        _inp("idle", target=2, baseline=2),  # no table, no growth
    ]
    plan = plan_allocation(inputs, 14, config)
    assert plan["hungry"] > plan["sated"] >= 3
    assert plan["idle"] == 2
    assert sum(plan.values()) <= 14


def test_reserved_pooled_leaves_unwanted_ways_free():
    config = DCatConfig(policy="harvest")
    inputs = [_inp("a", target=2, baseline=2), _inp("b", target=2, baseline=2)]
    plan = plan_allocation(inputs, 16, config)
    # Nobody can benefit: the pooled region stays free.
    assert plan == {"a": 2, "b": 2}


def test_get_strategy_resolves_names_and_aliases():
    assert get_strategy("max_fairness").name == "max_fairness"
    assert get_strategy("memshare").name == "reserved_pooled"
