"""Learning and proactive defender strategies."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import attack_sequence, sample_systems
from reactive_defense import BestResponseAttacker, ReactiveDefender, fixture, run_game
from reactive_defense.defenders import (
    FixedDefender,
    HedgeState,
    KnownEdgesDefender,
    MyopicDefender,
    beta_schedule,
    hedge_allocation,
    hedge_update,
    hindsight_from_usage,
    horizon_beta,
    mincut_perimeter_defense,
    minimax_proactive_defense,
    myopic_defense,
    reactive_hidden_step,
    uniform_defense,
)
from reactive_defense.model import (
    Attack,
    DefenseAllocation,
    System,
    roa,
    zero_allocation,
)
from reactive_defense.generators import random_system


# Rate values recomputed independently with 50-digit decimal arithmetic.
def test_beta_schedule_frozen_values():
    assert beta_schedule(2, 1) == pytest.approx(0.5456863298432674, rel=1e-15)
    assert beta_schedule(2, 2) == pytest.approx(0.5953167644187397, rel=1e-15)
    assert beta_schedule(3, 5) == pytest.approx(0.6229955137622369, rel=1e-15)
    assert beta_schedule(1, 1) == 1.0
    assert beta_schedule(1, 999) == 1.0
    with pytest.raises(ValueError):
        beta_schedule(0, 1)
    with pytest.raises(ValueError):
        beta_schedule(2, 0)


def test_horizon_beta_frozen_values():
    assert horizon_beta(2, 100) == pytest.approx(0.8946616416375769, rel=1e-15)
    assert horizon_beta(4, 50) == pytest.approx(0.8094007005809811, rel=1e-15)
    assert horizon_beta(1, 10) == 1.0
    with pytest.raises(ValueError):
        horizon_beta(0, 10)
    with pytest.raises(ValueError):
        horizon_beta(2, 0)


def test_beta_schedule_anneals_toward_one():
    values = [beta_schedule(4, k) for k in range(1, 200)]
    assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))
    assert values[-1] < 1.0


# ---------------------------------------------------------------------------
# hidden-edge learner


def _hits(attack: Attack) -> dict[str, float]:
    return {eid: 1.0 for eid in attack.path}


def test_hidden_allocation_zero_before_any_attack():
    state = HedgeState(budget=5.0)
    assert hedge_allocation(state).total() == 0.0
    assert state.beta is None
    assert state.round_index == 0


def test_hidden_step_overridden_rate():
    surfaces = {"e1": 1.0, "e2": 1.0}
    state = HedgeState(budget=3.0, fixed_beta=0.5)
    state, alloc = reactive_hidden_step(state, {"e1": 1.0, "e2": 1.0}, surfaces)
    assert alloc.get("e1") == pytest.approx(1.5, rel=1e-12)
    assert alloc.get("e2") == pytest.approx(1.5, rel=1e-12)

    state, alloc = reactive_hidden_step(state, {"e1": 1.0}, surfaces)
    # scores (-2, -1): shares proportional to 0.5**-2 : 0.5**-1 = 2 : 1
    assert state.scores["e1"] == -2.0
    assert state.scores["e2"] == -1.0
    assert alloc.get("e1") == pytest.approx(2.0, rel=1e-12)
    assert alloc.get("e2") == pytest.approx(1.0, rel=1e-12)
    assert state.round_index == 2


def test_hidden_step_default_schedule():
    surfaces = {"e1": 2.0, "e2": 4.0}
    state = HedgeState(budget=1.0)
    state, _ = reactive_hidden_step(state, {"e1": 1.0}, surfaces)
    assert state.beta == beta_schedule(1, 1) == 1.0
    state, alloc = reactive_hidden_step(state, {"e2": 1.0}, surfaces)
    # two edges revealed after two rounds
    beta = beta_schedule(2, 2)
    assert state.beta == beta
    assert list(state.surfaces) == ["e1", "e2"]
    # recompute the allocation directly from the committed scores
    shares = {eid: beta ** state.scores[eid] for eid in surfaces}
    z = sum(shares.values())
    for eid in surfaces:
        assert alloc.get(eid) == pytest.approx(shares[eid] / z, rel=1e-12)


def test_hidden_update_weighted_masses():
    surfaces = {"a": 1.0, "b": 2.0}
    state = HedgeState(budget=4.0)
    state, _ = reactive_hidden_step(state, {"a": 0.25, "b": 0.75}, surfaces)
    assert state.scores["a"] == -0.25
    assert state.scores["b"] == -0.375


def test_hidden_update_rejects_bad_input():
    surfaces = {"e1": 1.0}
    state = HedgeState(budget=1.0)
    with pytest.raises(ValueError, match="no attacked edges"):
        reactive_hidden_step(state, {}, surfaces)
    with pytest.raises(ValueError, match="negative attack weight"):
        reactive_hidden_step(state, {"e1": -0.5}, surfaces)
    with pytest.raises(ValueError, match="no surface reported"):
        reactive_hidden_step(state, {"ghost": 1.0}, surfaces)
    with pytest.raises(ValueError, match="must be positive"):
        reactive_hidden_step(state, {"e1": 1.0}, {"e1": -2.0})
    state, _ = reactive_hidden_step(state, {"e1": 1.0}, surfaces)
    with pytest.raises(ValueError, match="re-revealed"):
        reactive_hidden_step(state, {"e1": 1.0}, {"e1": 3.0})
    with pytest.raises(ValueError, match="beta"):
        hedge_allocation(HedgeState(1.0, state.surfaces, fixed_beta=0.0))
    with pytest.raises(ValueError, match="beta"):
        hedge_allocation(HedgeState(1.0, state.surfaces, fixed_beta=1.5))


# ---------------------------------------------------------------------------
# known-edge learner


def _known_state(system, beta: float) -> HedgeState:
    surfaces = {e.id: e.surface for e in system.edges}
    return HedgeState(system.budget, surfaces, fixed_beta=beta)


def test_known_start_uniform():
    system = fixture("fig3_n4")
    defender = KnownEdgesDefender()
    defender.start(system, horizon=50)
    assert defender.last_beta == horizon_beta(4, 50)
    alloc = defender.commit(1)
    for eid in system.edge_ids:
        assert alloc.get(eid) == pytest.approx(system.budget / 4.0, rel=1e-12)
    assert alloc.total() == pytest.approx(system.budget, rel=1e-12)


def test_known_step_penalizes_attacked_edge():
    system = System.build(
        edges=[("e1", "s", "a", 1.0), ("e2", "s", "b", 1.0)], budget=1.0
    )
    state = _known_state(system, beta=0.5)
    state, alloc = reactive_hidden_step(state, {"e1": 1.0}, {"e1": 1.0})
    # share(e1) doubles before renormalizing: (1, 0.5) -> (2/3, 1/3)
    assert alloc.get("e1") == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert alloc.get("e2") == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert state.round_index == 1
    assert state.beta == 0.5


def test_known_update_shift_invariant():
    system = fixture("fig3_n2")
    base = _known_state(system, beta=0.7)
    eids = list(base.surfaces)
    column = {eids[0]: -1.4, eids[1]: 0.25}
    shifted = {eid: column[eid] + 3.75 for eid in eids}
    a = hedge_allocation(hedge_update(base, column))
    b = hedge_allocation(hedge_update(base, shifted))
    for eid in eids:
        assert a.get(eid) == pytest.approx(b.get(eid), rel=1e-12)


def test_known_defender_tie_trajectory_is_frozen():
    # On fig2 both scores are exactly -9/5 after round 9: the allocation is
    # the exact even split of round 1, and the best response again breaks
    # the return-on-attack tie toward "left" alone.  By round 19 rounding
    # has put one ulp more on "left", and the tie breaks the other way.
    system = fixture("fig2")
    trace = run_game(system, KnownEdgesDefender(), BestResponseAttacker("roa"), 20)
    tenth = trace.records[9].allocation
    assert tenth.alloc == {"left": 5.0, "right": 5.0}
    assert trace.records[0].allocation.alloc == tenth.alloc
    one, two = ("left",), ("left", "right")
    assert [r.attacks[0].path for r in trace.records] == (
        [one, two] + [one] * 8 + [two] + [one] * 7 + [two, one]
    )


def test_known_learner_rejects_bad_input():
    system = fixture("fig3_n2")
    with pytest.raises(ValueError, match="horizon"):
        KnownEdgesDefender().start(system, horizon=0)
    with pytest.raises(ValueError, match="beta"):
        KnownEdgesDefender(beta=1.5).start(system, horizon=5)
    state = _known_state(system, beta=0.5)
    with pytest.raises(KeyError, match="ghost"):
        hedge_update(state, {"ghost": 1.0})
    with pytest.raises(ValueError, match="no surface reported"):
        reactive_hidden_step(state, {"ghost": 1.0}, {})
    empty = System.build(edges=[], start="s")
    with pytest.raises(ValueError, match="no edges"):
        KnownEdgesDefender().start(empty, horizon=5)


# ---------------------------------------------------------------------------
# proactive allocations


def test_mincut_layered_chain():
    system = fixture("fig2")
    deep = mincut_perimeter_defense(system, "db")
    assert deep.alloc == {"right": 10.0}
    shallow = mincut_perimeter_defense(system, "front")
    assert shallow.alloc == {"left": 10.0}


def test_mincut_merges_parallel_edges():
    system = System.build(
        edges=[
            ("p1", "s", "t", 1.0),
            ("p2", "s", "t", 2.0),
            ("q", "s", "a", 0.5),
            ("r", "a", "t", 0.25),
        ],
        rewards={"t": 1.0},
        budget=2.0,
    )
    alloc = mincut_perimeter_defense(system, "t")
    # cut {s, a} | {t} has weight 3.25, beating the perimeter cut's 3.5
    assert set(alloc.support()) == {"p1", "p2", "r"}
    assert alloc.get("p1") == pytest.approx(2.0 * 1.0 / 3.25, rel=1e-12)
    assert alloc.get("p2") == pytest.approx(2.0 * 2.0 / 3.25, rel=1e-12)
    assert alloc.get("r") == pytest.approx(2.0 * 0.25 / 3.25, rel=1e-12)


def test_mincut_ties_go_to_the_sink_side():
    # s -> m -> {x, y} -> t: the cuts {sm}, {mx, my}, {xt, yt}, {mx, yt}
    # and {my, xt} all weigh 2; the one nearest the target is chosen
    system = System.build(
        edges=[
            ("sm", "s", "m", 2.0),
            ("mx", "m", "x", 1.0),
            ("my", "m", "y", 1.0),
            ("xt", "x", "t", 1.0),
            ("yt", "y", "t", 1.0),
        ],
        rewards={"t": 1.0},
        budget=4.0,
    )
    assert mincut_perimeter_defense(system, "t").alloc == {"xt": 2.0, "yt": 2.0}


def test_mincut_rejects_bad_targets():
    system = fixture("fig2")
    with pytest.raises(ValueError, match="differ from the start"):
        mincut_perimeter_defense(system, "s")
    with pytest.raises(KeyError, match="unknown vertex"):
        mincut_perimeter_defense(system, "ghost")
    island = System.build(
        edges=[("e", "s", "a", 1.0)], rewards={"b": 1.0}, budget=1.0
    )
    with pytest.raises(ValueError, match="unreachable"):
        mincut_perimeter_defense(island, "b")


def test_minimax_roa_layered_chain():
    system = fixture("fig2")
    result = minimax_proactive_defense(system, "roa")
    assert result.objective == "roa"
    assert result.value == pytest.approx(1.0, abs=1e-9)
    assert result.allocation.get("left") == pytest.approx(5.0, abs=1e-6)
    assert result.allocation.get("right") == pytest.approx(5.0, abs=1e-6)


def test_minimax_profit_two_objective_fork():
    system = fixture("fig4")
    result = minimax_proactive_defense(system, "profit")
    assert result.value == pytest.approx(1.0, abs=1e-9)
    assert result.allocation.get("right") == pytest.approx(9.0, abs=1e-9)
    # solver dust on the cheap edge is dropped, leaving it truly undefended
    assert result.allocation.get("left") == 0.0
    assert roa(system, Attack(("left",)), result.allocation) == math.inf


def test_minimax_roa_two_objective_fork():
    system = fixture("fig4")
    result = minimax_proactive_defense(system, "roa")
    assert result.value == pytest.approx(11.0 / 9.0, rel=1e-9)
    assert result.value <= 1.25


def test_minimax_roa_parallel_edges():
    system = fixture("appendix_b")
    result = minimax_proactive_defense(system, "roa")
    assert result.value == pytest.approx(2.0, rel=1e-9)
    assert result.allocation.get("e1") == pytest.approx(0.5, abs=1e-9)
    assert result.allocation.get("e2") == pytest.approx(0.5, abs=1e-9)


def test_minimax_degenerate_cases():
    worthless = System.build(
        edges=[("e", "s", "a", 1.0)], rewards={}, budget=1.0
    )
    result = minimax_proactive_defense(worthless, "roa")
    assert result.value == 0.0
    assert result.allocation.total() == 0.0

    rich = System.build(
        edges=[("lo", "s", "a", 1.0), ("hi", "s", "b", 1.0)],
        rewards={"a": 1.0, "b": 10.0},
        budget=100.0,
    )
    flooded = minimax_proactive_defense(rich, "profit")
    assert 0.0 <= flooded.value <= 1e-9

    with pytest.raises(ValueError, match="unknown objective"):
        minimax_proactive_defense(worthless, "speed")


def test_hindsight_best_proactive():
    system = fixture("appendix_b")
    alloc, best_cost = hindsight_from_usage(system, {"e1": 2.0, "e2": 1.0})
    assert alloc.alloc == {"e1": 1.0}
    assert best_cost == 2.0

    # exact tie goes to the smallest edge id
    alloc, best_cost = hindsight_from_usage(system, {"e2": 1.0, "e1": 1.0})
    assert alloc.alloc == {"e1": 1.0}
    assert best_cost == 1.0


def test_hindsight_weighs_usage_by_surface():
    system = fixture("fig2")
    alloc, best_cost = hindsight_from_usage(system, {"left": 1.0, "right": 1.0})
    # one use each: 1/5 on the wide edge vs 9/5 on the narrow one
    assert alloc.alloc == {"right": 10.0}
    assert best_cost == pytest.approx(18.0, rel=1e-12)


def test_hindsight_from_usage():
    system = fixture("appendix_b")
    alloc, best_cost = hindsight_from_usage(system, {"e2": 0.5})
    assert alloc.alloc == {"e2": 1.0}
    assert best_cost == 0.5
    with pytest.raises(ValueError, match="hindsight defense is undefined"):
        hindsight_from_usage(system, {})


def test_uniform_and_myopic_defense():
    system = fixture("fig2")
    uni = uniform_defense(system)
    assert uni.get("left") == 5.0
    assert uni.get("right") == 5.0

    myo = myopic_defense(system.budget, {"left": 5.0, "right": 5.0 / 9.0})
    total_surface = 5.0 + 5.0 / 9.0
    assert myo.get("left") == pytest.approx(10.0 * 5.0 / total_surface, rel=1e-12)
    assert myo.get("right") == pytest.approx(
        10.0 * (5.0 / 9.0) / total_surface, rel=1e-12
    )
    with pytest.raises(ValueError, match="no edges"):
        myopic_defense(system.budget, {})
    with pytest.raises(ValueError, match="no edges"):
        uniform_defense(System.build(edges=[], start="s"))


def test_defender_descriptors():
    assert ReactiveDefender.reactive is True
    assert MyopicDefender.reactive is True
    assert KnownEdgesDefender.reactive is False
    assert FixedDefender.reactive is False

    assert ReactiveDefender().describe() == {
        "policy": "reactive-hidden",
        "schedule": "round-adaptive",
    }
    assert KnownEdgesDefender().describe() == {
        "policy": "known-edges",
        "beta": "horizon",
    }
    assert KnownEdgesDefender(beta=0.7).describe()["beta"] == 0.7
    noop = FixedDefender(lambda view: zero_allocation(1.0), {"policy": "noop"})
    assert noop.describe() == {"policy": "noop"}
    assert MyopicDefender().describe() == {"policy": "myopic"}


def test_fixed_defender_computes_its_allocation_at_start():
    system = fixture("fig2")
    seen = []

    def allocate(view):
        seen.append(view)
        return uniform_defense(view)

    defender = FixedDefender(allocate, {"policy": "uniform"})
    assert seen == []
    defender.start(system, horizon=3)
    assert seen == [system]
    assert defender.commit(1) is defender.commit(2)
    assert defender.commit(1).alloc == {"left": 5.0, "right": 5.0}
    assert defender.last_beta is None


# ---------------------------------------------------------------------------
# properties


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_fixed_rate_ratio_monotone(seed):
    # attacking an edge can only raise its share relative to spared edges
    rng = random.Random(seed)
    system = random_system(rng, max_extra_edges=7)
    if len(system.edges) < 2:
        return
    state = _known_state(system, horizon_beta(len(system.edges), 50))
    after = hedge_allocation(state)
    for attack in attack_sequence(system, rng, 6):
        before = after
        state, after = reactive_hidden_step(state, _hits(attack), state.surfaces)
        hit = set(attack.path)
        for spared in set(system.edge_ids) - hit:
            for eid in hit:
                old = before.get(eid) / before.get(spared)
                new = after.get(eid) / after.get(spared)
                assert new > old * (1.0 - 1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_annealed_ratio_monotone_without_new_reveals(seed):
    # with unit surfaces and no mid-game reveals, the annealed learner also
    # shifts budget toward the attacked edge every round
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    surfaces = {f"e{i}": 1.0 for i in range(n)}
    state = HedgeState(budget=1.0)
    state, alloc = reactive_hidden_step(
        state, {eid: 1.0 / n for eid in surfaces}, surfaces
    )
    for _ in range(rng.randint(1, 12)):
        target = rng.choice(sorted(surfaces))
        before = alloc
        state, alloc = reactive_hidden_step(state, {target: 1.0}, surfaces)
        for other in surfaces:
            if other == target:
                continue
            old = before.get(target) / before.get(other)
            new = alloc.get(target) / alloc.get(other)
            assert new > old * (1.0 - 1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_learner_allocations_feasible(seed):
    rng = random.Random(seed)
    system = random_system(rng, max_extra_edges=9)
    state = HedgeState(budget=system.budget)
    surfaces = {e.id: e.surface for e in system.edges}
    for attack in attack_sequence(system, rng, 10):
        state, alloc = reactive_hidden_step(state, _hits(attack), surfaces)
        assert alloc.total() == pytest.approx(system.budget, rel=1e-9)
        assert set(alloc.support()) <= set(state.surfaces)
