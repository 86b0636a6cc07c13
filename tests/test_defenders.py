"""Learning and proactive defender strategies."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reactive_defense
from conftest import attack_sequence, brute_force_worst_case, sample_systems
from reactive_defense import BestResponseAttacker, ReactiveDefender, fixture, run_game
from reactive_defense.attackers import RandomPathAttacker
from reactive_defense.defenders import (
    FixedDefender,
    HedgeLearner,
    KnownEdgesDefender,
    MyopicDefender,
    beta_schedule,
    hindsight_from_usage,
    horizon_beta,
    mincut_perimeter_defense,
    minimax_proactive_defense,
    proportional_defense,
    _max_shadow_prices,
    reactive_hidden_step,
    uniform_defense,
)
from reactive_defense.engine import RoundFeedback
from reactive_defense.fixtures import FIXTURES, star
from reactive_defense.model import (
    Attack,
    DefenseAllocation,
    System,
    SystemView,
    ordered_sum,
    roa,
    zero_allocation,
)
from reactive_defense.generators import random_system
from reactive_defense.paths import PathSet


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
    return {eid: 1.0 for eid in attack}


def _allocation(learner: HedgeLearner, shares: list[float]) -> dict[str, float]:
    return dict(zip(learner.index, shares))


def _scores(learner: HedgeLearner) -> dict[str, float]:
    return dict(zip(learner.index, learner.scores))


def test_hidden_allocation_zero_before_any_attack():
    learner = HedgeLearner(budget=5.0)
    assert sum(learner.shares()) == 0.0
    assert learner.beta is None
    assert learner.round_index == 0


def test_hidden_step_overridden_rate():
    surfaces = {"e1": 1.0, "e2": 1.0}
    learner = HedgeLearner(budget=3.0, fixed_beta=0.5)
    alloc = _allocation(
        learner, reactive_hidden_step(learner, {"e1": 1.0, "e2": 1.0}, surfaces)
    )
    assert alloc["e1"] == pytest.approx(1.5, rel=1e-12)
    assert alloc["e2"] == pytest.approx(1.5, rel=1e-12)

    alloc = _allocation(learner, reactive_hidden_step(learner, {"e1": 1.0}, surfaces))
    # scores (-2, -1): shares proportional to 0.5**-2 : 0.5**-1 = 2 : 1
    assert _scores(learner)["e1"] == -2.0
    assert _scores(learner)["e2"] == -1.0
    assert alloc["e1"] == pytest.approx(2.0, rel=1e-12)
    assert alloc["e2"] == pytest.approx(1.0, rel=1e-12)
    assert learner.round_index == 2


def test_hidden_step_default_schedule():
    surfaces = {"e1": 2.0, "e2": 4.0}
    learner = HedgeLearner(budget=1.0)
    reactive_hidden_step(learner, {"e1": 1.0}, surfaces)
    assert learner.beta == beta_schedule(1, 1) == 1.0
    alloc = _allocation(learner, reactive_hidden_step(learner, {"e2": 1.0}, surfaces))
    # two edges revealed after two rounds
    beta = beta_schedule(2, 2)
    assert learner.beta == beta
    assert list(learner.index) == ["e1", "e2"]
    assert learner.surfaces == [2.0, 4.0]
    # recompute the allocation directly from the committed scores
    shares = {eid: beta ** _scores(learner)[eid] for eid in surfaces}
    z = sum(shares.values())
    for eid in surfaces:
        assert alloc[eid] == pytest.approx(shares[eid] / z, rel=1e-12)


def test_hidden_update_weighted_masses():
    surfaces = {"a": 1.0, "b": 2.0}
    learner = HedgeLearner(budget=4.0)
    reactive_hidden_step(learner, {"a": 0.25, "b": 0.75}, surfaces)
    assert _scores(learner)["a"] == -0.25
    assert _scores(learner)["b"] == -0.375


def test_shares_match_the_largest_exponent_formula_bit_for_bit():
    # shares take the top exponent from the smallest score; the reference
    # exponentiates every score first and takes the largest
    rng = random.Random(11)
    for n in (1, 2, 77):
        for beta in (1.0, 0.5, horizon_beta(77, 2000), 1e-300):
            for _ in range(40):
                learner = HedgeLearner(3.0, {f"e{i}": 1.0 for i in range(n)}, fixed_beta=beta)
                learner.scores[:] = [
                    rng.choice((0.0, -0.0, rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-3, 3)))
                    for _ in range(n)
                ]
                exponents = [score * math.log(beta) for score in learner.scores]
                weights = [math.exp(x - max(exponents)) for x in exponents]
                z = ordered_sum(weights)
                want = [3.0 * w / z for w in weights]
                assert [x.hex() for x in learner.shares()] == [x.hex() for x in want]


def test_hidden_update_rejects_bad_input():
    surfaces = {"e1": 1.0}
    learner = HedgeLearner(budget=1.0)
    with pytest.raises(ValueError, match="no attacked edges"):
        reactive_hidden_step(learner, {}, surfaces)
    with pytest.raises(ValueError, match="negative attack weight"):
        reactive_hidden_step(learner, {"e1": -0.5}, surfaces)
    with pytest.raises(ValueError, match="negative attack weight"):
        reactive_hidden_step(learner, {"e1": -math.inf}, surfaces)
    for weight in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite attack weight"):
            reactive_hidden_step(learner, {"e1": weight}, surfaces)
    with pytest.raises(ValueError, match="no surface reported"):
        reactive_hidden_step(learner, {"ghost": 1.0}, surfaces)
    with pytest.raises(ValueError, match="must be positive"):
        reactive_hidden_step(learner, {"e1": 1.0}, {"e1": -2.0})
    reactive_hidden_step(learner, {"e1": 1.0}, surfaces)
    with pytest.raises(ValueError, match="re-revealed"):
        reactive_hidden_step(learner, {"e1": 1.0}, {"e1": 3.0})
    with pytest.raises(ValueError, match="beta"):
        HedgeLearner(1.0, surfaces, fixed_beta=0.0).shares()
    with pytest.raises(ValueError, match="beta"):
        HedgeLearner(1.0, surfaces, fixed_beta=1.5).shares()


def test_rejected_round_leaves_learner_unchanged():
    learner = HedgeLearner(budget=1.0)
    reactive_hidden_step(learner, {"e1": 1.0}, {"e1": 1.0})

    def snapshot():
        return dict(learner.index), list(learner.surfaces), list(learner.scores), learner.round_index

    before = snapshot()
    bad_rounds = [
        ({"e2": 1.0, "e1": -1.0}, {"e1": 1.0, "e2": 1.0}),
        ({"e2": 1.0, "e1": 1.0}, {"e1": 3.0, "e2": 1.0}),
        ({"e1": 1.0, "e2": 1.0}, {"e1": 1.0}),
        ({"e2": 1.0, "e1": math.nan}, {"e1": 1.0, "e2": 1.0}),
        ({"e2": 1.0, "e1": math.inf}, {"e1": 1.0, "e2": 1.0}),
    ]
    for edge_weights, surfaces in bad_rounds:
        with pytest.raises(ValueError):
            reactive_hidden_step(learner, edge_weights, surfaces)
        assert snapshot() == before
    with pytest.raises(KeyError, match="ghost"):
        learner.update({"e1": 1.0, "ghost": 1.0})
    assert snapshot() == before


# ---------------------------------------------------------------------------
# known-edge learner


def _known_learner(system, beta: float) -> HedgeLearner:
    surfaces = {e.id: e.surface for e in system.edges}
    return HedgeLearner(system.budget, surfaces, fixed_beta=beta)


def test_learner_checks_every_surface_where_an_edge_joins_the_domain():
    # A negative surface would reverse the update, 0 would divide by zero,
    # NaN would fail a later round's re-reveal check, inf never learns and
    # a subnormal surface's reciprocal overflows into NaN shares: each is
    # refused on reveal, from the constructor and from a round.
    for bad in (0.0, -1.0, math.nan, math.inf, 1e-310):
        with pytest.raises(ValueError) as caught:
            HedgeLearner(1.0, {"e": bad, "f": 1.0})
        assert str(caught.value) == f"surface of 'e' must be positive with finite 1/surface, got {bad}"
        learner = HedgeLearner(budget=1.0)
        reactive_hidden_step(learner, {"e1": 1.0}, {"e1": 1.0})
        before = dict(learner.index), list(learner.surfaces), list(learner.scores)
        with pytest.raises(ValueError) as caught:
            reactive_hidden_step(learner, {"e1": 1.0, "e2": 1.0}, {"e1": 1.0, "e2": bad})
        assert str(caught.value) == f"surface of 'e2' must be positive with finite 1/surface, got {bad}"
        assert (dict(learner.index), learner.surfaces, learner.scores) == before
        assert learner.round_index == 1


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
    learner = _known_learner(system, beta=0.5)
    alloc = _allocation(learner, reactive_hidden_step(learner, {"e1": 1.0}, {"e1": 1.0}))
    # share(e1) doubles before renormalizing: (1, 0.5) -> (2/3, 1/3)
    assert alloc["e1"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert alloc["e2"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert learner.round_index == 1
    assert learner.beta == 0.5


def test_known_update_shift_invariant():
    system = fixture("fig3_n2")
    plain, moved = _known_learner(system, beta=0.7), _known_learner(system, beta=0.7)
    eids = list(plain.index)
    column = {eids[0]: -1.4, eids[1]: 0.25}
    shifted = {eid: column[eid] + 3.75 for eid in eids}
    plain.update(column)
    moved.update(shifted)
    a = _allocation(plain, plain.shares())
    b = _allocation(moved, moved.shares())
    for eid in eids:
        assert a[eid] == pytest.approx(b[eid], rel=1e-12)


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
    assert [r.attacks[0] for r in trace.records] == (
        [one, two] + [one] * 8 + [two] + [one] * 7 + [two, one]
    )


def test_known_learner_rejects_bad_input():
    system = fixture("fig3_n2")
    with pytest.raises(ValueError, match="horizon"):
        KnownEdgesDefender().start(system, horizon=0)
    with pytest.raises(ValueError, match="beta"):
        KnownEdgesDefender(beta=1.5).start(system, horizon=5)
    learner = _known_learner(system, beta=0.5)
    with pytest.raises(KeyError, match="ghost"):
        learner.update({"ghost": 1.0})
    with pytest.raises(ValueError, match="no surface reported"):
        reactive_hidden_step(learner, {"ghost": 1.0}, {})
    empty = System.build(edges=[], start="s")
    with pytest.raises(ValueError, match="no edges"):
        KnownEdgesDefender().start(empty, horizon=5)


def test_defender_instances_replay_identically():
    # The learner is mutable and lives in the defender, so each start must
    # begin afresh: a reused instance replays its first game exactly.
    system = random_system(random.Random(26), max_extra_edges=12, max_vertices=8)
    for make_defender in (ReactiveDefender, KnownEdgesDefender):
        for make_attacker in (lambda: BestResponseAttacker("profit"), RandomPathAttacker):
            defender = make_defender()
            first = run_game(system, defender, make_attacker(), 40, seed=5)
            second = run_game(system, defender, make_attacker(), 40, seed=5)
            fresh = run_game(system, make_defender(), make_attacker(), 40, seed=5)
            assert first == second == fresh
            played = {tuple(r.allocation.alloc.items()) for r in first.records}
            assert len(played) > 10


def test_learners_neither_alias_nor_mutate_surface_mappings():
    system = fixture("fig3_n2")
    eids = list(system.edge_ids)
    surfaces = {e.id: e.surface for e in system.edges}
    learner = HedgeLearner(system.budget, surfaces, fixed_beta=0.5)
    reactive_hidden_step(learner, {eids[0]: 1.0}, surfaces)
    assert surfaces == {e.id: e.surface for e in system.edges}
    surfaces[eids[0]] = 99.0
    surfaces["ghost"] = 1.0
    assert list(learner.index) == eids
    assert learner.surfaces == [e.surface for e in system.edges]

    for defender, view in (
        (ReactiveDefender(), SystemView(system.start, system.budget)),
        (KnownEdgesDefender(beta=0.5), system),
    ):
        defender.start(view, horizon=10)
        surfaces_of = {e.id: e.surface for e in system.edges}
        reported = dict(surfaces_of)
        feedback = RoundFeedback(
            round_index=1,
            attacks=(Attack((eids[0],)),),
            surfaces=reported,
            edge_weights={eids[0]: 1.0},
        )
        defender.observe(feedback)
        assert reported == surfaces_of
        # a later change to the caller's mapping must not reach the
        # surfaces the learner checks re-reveals against
        reported[eids[0]] = 99.0
        defender.observe(
            RoundFeedback(2, feedback.attacks, {eids[0]: surfaces_of[eids[0]]}, {eids[0]: 1.0})
        )


class _SnapshotDefender(ReactiveDefender):
    """Records each allocation's keys and amounts as it is committed."""

    def start(self, view, horizon):
        self.snapshots = []
        super().start(view, horizon)

    def commit(self, round_index):
        allocation = super().commit(round_index)
        self.snapshots.append((list(allocation.alloc), list(allocation.alloc.values())))
        return allocation


def test_reactive_allocations_share_an_index_until_a_reveal():
    system = random_system(random.Random(26), max_extra_edges=12, max_vertices=8)
    defender = _SnapshotDefender()
    trace = run_game(system, defender, RandomPathAttacker(), 60, seed=3)
    indexes = [r.allocation.alloc.index for r in trace.records]
    revealed = [bool(r.newly_revealed) for r in trace.records]
    assert 2 < sum(revealed) < 50
    # Round t + 1's allocation follows round t's feedback: a new index
    # exactly when that round revealed an edge.
    assert [later is not earlier for earlier, later in zip(indexes, indexes[1:])] == revealed[:-1]
    # Later reveals leave every committed allocation as it was committed.
    played = [(list(r.allocation.alloc), list(r.allocation.alloc.values())) for r in trace.records]
    assert played == defender.snapshots


def test_known_edges_allocations_share_one_index_for_the_game():
    system = random_system(random.Random(26), max_extra_edges=12, max_vertices=8)
    trace = run_game(system, KnownEdgesDefender(), RandomPathAttacker(), 60, seed=3)
    index = trace.records[0].allocation.alloc.index
    assert list(index) == list(system.edge_ids)
    assert all(r.allocation.alloc.index is index for r in trace.records)


def test_known_edges_allocations_hold_under_1kb_each():
    # 2000 allocations over the 77 edges of the wide-game benchmark system.
    # tracemalloc counts bytes, so the figure is the same on every run.
    # Packed, one holds 77 doubles in one array and two small objects
    # (about 0.8 KB); a dict with a float object per edge held about 3.5 KB.
    system = random_system(random.Random(29), max_extra_edges=80, max_vertices=40)
    assert len(system.edges) == 77
    edge = system.start_edges()[0]
    feedback = RoundFeedback(1, (Attack((edge.id,)),), {edge.id: edge.surface}, {edge.id: 1.0})
    defender = KnownEdgesDefender()
    defender.start(system, 2000)
    allocations = [None] * 2000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t in range(2000):
            allocations[t] = defender.commit(t + 1)
            defender.observe(feedback)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len({id(a) for a in allocations}) == 2000
    assert held / 2000 < 1024


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


def _linprog_minimax(system: System, objective: str) -> np.ndarray | None:
    """Oracle: the HiGHS formulation the package solved before its own
    simplex, verbatim; the allocation vector, or None if HiGHS fails."""
    from scipy.optimize import linprog

    pathset = PathSet.enumerate(system)
    num_edges = len(system.edges)
    # Every attack's row, not just the frontier's the package solves over.
    edge_index = {eid: j for j, eid in enumerate(system.edge_ids)}
    rate_rows = np.zeros((len(pathset.attacks), num_edges))
    for i, attack in enumerate(pathset.attacks):
        for eid in attack:
            rate_rows[i, edge_index[eid]] = 1.0
    rate_rows /= np.array([e.surface for e in system.edges])
    budget_row = np.concatenate([np.ones(num_edges), [0.0]])
    if objective == "roa":
        mask = pathset.payoffs > 0
        if not mask.any():
            return np.zeros(num_edges)
        a_ub = np.vstack(
            [
                np.hstack([-rate_rows[mask], pathset.payoffs[mask][:, None]]),
                budget_row,
            ]
        )
        b_ub = np.concatenate([np.zeros(int(mask.sum())), [system.budget]])
        cost_vector = np.zeros(num_edges + 1)
        cost_vector[-1] = -1.0
    else:
        a_ub = np.vstack(
            [
                np.hstack([-rate_rows, -np.ones((len(pathset.attacks), 1))]),
                budget_row,
            ]
        )
        b_ub = np.concatenate([-pathset.payoffs, [system.budget]])
        cost_vector = np.zeros(num_edges + 1)
        cost_vector[-1] = 1.0
    result = linprog(
        cost_vector,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, None)] * (num_edges + 1),
        method="highs",
    )
    if not result.success:
        return None
    return np.maximum(result.x[:num_edges], 0.0)


def _scaled(system: System, surface: float, reward: float, budget: float) -> System:
    return System.build(
        edges=[(e.id, e.src, e.dst, e.surface * surface) for e in system.edges],
        rewards={v: r * reward for v, r in system.rewards.items()},
        start=system.start,
        budget=budget,
    )


def _graph_fixtures() -> list[System]:
    return [s for s in map(fixture, FIXTURES) if isinstance(s, System)]


def _assert_matches_linprog(systems: list[System]) -> int:
    solved = 0
    for system in systems:
        scale = float(PathSet.enumerate(system).payoffs.max())
        for objective in ("roa", "profit"):
            vector = _linprog_minimax(system, objective)
            if vector is None:
                continue
            oracle = brute_force_worst_case(
                system, objective, dict(zip(system.edge_ids, vector.tolist()))
            )
            result = minimax_proactive_defense(system, objective)
            worst = brute_force_worst_case(system, objective, dict(result.allocation.alloc))
            # roa values are ratios, so their own size is the scale
            size = oracle if objective == "roa" else scale
            assert worst <= oracle + 1e-9 * size, (system, objective, worst, oracle)
            assert worst == result.value, (system, objective, worst, result.value)
            solved += 1
    return solved


def test_minimax_matches_linprog_on_fixtures_and_random_systems():
    systems = _graph_fixtures() + [s for _, s in sample_systems(200, base_seed=9100, max_paths=300)]
    assert _assert_matches_linprog(systems) == 2 * len(systems)


def test_minimax_matches_linprog_on_scaled_systems():
    bases = _graph_fixtures() + [s for _, s in sample_systems(3, base_seed=9500, max_paths=100)]
    systems = [
        _scaled(system, surface, reward, budget)
        for system in bases
        for surface in (1e-8, 1.0, 1e8)
        for reward in (1e-8, 1.0, 1e8)
        for budget in (1e-3, 1.0, 1e3)
    ]
    # HiGHS fails on none of these today; the count would show if it did
    assert _assert_matches_linprog(systems) == 2 * len(systems)


def test_minimax_terminates_on_degenerate_programs():
    identical_leaves = System.build(
        edges=[(f"e{i}", "s", f"v{i}", 1.0) for i in range(6)],
        rewards={f"v{i}": 3.0 for i in range(6)},
        budget=6.0,
    )
    zero_branches = System.build(
        edges=[
            ("a", "s", "x", 1.0), ("b", "s", "y", 2.0), ("c", "y", "z", 1.0), ("d", "x", "y", 1.0)
        ],
        rewards={"x": 0.0, "y": 0.0, "z": 4.0},
        budget=2.0,
    )
    flooded = System.build(
        edges=[("lo", "s", "a", 1.0), ("hi", "s", "b", 1.0), ("hi2", "s", "b", 1.0)],
        rewards={"a": 1.0, "b": 10.0},
        budget=1e6,
    )
    # The br-game system: 3727 attacks, 573 of them on the frontier, where
    # the smaller LP reaches another optimal vertex.
    br_game = random_system(random.Random(26), 30, 10)
    systems = [
        identical_leaves, star(leaves=8), fixture("appendix_b"), zero_branches, flooded, br_game
    ]
    assert _assert_matches_linprog(systems) == 2 * len(systems)
    leaves = minimax_proactive_defense(identical_leaves, "roa")
    assert leaves.value == pytest.approx(3.0, rel=1e-12)
    assert minimax_proactive_defense(flooded, "profit").value == 0.0


def test_simplex_terminates_on_beales_cycling_example():
    # Beale (1955): Dantzig's rule with lowest-index ties cycles forever here.
    matrix = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    prices, optimum = _max_shadow_prices(
        matrix, np.array([0.0, 0.0, 1.0]), np.array([0.75, -20.0, 0.5, -6.0])
    )
    assert optimum == pytest.approx(1.25, rel=1e-12)
    # the prices are an optimal solution of the minimizing dual
    assert prices @ np.array([0.0, 0.0, 1.0]) == pytest.approx(1.25, rel=1e-12)
    assert np.all(matrix.T @ prices >= np.array([0.75, -20.0, 0.5, -6.0]) - 1e-12)


def test_simplex_hands_stalled_pivots_to_blands_rule():
    # Found by search: from the slack basis Dantzig's rule makes more
    # degenerate pivots in a row than there are rows, so the lowest-index
    # rule takes over; only rows with no right-hand side, optimum 0.
    matrix = np.array(
        [
            [1.0, 1.0, -1.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, -1.0, -1.0],
            [0.0, 0.0, 1.0, 1.0, 0.0],
            [1.0, 1.0, 1.0, 1.0, -1.0],
        ]
    )
    rhs, gains = np.array([0.0, 0.0, 0.0, 1.0]), np.array([3.0, 3.0, 1.0, 1.0, -1.0])
    prices, optimum = _max_shadow_prices(matrix, rhs, gains)
    assert optimum == 0.0
    assert prices @ rhs == 0.0
    assert np.all(prices >= 0.0) and np.all(matrix.T @ prices >= gains - 1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["minimax", "--system", "fig2", "--objective", "roa"],
        ["minimax", "--system", "fig4", "--objective", "profit"],
        ["simulate", "--system", "fig2", "--defender", "minimax-roa", "-T", "5"],
    ],
)
def test_minimax_runs_without_scipy(tmp_path, argv):
    probe = (
        "import sys\n"
        "from reactive_defense.cli import main\n"
        f"code = main({argv + ['--out', str(tmp_path)] if argv[0] == 'simulate' else argv!r})\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    src = str(Path(reactive_defense.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.splitlines()[-1] == "0 False"


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

    myo = proportional_defense(system.budget, {"left": 5.0, "right": 5.0 / 9.0})
    total_surface = 5.0 + 5.0 / 9.0
    assert myo.get("left") == pytest.approx(10.0 * 5.0 / total_surface, rel=1e-12)
    assert myo.get("right") == pytest.approx(
        10.0 * (5.0 / 9.0) / total_surface, rel=1e-12
    )
    with pytest.raises(ValueError, match="no edges"):
        proportional_defense(system.budget, {})
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
    noop = FixedDefender(zero_allocation(1.0), {"policy": "noop"})
    assert noop.describe() == {"policy": "noop"}
    assert MyopicDefender().describe() == {"policy": "myopic"}


def test_fixed_defender_plays_the_allocation_it_is_built_with():
    system = fixture("fig2")
    allocation = uniform_defense(system)
    defender = FixedDefender(allocation, {"policy": "uniform"})
    defender.start(fixture("fig4"), horizon=3)
    assert defender.commit(1) is allocation
    assert defender.commit(2) is allocation
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
    learner = _known_learner(system, horizon_beta(len(system.edges), 50))
    surfaces = {e.id: e.surface for e in system.edges}
    after = _allocation(learner, learner.shares())
    for attack in attack_sequence(system, rng, 6):
        before = after
        after = _allocation(
            learner, reactive_hidden_step(learner, _hits(attack), surfaces)
        )
        hit = set(attack)
        for spared in set(system.edge_ids) - hit:
            for eid in hit:
                old = before[eid] / before[spared]
                new = after[eid] / after[spared]
                assert new > old * (1.0 - 1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_annealed_ratio_monotone_without_new_reveals(seed):
    # with unit surfaces and no mid-game reveals, the annealed learner also
    # shifts budget toward the attacked edge every round
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    surfaces = {f"e{i}": 1.0 for i in range(n)}
    learner = HedgeLearner(budget=1.0)
    alloc = _allocation(
        learner,
        reactive_hidden_step(learner, {eid: 1.0 / n for eid in surfaces}, surfaces),
    )
    for _ in range(rng.randint(1, 12)):
        target = rng.choice(sorted(surfaces))
        before = alloc
        alloc = _allocation(
            learner, reactive_hidden_step(learner, {target: 1.0}, surfaces)
        )
        for other in surfaces:
            if other == target:
                continue
            old = before[target] / before[other]
            new = alloc[target] / alloc[other]
            assert new > old * (1.0 - 1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_learner_allocations_feasible(seed):
    rng = random.Random(seed)
    system = random_system(rng, max_extra_edges=9)
    learner = HedgeLearner(budget=system.budget)
    surfaces = {e.id: e.surface for e in system.edges}
    for attack in attack_sequence(system, rng, 10):
        shares = reactive_hidden_step(learner, _hits(attack), surfaces)
        alloc = DefenseAllocation(_allocation(learner, shares), system.budget)
        assert alloc.total() == pytest.approx(system.budget, rel=1e-9)
        assert set(alloc.support()) <= set(learner.index)
