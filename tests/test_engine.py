"""Game engine: protocol order, masking, record bookkeeping."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_systems, uniform_defender
from reactive_defense import BestResponseAttacker, ReactiveDefender, fixture, run_game
from reactive_defense.attackers import (
    Attacker,
    FixedSequenceAttacker,
    MultiAttackRound,
    MultiAttacker,
    RandomPathAttacker,
)
from reactive_defense.defenders import Defender, FixedDefender, beta_schedule
from reactive_defense.engine import GameTrace, ReactiveContractError, round_edge_usage
from reactive_defense.model import (
    Attack,
    DefenseAllocation,
    InvalidAttackError,
    System,
    ValidationError,
    cost,
    payoff,
    zero_allocation,
)


def test_reactive_start_view_has_budget_but_no_edges_or_rewards():
    views = []

    class Recorder(ReactiveDefender):
        def start(self, view, horizon):
            views.append(view)
            super().start(view, horizon)

    system = fixture("fig2")
    run_game(system, Recorder(), BestResponseAttacker("roa"), rounds=2)
    (view,) = views
    assert view.budget == system.budget
    assert view.start == system.start
    assert not hasattr(view, "rewards")
    assert not hasattr(view, "edges")


def test_reactive_round_one_is_undefended():
    trace = run_game(
        fixture("fig2"), ReactiveDefender(), BestResponseAttacker("roa"), rounds=3
    )
    first = trace.records[0]
    assert first.allocation.total() == 0.0
    assert first.beta is None
    assert first.cost == 0.0
    # an undefended system invites the free bare-edge attack
    assert first.attacks == (Attack(("left",)),)
    assert first.newly_revealed == ("left",)


def test_reactive_beta_column_follows_reveals():
    trace = run_game(
        fixture("fig2"), ReactiveDefender(), BestResponseAttacker("roa"), rounds=4
    )
    betas = [r.beta for r in trace.records]
    assert betas[0] is None
    # one edge revealed after round 1, two after the deep attack of round 2
    assert betas[1] == beta_schedule(1, 1)
    assert betas[2] == beta_schedule(2, 2)
    assert betas[3] == beta_schedule(2, 3)


def test_reactive_contract_enforced():
    class Rogue(Defender):
        reactive = True

        def start(self, view, horizon):
            self._budget = view.budget

        def commit(self, round_index):
            return DefenseAllocation({"right": 1.0}, self._budget)

        def describe(self):
            return {"policy": "rogue"}

    with pytest.raises(ReactiveContractError, match="unrevealed"):
        run_game(fixture("fig2"), Rogue(), BestResponseAttacker("roa"), rounds=1)


def test_commit_strictly_precedes_attack():
    events: list[str] = []

    class Probe(Defender):
        def start(self, view, horizon):
            self._budget = view.budget

        def commit(self, round_index):
            events.append(f"commit{round_index}")
            return zero_allocation(self._budget)

        def observe(self, feedback):
            events.append(f"observe{feedback.round_index}")

        def describe(self):
            return {"policy": "probe"}

    class Watcher(Attacker):
        def start(self, system, rng, horizon):
            pass

        def attack(self, allocation, round_index):
            events.append(f"attack{round_index}")
            return Attack(("left",))

        def describe(self):
            return {"policy": "watcher"}

    run_game(fixture("fig2"), Probe(), Watcher(), rounds=2)
    assert events == ["commit1", "attack1", "observe1", "commit2", "attack2", "observe2"]


def test_trace_is_seed_deterministic():
    system = fixture("fig2")

    def play(seed):
        return run_game(
            system, ReactiveDefender(), RandomPathAttacker(), rounds=12, seed=seed
        )

    assert play(7) == play(7)
    a, b = play(7), play(8)
    assert [r.attacks for r in a.records] != [r.attacks for r in b.records]
    assert a.seed == 7


def test_records_recompute_from_snapshots():
    for seed, system in sample_systems(6, base_seed=9200):
        trace = run_game(
            system, ReactiveDefender(), RandomPathAttacker(), rounds=15, seed=seed
        )
        for record in trace.records:
            (attack,) = record.attacks
            assert record.cost == cost(system, attack, record.allocation)
            assert record.payoff == payoff(system, attack)


def test_population_round_logs_means():
    system = fixture("fig4")
    moves = [
        MultiAttackRound((Attack(("left",)), Attack(("right",)))),
        Attack(("left",)),
    ]
    defense = DefenseAllocation({"left": 3.0, "right": 6.0}, 9.0)
    trace = run_game(
        system,
        FixedDefender(lambda view: defense, {"policy": "fixed"}),
        FixedSequenceAttacker(moves),
        rounds=2,
    )
    first = trace.records[0]
    assert first.is_multi
    assert first.payoff == (1.0 + 10.0) / 2.0
    assert first.cost == (3.0 + 6.0) / 2.0
    assert round_edge_usage(first.attacks) == {"left": 0.5, "right": 0.5}
    assert not trace.records[1].is_multi


def test_edge_usage_weighs_population_rounds():
    system = fixture("fig4")
    moves = [
        MultiAttackRound((Attack(("left",)), Attack(("left",)), Attack(("right",)))),
        Attack(("left",)),
    ]
    trace = run_game(
        system, uniform_defender(), FixedSequenceAttacker(moves), rounds=2
    )
    usage = trace.edge_usage()
    assert usage["left"] == pytest.approx(2.0 / 3.0 + 1.0, rel=1e-12)
    assert usage["right"] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_learner_is_fed_per_attacker_usage():
    # each edge's usage is the attackers through it over all attackers
    fed = []

    class Recorder(ReactiveDefender):
        def observe(self, feedback):
            fed.append(dict(feedback.edge_weights))
            super().observe(feedback)

    moves = [
        MultiAttackRound(
            (Attack(("left",)), Attack(("left", "right")), Attack(("left",)))
        )
    ]
    run_game(fixture("fig2"), Recorder(), FixedSequenceAttacker(moves), rounds=1)
    assert fed == [{"left": 1.0, "right": 1.0 / 3.0}]


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=4),
    st.sampled_from(["roa", "profit"]),
)
@settings(max_examples=25, deadline=None)
def test_identical_population_plays_like_one_attacker(seed, k, objective):
    # k copies of one best responder move identically, so the learner must
    # see the same usage and commit the same allocations as against one
    _, system = sample_systems(1, base_seed=seed, max_paths=200)[0]
    one = run_game(system, ReactiveDefender(), BestResponseAttacker(objective), rounds=12)
    crowd = MultiAttacker([BestResponseAttacker(objective) for _ in range(k)])
    many = run_game(system, ReactiveDefender(), crowd, rounds=12)
    assert [r.allocation for r in many.records] == [r.allocation for r in one.records]
    assert many.edge_usage() == one.edge_usage()


def test_engine_rejects_bad_rounds_and_systems():
    with pytest.raises(ValueError, match="at least one round"):
        run_game(fixture("fig2"), uniform_defender(), BestResponseAttacker(), rounds=0)
    broken = System.build(edges=[("e", "s", "a", -1.0)], budget=1.0)
    with pytest.raises(ValidationError):
        run_game(broken, uniform_defender(), BestResponseAttacker(), rounds=1)


def test_engine_rejects_invalid_attacks():
    class Lazy(Attacker):
        def start(self, system, rng, horizon):
            pass

        def attack(self, allocation, round_index):
            return Attack(())

        def describe(self):
            return {"policy": "lazy"}

    with pytest.raises(InvalidAttackError, match="empty"):
        run_game(fixture("fig2"), uniform_defender(), Lazy(), rounds=1)

    class Teleporter(Attacker):
        def start(self, system, rng, horizon):
            pass

        def attack(self, allocation, round_index):
            return Attack(("right",))

        def describe(self):
            return {"policy": "teleporter"}

    with pytest.raises(InvalidAttackError, match="starts at"):
        run_game(fixture("fig2"), uniform_defender(), Teleporter(), rounds=1)


def test_trace_carries_descriptors():
    trace = run_game(
        fixture("fig2"), uniform_defender(), BestResponseAttacker("roa"), rounds=2
    )
    assert isinstance(trace, GameTrace)
    assert trace.defender == {"policy": "uniform"}
    assert trace.attacker == {"policy": "roa-best-response"}
    assert trace.rounds == 2
    assert len(trace.costs()) == len(trace.payoffs()) == 2


def test_multi_attacker_end_to_end():
    system = fixture("appendix_b")
    population = MultiAttacker(
        [BestResponseAttacker("roa"), RandomPathAttacker()]
    )
    trace = run_game(system, ReactiveDefender(), population, rounds=6, seed=3)
    assert all(len(r.attacks) == 2 for r in trace.records)
    # per-round usage shares still total one round each
    assert sum(trace.edge_usage().values()) == pytest.approx(6.0, rel=1e-12)
