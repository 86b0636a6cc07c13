"""Attacker policies and best-response selection."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from reactive_defense import BestResponseAttacker, fixture
from reactive_defense.attackers import (
    FixedSequenceAttacker,
    MultiAttackRound,
    MultiAttacker,
    ObliviousAttacker,
    RandomPathAttacker,
    aggregate_multi_attack,
    best_response,
    random_parallel_attack,
)
from reactive_defense.model import Attack, DefenseAllocation, System, zero_allocation


def test_best_response_roa_free_edges_dominate():
    system = fixture("fig2")
    # nothing defended: every attack is free, ties break to lower cost,
    # then to the lexicographically smaller path, so the bare edge wins
    pick = best_response(system, zero_allocation(10.0), "roa")
    assert pick.attack.path == ("left",)
    assert pick.value == math.inf
    assert not pick.undefined


def test_best_response_roa_layered_chain():
    system = fixture("fig2")
    all_left = DefenseAllocation({"left": 10.0}, 10.0)
    pick = best_response(system, all_left, "roa")
    # deep path: payoff 10 at cost 2 beats payoff 1 at cost 2
    assert pick.attack.path == ("left", "right")
    assert pick.value == pytest.approx(5.0, abs=1e-9)

    all_right = DefenseAllocation({"right": 10.0}, 10.0)
    pick = best_response(system, all_right, "roa")
    assert pick.attack.path == ("left",)
    assert pick.value == math.inf

    split = DefenseAllocation({"left": 5.0, "right": 5.0}, 10.0)
    pick = best_response(system, split, "roa")
    # both attacks score 1.0; the cheaper one wins the tie
    assert pick.attack.path == ("left",)
    assert pick.value == pytest.approx(1.0, abs=1e-12)


def test_best_response_profit():
    system = fixture("fig4")
    equalized = DefenseAllocation({"right": 9.0}, 9.0)
    pick = best_response(system, equalized, "profit")
    # both edges net 1.0; the free one is cheaper
    assert pick.attack.path == ("left",)
    assert pick.value == pytest.approx(1.0, abs=1e-12)

    crushing = DefenseAllocation({"left": 4.5, "right": 4.5}, 9.0)
    pick = best_response(system, crushing, "profit")
    assert pick.attack.path == ("right",)
    assert pick.value == pytest.approx(10.0 - 4.5, abs=1e-12)


def test_best_response_undefined_when_nothing_pays():
    system = System.build(
        edges=[("e1", "s", "a", 1.0), ("e2", "a", "b", 1.0)], budget=1.0
    )
    pick = best_response(system, zero_allocation(1.0), "roa")
    assert pick.undefined
    assert math.isnan(pick.value)
    assert pick.attack.path == ("e1",)


def test_best_response_rejects_unknown_objective():
    system = fixture("fig2")
    with pytest.raises(ValueError, match="unknown objective"):
        best_response(system, zero_allocation(10.0), "speed")


def test_best_response_is_deterministic():
    system = fixture("fig3_n8")
    alloc = DefenseAllocation({f"b{i}": 0.125 for i in range(8)}, 1.0)
    picks = {best_response(system, alloc, "roa").attack.path for _ in range(5)}
    assert len(picks) == 1


def test_random_parallel_attack():
    system = fixture("appendix_b")
    rng = random.Random(7)
    counts = Counter(random_parallel_attack(system, rng).path for _ in range(2000))
    assert set(counts) == {("e1",), ("e2",)}
    for share in counts.values():
        assert 0.42 < share / 2000 < 0.58

    # identical seeds give identical draws
    a = [random_parallel_attack(system, random.Random(3)).path for _ in range(10)]
    b = [random_parallel_attack(system, random.Random(3)).path for _ in range(10)]
    assert a == b

    with pytest.raises(ValueError, match="leave the start"):
        random_parallel_attack(fixture("fig2"), rng)
    with pytest.raises(ValueError, match="no edges"):
        random_parallel_attack(System.build(edges=[], start="s"), rng)


def test_aggregate_multi_attack_masses():
    round_ = MultiAttackRound((Attack(("e1",)), Attack(("e1", "e2"))))
    masses = aggregate_multi_attack(round_)
    assert masses == {"e1": 2.0 / 3.0, "e2": 1.0 / 3.0}
    assert sum(masses.values()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="at least one attack"):
        MultiAttackRound(())
    with pytest.raises(ValueError, match="no attacked edges"):
        aggregate_multi_attack(MultiAttackRound((Attack(()),)))


def test_best_response_attacker_policy():
    system = fixture("fig2")
    attacker = BestResponseAttacker("roa")
    attacker.start(system, random.Random(0), horizon=5)
    move = attacker.attack(zero_allocation(10.0), 1)
    assert move.path == ("left",)
    assert attacker.describe() == {"policy": "roa-best-response"}
    assert BestResponseAttacker("profit").describe() == {
        "policy": "profit-best-response"
    }
    with pytest.raises(ValueError):
        BestResponseAttacker("speed")


def test_random_path_attacker_uses_engine_rng():
    system = fixture("fig2")
    one = RandomPathAttacker()
    one.start(system, random.Random(11), horizon=10)
    two = RandomPathAttacker()
    two.start(system, random.Random(11), horizon=10)
    moves_one = [one.attack(zero_allocation(10.0), t).path for t in range(1, 11)]
    moves_two = [two.attack(zero_allocation(10.0), t).path for t in range(1, 11)]
    assert moves_one == moves_two
    assert one.describe() == {"policy": "uniform-random-path"}


def test_fixed_sequence_attacker():
    moves = [Attack(("left",)), Attack(("left", "right"))]
    attacker = FixedSequenceAttacker(moves)
    attacker.start(fixture("fig2"), random.Random(0), horizon=2)
    assert attacker.attack(zero_allocation(10.0), 1).path == ("left",)
    assert attacker.attack(zero_allocation(10.0), 2).path == ("left", "right")
    assert attacker.describe() == {"policy": "fixed-sequence", "length": 2}
    with pytest.raises(ValueError, match="game needs 3"):
        attacker.start(fixture("fig2"), random.Random(0), horizon=3)
    with pytest.raises(ValueError, match="empty"):
        FixedSequenceAttacker([])


def test_oblivious_attacker_restricted_view():
    system = fixture("fig2")
    blinkered = ObliviousAttacker(visible=["left"], objective="roa")
    blinkered.start(system, random.Random(0), horizon=3)
    # the deep edge does not exist for this attacker, whatever the defense
    all_left = DefenseAllocation({"left": 10.0}, 10.0)
    assert blinkered.attack(all_left, 1).path == ("left",)
    assert blinkered.describe()["visible"] == ["left"]

    sighted = ObliviousAttacker(visible=["left", "right"], objective="roa")
    sighted.start(system, random.Random(0), horizon=3)
    full = BestResponseAttacker("roa")
    full.start(system, random.Random(0), horizon=3)
    for alloc in (all_left, zero_allocation(10.0)):
        assert sighted.attack(alloc, 1).path == full.attack(alloc, 1).path


def test_multi_attacker_flattens_members():
    system = fixture("fig2")
    population = MultiAttacker(
        [BestResponseAttacker("roa"), BestResponseAttacker("profit")]
    )
    population.start(system, random.Random(0), horizon=2)
    round_ = population.attack(zero_allocation(10.0), 1)
    assert isinstance(round_, MultiAttackRound)
    assert len(round_.attacks) == 2
    described = population.describe()
    assert described["policy"] == "multi"
    assert len(described["members"]) == 2
    with pytest.raises(ValueError, match="at least one member"):
        MultiAttacker([])


def test_nested_multi_attacker_flattens_recursively():
    system = fixture("appendix_b")
    inner = MultiAttacker([BestResponseAttacker("roa"), BestResponseAttacker("roa")])
    outer = MultiAttacker([inner, BestResponseAttacker("profit")])
    outer.start(system, random.Random(0), horizon=1)
    round_ = outer.attack(zero_allocation(1.0), 1)
    assert len(round_.attacks) == 3
