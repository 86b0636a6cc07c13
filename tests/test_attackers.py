"""Attacker policies and best-response selection."""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from conftest import best_response, sample_systems
from reactive_defense import BestResponseAttacker, ReactiveDefender, fixture, run_game
from reactive_defense.attackers import (
    FixedSequenceAttacker,
    MultiAttacker,
    ObliviousAttacker,
    RandomPathAttacker,
    random_parallel_attack,
)
from reactive_defense.defenders import uniform_defense
from reactive_defense.fixtures import star
from reactive_defense.generators import random_system
from reactive_defense.model import (
    Attack,
    DefenseAllocation,
    System,
    cost,
    validate_system,
    zero_allocation,
)
from reactive_defense.paths import BestResponse, PathSet, select_best_response


def test_best_response_roa_free_edges_dominate():
    system = fixture("fig2")
    # nothing defended: every attack is free, ties break to lower cost,
    # then to the lexicographically smaller path, so the bare edge wins
    pick = best_response(system, zero_allocation(10.0), "roa")
    assert pick.attack.path == ("left",)
    assert pick.value == math.inf


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


def _lexsort_best_response(
    pathset: PathSet, costs: np.ndarray, objective: str
) -> BestResponse:
    """Order oracle: a full lexsort over (rank of the edge-id sequence,
    cost, objective) of every attack, with the rank computed by sorting
    the paths."""
    pays = pathset.payoffs
    order = sorted(range(len(pathset.attacks)), key=lambda i: pathset.attacks[i].path)
    lex_rank = np.empty(len(order), dtype=np.int64)
    lex_rank[order] = np.arange(len(order))
    if objective == "profit":
        values = pays - costs
        i = int(np.lexsort((lex_rank, costs, -values))[0])
        return BestResponse(pathset.attacks[i], float(values[i]))
    free = (pays > 0) & (costs == 0.0)
    finite = np.divide(pays, costs, out=np.zeros_like(pays), where=costs > 0)
    i = int(np.lexsort((lex_rank, costs, -finite, ~free))[0])
    if pays[i] > 0:
        return BestResponse(pathset.attacks[i], math.inf if free[i] else float(finite[i]))
    i = int(np.lexsort((lex_rank, costs, -pays))[0])
    return BestResponse(pathset.attacks[i], math.nan)


def _criterion_systems() -> list[tuple[int, System]]:
    """Every system criteria 1-8 play or query, with a seed for each."""
    systems = []
    for count, base_seed in ((100, 100), (50, 20_000), (20, 40_000)):
        systems += sample_systems(count, base_seed=base_seed, max_paths=500)
    systems += sample_systems(20, base_seed=60_000, max_extra_edges=9)
    systems += sample_systems(100, base_seed=70_000, max_extra_edges=11)
    seed = 80_000
    while sum(1 for s, _ in systems if s > 80_000) < 20:
        seed += 1
        system = random_system(random.Random(seed))
        if 1 <= len(system.start_edges()) <= 4:
            systems.append((seed, system))
    systems += [(0, fixture(name)) for name in ("fig2", "fig3_n4", "fig4")]
    systems += [(0, star(leaves=n)) for n in (2, 4, 8)]
    return systems


def _allocations(system: System, seed: int, rounds: int) -> list[DefenseAllocation]:
    """Zero, uniform, seeded random and reactive-game allocations."""
    allocations = [zero_allocation(system.budget), uniform_defense(system)]
    rng = random.Random(seed)
    for _ in range(3):
        amounts = {e.id: rng.choice((0.0, rng.random())) for e in system.edges}
        total = sum(amounts.values())
        if total > 0:
            scale = system.budget * rng.random() / total
            allocations.append(
                DefenseAllocation({k: v * scale for k, v in amounts.items()}, system.budget)
            )
    for objective in ("roa", "profit"):
        trace = run_game(
            system, ReactiveDefender(), BestResponseAttacker(objective), rounds, seed
        )
        allocations += [record.allocation for record in trace.records]
    return allocations


def _prefix_prices(pathset: PathSet, allocation: DefenseAllocation) -> np.ndarray:
    """Every attack's ``model.cost``: its parent prefix's price plus its
    last edge's amount over surface.  Enumeration lists each prefix before
    its extensions, and the sum runs left to right from 0.0 as
    ``model.cost``'s does, so the prices are equal bit for bit; a sample
    of them is checked against ``model.cost``."""
    system = pathset.system
    amounts, surfaces = allocation.alloc, {e.id: e.surface for e in system.edges}
    prices: dict[tuple[str, ...], float] = {(): 0.0}
    for attack in pathset.attacks:
        path = attack.path
        prices[path] = prices[path[:-1]] + amounts.get(path[-1], 0.0) / surfaces[path[-1]]
    for attack in pathset.attacks[::37]:
        assert prices[attack.path] == cost(system, attack, allocation)
    return np.array([prices[a.path] for a in pathset.attacks])


def _assert_same_pick(pathset, allocation, *objectives) -> BestResponse:
    """The frontier pick equals the oracle's over every attack priced by
    ``model.cost``, for each objective; returns the last pick."""
    costs = _prefix_prices(pathset, allocation)
    for objective in objectives:
        want = _lexsort_best_response(pathset, costs, objective)
        got = select_best_response(pathset, allocation, objective)
        assert got.attack == want.attack
        assert got.value == want.value or (math.isnan(got.value) and math.isnan(want.value))
    return got


def test_selection_matches_lexsort_order():
    systems = _criterion_systems()
    assert len(systems) == 316
    for seed, system in systems:
        pathset = PathSet.enumerate(system)
        for allocation in _allocations(system, seed, rounds=12):
            _assert_same_pick(pathset, allocation, "roa", "profit")
    # the baseline benchmark system: 3727 attacks, exact ties all game long
    system = random_system(random.Random(26), max_extra_edges=30, max_vertices=10)
    pathset = PathSet.enumerate(system)
    for allocation in _allocations(system, 26, rounds=100):
        _assert_same_pick(pathset, allocation, "roa", "profit")


def test_selection_tie_branches_match_lexsort_order():
    fig2 = PathSet.enumerate(fixture("fig2"))
    # free: every attack costs nothing, and the first free one wins
    pick = _assert_same_pick(fig2, zero_allocation(10.0), "roa")
    assert (pick.attack.path, pick.value) == (("left",), math.inf)

    # undefined: nothing pays, so the cheapest zero-payoff attack is picked at NaN
    barren = System.build(edges=[("e1", "s", "a", 1.0), ("e2", "a", "b", 1.0)])
    pick = _assert_same_pick(PathSet.enumerate(barren), zero_allocation(1.0), "roa")
    assert math.isnan(pick.value) and pick.attack.path == ("e1",)

    # cost-decided tie: both attacks return exactly 1.0, the cheaper wins
    split = DefenseAllocation({"left": 5.0, "right": 5.0}, 10.0)
    costs = fig2.costs(split)
    assert list(fig2.frontier.payoffs / costs) == [1.0, 1.0] and costs[0] < costs[1]
    pick = _assert_same_pick(fig2, split, "roa")
    assert pick.attack.path == ("left",)

    # index-decided exact tie: equal return and equal cost on every leaf;
    # edges are declared in reverse, so the pick is by edge id, not by row
    system = System.build(
        edges=[(f"b{i}", "s", f"v{i}", 2.0) for i in reversed(range(4))],
        rewards={f"v{i}": 3.0 for i in range(4)},
        budget=2.0,
    )
    pathset = PathSet.enumerate(system)
    even = uniform_defense(system)
    assert len(set(pathset.costs(even))) == 1 and len(set(pathset.payoffs)) == 1
    for objective in ("roa", "profit"):
        pick = _assert_same_pick(pathset, even, objective)
        assert pick.attack.path == ("b0",)

    # a subnormal surface is rejected as input: its rate 1 / surface would
    # be inf.  A PathSet built around validation prices as ``model.cost``
    # does, dividing each amount by the surface, so the zero allocation
    # still costs 0 / 1e-310 = 0.0 there
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in (
            [("a", "s", "x", 1e-310), ("b", "s", "y", 1.0), ("c", "x", "y", 1.0)],
            [("a", "s", "x", 1e-310)],
        ):
            system = System.build(edges=rows, rewards={"x": 1.0, "y": 2.0})
            assert [v.code for v in validate_system(system)] == ["E-SURFACE"]
            pathset = PathSet.enumerate(system)
            assert pathset.costs(zero_allocation(1.0))[0] == 0.0
            for objective in ("roa", "profit"):
                _assert_same_pick(pathset, zero_allocation(1.0), objective)

    # rewards whose total overflows are rejected as input too: ("a", "b")
    # pays 1e308 + 1e308 = inf and costs 1e308 + 5e307 / 0.1 = inf, so its
    # profit and return are inf - inf and inf / inf.  Unvalidated, ("c",)
    # wins; the free, worthless ("d",) would win if the NaN spread to the
    # whole column
    system = System.build(
        edges=[
            ("a", "s", "x", 1.0),
            ("b", "x", "y", 0.1),
            ("c", "s", "z", 1.0),
            ("d", "s", "w", 1.0),
        ],
        rewards={"x": 1e308, "y": 1e308, "z": 1.0},
        budget=1.7e308,
    )
    assert [v.code for v in validate_system(system)] == ["E-REWARD"]
    heavy = DefenseAllocation({"a": 1e308, "b": 5e307, "c": 1e-300}, system.budget)
    with np.errstate(over="ignore", invalid="ignore"):
        pathset = PathSet.enumerate(system)
        assert math.isinf(pathset.payoffs[1]) and math.isinf(pathset.costs(heavy)[1])
        for objective in ("roa", "profit"):
            assert _assert_same_pick(pathset, heavy, objective).attack.path == ("c",)


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
    # each move is replayed as its round's attacks, a lone attack as a one-tuple
    assert attacker.attack(zero_allocation(10.0), 1) == (moves[0],)
    assert attacker.attack(zero_allocation(10.0), 2) == (moves[1],)
    assert attacker.describe() == {"policy": "fixed-sequence", "length": 2}
    with pytest.raises(ValueError, match="game needs 3"):
        attacker.start(fixture("fig2"), random.Random(0), horizon=3)
    with pytest.raises(ValueError, match="empty"):
        FixedSequenceAttacker([])
    # an empty round is refused when the sequence is built, not when played
    with pytest.raises(ValueError, match="a population round needs at least one attack"):
        FixedSequenceAttacker([()])


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
    assert isinstance(round_, tuple)
    assert len(round_) == 2
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
    assert len(round_) == 3
