"""Attack enumeration and the precomputed path set."""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from conftest import sample_systems
from reactive_defense import BestResponseAttacker, ReactiveDefender, fixture, run_game
from reactive_defense.fixtures import FIXTURES
from reactive_defense.generators import random_system
from reactive_defense.model import Attack, DefenseAllocation, System, cost, payoff
from reactive_defense.paths import DEFAULT_ENUMERATION_LIMIT, EnumerationLimitError, PathSet


def _attacks(system: System, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[Attack]:
    return list(PathSet.enumerate(system, limit).attacks)


def test_enumeration_order_prefixes_first():
    system = System.build(
        edges=[
            ("a", "s", "m", 1.0),
            ("b", "s", "m", 1.0),
            ("c", "m", "t", 1.0),
        ]
    )
    attacks = [a.path for a in _attacks(system)]
    assert attacks == [("a",), ("a", "c"), ("b",), ("b", "c")]


def _recursive_enumeration(system: System, limit: int) -> list[Attack]:
    """Order oracle: depth-first recursion over sorted out-edges."""
    found: list[Attack] = []
    prefix: list[str] = []
    used: set[str] = set()

    def extend(vertex: str) -> None:
        for e in system.out_edges(vertex):
            if e.id in used:
                continue
            prefix.append(e.id)
            used.add(e.id)
            if len(found) >= limit:
                raise EnumerationLimitError(limit)
            found.append(Attack(tuple(prefix)))
            extend(e.dst)
            used.discard(e.id)
            prefix.pop()

    extend(system.start)
    return found


def test_enumeration_matches_recursive_order():
    systems = [fixture(name) for name in FIXTURES]
    systems = [s for s in systems if isinstance(s, System)]
    systems += [system for _, system in sample_systems(40, base_seed=7300)]
    for system in systems:
        expected = _recursive_enumeration(system, DEFAULT_ENUMERATION_LIMIT)
        assert _attacks(system) == expected
        # the cap admits exactly the count and rejects one fewer
        assert _attacks(system, limit=len(expected)) == expected
        if len(expected) > 1:
            with pytest.raises(EnumerationLimitError):
                _attacks(system, limit=len(expected) - 1)


def test_enumeration_handles_vertex_revisits():
    system = System.build(
        edges=[("out", "s", "a", 1.0), ("back", "a", "s", 1.0)]
    )
    attacks = [a.path for a in _attacks(system)]
    assert ("out", "back") in attacks
    # the returning walk cannot reuse "out"
    assert all(len(set(p)) == len(p) for p in attacks)


def test_enumeration_limit():
    system = fixture("fig3_n8")
    assert len(_attacks(system)) == 8
    with pytest.raises(EnumerationLimitError) as err:
        _attacks(system, limit=3)
    assert err.value.limit == 3
    with pytest.raises(ValueError):
        _attacks(system, limit=0)
    assert DEFAULT_ENUMERATION_LIMIT == 10_000


def test_empty_start_has_no_attacks():
    system = System.build(edges=[("e", "a", "b", 1.0)], start="s", rewards={})
    with pytest.raises(ValueError, match="no attacks"):
        PathSet.enumerate(system)


def _pathset_by_functionals(system: System) -> tuple[list[Attack], np.ndarray]:
    """Oracle: the per-attack construction, with ``model.payoff`` (which
    validates each path)."""
    attacks = _recursive_enumeration(system, DEFAULT_ENUMERATION_LIMIT)
    return attacks, np.array([payoff(system, a) for a in attacks])


def test_pathset_is_byte_identical_to_per_attack_construction():
    systems = [fixture(name) for name in FIXTURES]
    systems = [s for s in systems if isinstance(s, System)]
    systems += [system for _, system in sample_systems(60, base_seed=7500)]
    # (0.1 + 0.2) + 0.3 differs from 0.1 + (0.2 + 0.3); y is revisited
    systems.append(
        System.build(
            edges=[
                ("a", "s", "x", 1.0),
                ("b", "x", "y", 3.0),
                ("c", "y", "x", 0.5),
                ("d", "x", "z", 7.0),
            ],
            rewards={"x": 0.1, "y": 0.2, "z": 0.3},
        )
    )
    for system in systems:
        attacks, payoffs = _pathset_by_functionals(system)
        paths = PathSet.enumerate(system)
        assert list(paths.attacks) == attacks
        assert paths.payoffs.dtype == payoffs.dtype
        assert paths.payoffs.tobytes() == payoffs.tobytes()


def test_pathset_matches_scalar_functionals():
    for seed, system in sample_systems(8, base_seed=7100, max_paths=300):
        paths = PathSet.enumerate(system)
        rng = random.Random(seed)
        amounts = {
            e.id: rng.random() * system.budget / len(system.edges)
            for e in system.edges
        }
        alloc = DefenseAllocation(amounts, system.budget)
        for attack, pay in zip(paths.attacks, paths.payoffs):
            assert pay == payoff(system, attack)
        costs = paths.costs(alloc)
        assert len(costs) == len(paths.frontier.rows)
        for row, price in zip(paths.frontier.rows, costs):
            assert price == cost(system, paths.attacks[row], alloc)


def _assert_prices_are_model_cost(paths: PathSet, alloc: DefenseAllocation) -> None:
    """Frontier prices equal ``model.cost`` bit for bit, the sign of a zero
    included."""
    found = [float(price).hex() for price in paths.costs(alloc)]
    want = [cost(paths.system, paths.attacks[row], alloc).hex() for row in paths.frontier.rows]
    assert found == want


def test_prices_of_a_one_attack_frontier():
    paths = PathSet.enumerate(System.build(edges=[("e", "s", "x", 0.75)], rewards={"x": 1.0}))
    assert paths.frontier.steps.shape == (1, 1)
    for amount in (0.0, -0.0, 0.1, 0.3, 2.0):
        _assert_prices_are_model_cost(paths, DefenseAllocation({"e": amount}, 2.0))


def test_prices_of_a_long_attack_keep_the_path_order():
    # s -> v1 -> ... -> v9 pays only at v1 and v9: the frontier is the first
    # edge and the whole chain, a (9, 2) step array
    chain = [3.0, 7.0, 0.75, 5.5, 9.25, 1.5, 2.25, 6.0, 4.75]
    system = System.build(
        edges=[(f"c{i}", f"v{i}" if i else "s", f"v{i + 1}", w) for i, w in enumerate(chain)],
        rewards={"v1": 1.0, "v9": 2.0},
    )
    paths = PathSet.enumerate(system)
    assert paths.frontier.steps.shape == (9, 2)
    rng = random.Random(1)
    reordered = 0
    for _ in range(20):
        alloc = DefenseAllocation({e.id: rng.random() for e in system.edges}, 10.0)
        _assert_prices_are_model_cost(paths, alloc)
        # numpy's pairwise sum of the long attack's terms rounds otherwise
        # on some draws, so these draws do test the order
        terms = (paths.allocation_vector(alloc) / paths.surfaces).take(paths.frontier.steps)
        reordered += float(terms[:, 1].sum()) != cost(system, paths.attacks[-1], alloc)
    assert reordered > 0


def test_negative_zero_amounts_price_as_positive_zero():
    system = random_system(random.Random(26), max_extra_edges=30, max_vertices=10)
    paths = PathSet.enumerate(system)
    alloc = DefenseAllocation({e.id: -0.0 for e in system.edges}, system.budget)
    _assert_prices_are_model_cost(paths, alloc)
    assert {float(price).hex() for price in paths.costs(alloc)} == {"0x0.0p+0"}


def test_prices_of_learner_allocations_on_the_baseline_system():
    system = random_system(random.Random(26), max_extra_edges=30, max_vertices=10)
    paths = PathSet.enumerate(system)
    trace = run_game(system, ReactiveDefender(), BestResponseAttacker("roa"), rounds=50)
    for record in trace.records:
        _assert_prices_are_model_cost(paths, record.allocation)


def _is_subsequence(short: tuple[str, ...], long: tuple[str, ...]) -> bool:
    rest = iter(long)
    return all(eid in rest for eid in short)


def _frontier_by_all_pairs(paths: PathSet) -> list[int]:
    """Oracle: the rows with no earlier attack of the same payoff whose
    edge sequence is an order-preserving subsequence of theirs, found by
    checking every earlier attack."""
    earlier: dict[float, list[tuple[str, ...]]] = {}
    frontier = []
    for i, (attack, pay) in enumerate(zip(paths.attacks, paths.payoffs)):
        peers = earlier.setdefault(float(pay), [])
        if not any(_is_subsequence(q, attack.path) for q in peers):
            frontier.append(i)
        peers.append(attack.path)
    return frontier


def _parallel_loops(pairs: int) -> System:
    """Parallel edges s -> a -> s, so the walk revisits s and a once per
    pair, with three rewarded leaves at s and one at a."""
    edges = [(f"f{i:03d}", "s", "a", 1.0) for i in range(pairs)]
    edges += [(f"g{i:03d}", "a", "s", 1.0) for i in range(pairs)]
    edges += [(f"l{j}", "s", f"x{j}", 1.0) for j in range(3)] + [("m", "a", "y", 1.0)]
    return System.build(edges=edges, rewards={"x0": 1.0, "x1": 2.0, "x2": 3.0, "y": 0.5})


def test_frontier_drops_exactly_the_dominated_attacks():
    systems = [fixture(name) for name in FIXTURES] + [_parallel_loops(2), _parallel_loops(3)]
    systems += [system for _, system in sample_systems(60, base_seed=7700, max_paths=300)]
    # ("a", "d") and ("a", "d", "e") pay what their prefixes pay, and
    # ("a", "d", "e", "c") what ("a", "c") pays: the closed walk cut out
    loop = System.build(
        edges=[("a", "s", "x", 1.0), ("c", "x", "y", 1.0), ("d", "x", "w", 1.0), ("e", "w", "x", 1.0)],
        rewards={"x": 1.0, "y": 2.0},
    )
    paths = PathSet.enumerate(loop)
    assert [paths.attacks[i].path for i in paths.frontier.rows] == [("a",), ("a", "c")]
    systems.append(loop)
    for system in systems:
        paths = PathSet.enumerate(system)
        rows = paths.frontier.rows
        assert rows.tolist() == _frontier_by_all_pairs(paths)
        assert paths.frontier.payoffs.tobytes() == paths.payoffs[rows].tobytes()


def test_frontier_of_the_baseline_system():
    # the benchmark's draw (seed 26)
    system = random_system(random.Random(26), max_extra_edges=30, max_vertices=10)
    paths = PathSet.enumerate(system)
    assert (len(paths.frontier.rows), len(paths.attacks)) == (573, 3727)
    assert paths.frontier.rows.tolist() == _frontier_by_all_pairs(paths)


def test_long_loop_reaches_the_limit_fast():
    # each attack carries at most one cut per earlier position, so the
    # walk does work in proportion to the paths it copies: about 0.4 s on a
    # 2-vCPU Xeon, where rescanning every closed sub-walk took 13 s
    began = time.perf_counter()
    with pytest.raises(EnumerationLimitError):
        PathSet.enumerate(_parallel_loops(200))
    assert time.perf_counter() - began < 5.0


def test_pathset_attacks_are_in_lexicographic_order():
    # best-response ties fall to the lowest index, so index order must be
    # edge-id sequence order; random_system ids e0..e29 sort as strings
    systems = [fixture(name) for name in FIXTURES]
    systems = [s for s in systems if isinstance(s, System)]
    # the benchmark's draw (seed 26: 20 edges, 3727 attacks) and its peers
    for seed in (7, 17, 23, 26, 44, 52):
        systems.append(
            random_system(random.Random(seed), max_extra_edges=30, max_vertices=10)
        )
    for system in systems:
        sequences = [a.path for a in PathSet.enumerate(system).attacks]
        assert sequences == sorted(sequences)


def test_allocation_vector_ignores_foreign_edges():
    system = fixture("fig2")
    paths = PathSet.enumerate(system)
    alloc = DefenseAllocation({"left": 1.0, "ghost": 2.0}, budget=10.0)
    vec = paths.allocation_vector(alloc)
    assert vec[paths.edge_index["left"]] == 1.0
    assert np.count_nonzero(vec) == 1
