"""Attack enumeration and the precomputed path set."""

from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import sample_systems
from reactive_defense import fixture
from reactive_defense.fixtures import FIXTURES
from reactive_defense.model import Attack, DefenseAllocation, System, cost, payoff
from reactive_defense.paths import (
    DEFAULT_ENUMERATION_LIMIT,
    EnumerationLimitError,
    PathSet,
    enumerate_attacks,
)


def test_enumeration_order_prefixes_first():
    system = System.build(
        edges=[
            ("a", "s", "m", 1.0),
            ("b", "s", "m", 1.0),
            ("c", "m", "t", 1.0),
        ]
    )
    attacks = [a.path for a in enumerate_attacks(system)]
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
        assert enumerate_attacks(system) == expected
        # the cap admits exactly the count and rejects one fewer
        assert enumerate_attacks(system, limit=len(expected)) == expected
        if len(expected) > 1:
            with pytest.raises(EnumerationLimitError):
                enumerate_attacks(system, limit=len(expected) - 1)


def test_enumeration_handles_vertex_revisits():
    system = System.build(
        edges=[("out", "s", "a", 1.0), ("back", "a", "s", 1.0)]
    )
    attacks = [a.path for a in enumerate_attacks(system)]
    assert ("out", "back") in attacks
    # the returning walk cannot reuse "out"
    assert all(len(set(p)) == len(p) for p in attacks)


def test_enumeration_limit():
    system = fixture("fig3_n8")
    assert len(enumerate_attacks(system)) == 8
    with pytest.raises(EnumerationLimitError) as err:
        enumerate_attacks(system, limit=3)
    assert err.value.limit == 3
    with pytest.raises(ValueError):
        enumerate_attacks(system, limit=0)
    assert DEFAULT_ENUMERATION_LIMIT == 10_000


def test_empty_start_has_no_attacks():
    system = System.build(edges=[("e", "a", "b", 1.0)], start="s", rewards={})
    assert enumerate_attacks(system) == []
    with pytest.raises(ValueError, match="no attacks"):
        PathSet.enumerate(system)


def test_pathset_matches_scalar_functionals():
    for seed, system in sample_systems(8, base_seed=7100, max_paths=300):
        paths = PathSet.enumerate(system)
        rng = random.Random(seed)
        amounts = {
            e.id: rng.random() * system.budget / len(system.edges)
            for e in system.edges
        }
        alloc = DefenseAllocation(amounts, system.budget)
        costs = paths.costs(alloc)
        for i, attack in enumerate(paths.attacks):
            assert paths.payoffs[i] == payoff(system, attack)
            assert costs[i] == pytest.approx(cost(system, attack, alloc), rel=1e-12)


def test_pathset_lex_rank_orders_paths():
    system = fixture("fig2")
    paths = PathSet.enumerate(system)
    ranked = sorted(range(len(paths.attacks)), key=lambda i: paths.lex_rank[i])
    sequences = [paths.attacks[i].path for i in ranked]
    assert sequences == sorted(sequences)


def test_allocation_vector_ignores_foreign_edges():
    system = fixture("fig2")
    paths = PathSet.enumerate(system)
    alloc = DefenseAllocation({"left": 1.0, "ghost": 2.0}, budget=10.0)
    vec = paths.allocation_vector(alloc)
    assert vec[paths.edge_index["left"]] == 1.0
    assert np.count_nonzero(vec) == 1
