"""Small systems with known-by-hand optima, used across tests and the CLI.

Registry names (``fig2``, ``fig3_n4``, ...) are the stable identifiers
accepted wherever a system file path is expected.
"""

from __future__ import annotations

from collections.abc import Callable

from .model import System


def layered_chain() -> System:
    """Two-layer chain ``s -> front -> db``: a cheap outer edge guards a
    hardened, high-value inner one.

    With budget 10 the even split (5, 5) holds every attack's
    payoff-to-cost ratio at 1; stacking the budget on either single edge
    concedes ratio 5 (deep attack) or an unbounded ratio (free outer edge).
    """
    return System.build(
        edges=[
            ("left", "s", "front", 5.0),
            ("right", "front", "db", 5.0 / 9.0),
        ],
        rewards={"front": 1.0, "db": 9.0},
        start="s",
        budget=10.0,
    )


def star(leaves: int = 4) -> System:
    """Star of unit-surface edges with all reward (10) on the first leaf.

    A defender spreading uniformly concedes ``leaves`` times the ratio of
    one that concentrates on the rewarded leaf.
    """
    if leaves < 1:
        raise ValueError(f"need at least one leaf, got {leaves}")
    width = len(str(leaves - 1))
    edges = []
    rewards = {}
    for i in range(leaves):
        leaf = f"v{i:0{width}d}"
        edges.append((f"b{i:0{width}d}", "s", leaf, 1.0))
        rewards[leaf] = 10.0 if i == 0 else 0.0
    return System.build(edges=edges, rewards=rewards, start="s", budget=1.0)


def two_objective_fork() -> System:
    """Fork separating the profit and ratio objectives.

    Budget 9 against leaf rewards 1 and 10: the profit-optimal defense
    stacks everything on the big leaf (profit 1 on both edges) while
    leaving the small edge free, so its payoff-to-cost ratio is infinite;
    the ratio-optimal defense splits 9:11 instead.
    """
    return System.build(
        edges=[
            ("left", "s", "lo", 1.0),
            ("right", "s", "hi", 1.0),
        ],
        rewards={"lo": 1.0, "hi": 10.0},
        start="s",
        budget=9.0,
    )


def two_parallel_edges() -> System:
    """Two unit-surface parallel routes to a single unit reward, budget 1."""
    return System.build(
        edges=[
            ("e1", "s", "r", 1.0),
            ("e2", "s", "r", 1.0),
        ],
        rewards={"r": 1.0},
        start="s",
        budget=1.0,
    )


FIXTURES: dict[str, Callable[[], System]] = {
    "fig2": layered_chain,
    "fig3_n2": lambda: star(leaves=2),
    "fig3_n4": lambda: star(leaves=4),
    "fig3_n8": lambda: star(leaves=8),
    "fig4": two_objective_fork,
    "appendix_b": two_parallel_edges,
}


def fixture(name: str) -> System:
    try:
        builder = FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}"
        ) from None
    return builder()
