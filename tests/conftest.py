"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import random

from reactive_defense.defenders import FixedDefender, uniform_defense
from reactive_defense.generators import random_system
from reactive_defense.model import Attack, DefenseAllocation, System, ordered_sum
from reactive_defense.paths import (
    BestResponse,
    EnumerationLimitError,
    PathSet,
    select_best_response,
)


def sample_systems(
    count: int, base_seed: int = 0, max_paths: int = 500, **kwargs
) -> list[tuple[int, System]]:
    """Deterministic stream of random systems with a bounded attack count.

    Seeds are consumed in order and oversized systems skipped, so the
    returned list is reproducible for a given signature.
    """
    out: list[tuple[int, System]] = []
    seed = base_seed
    attempts = 0
    while len(out) < count:
        seed += 1
        attempts += 1
        assert attempts < 200 * count, "generator keeps producing oversized systems"
        system = random_system(random.Random(seed), **kwargs)
        try:
            PathSet.enumerate(system, limit=max_paths)
        except EnumerationLimitError:
            continue
        out.append((seed, system))
    return out


def random_attack(
    system: System, rng: random.Random, max_length: int = 12
) -> Attack | None:
    """Draw a random edge-simple walk from the start, or None if no edge
    leaves it.

    Walks extend through unused out-edges of the current vertex and stop
    early with probability 1/4 per step, so short and long attacks both
    appear.
    """
    current = system.start
    used: set[str] = set()
    path: list[str] = []
    for _ in range(max_length):
        options = [e for e in system.out_edges(current) if e.id not in used]
        if not options:
            break
        edge = rng.choice(options)
        path.append(edge.id)
        used.add(edge.id)
        current = edge.dst
        if rng.random() < 0.25:
            break
    if not path:
        return None
    return Attack(tuple(path))


def best_response(
    system: System, allocation: DefenseAllocation, objective: str = "roa"
) -> BestResponse:
    """Exact best response by enumeration of all edge-simple attacks."""
    return select_best_response(PathSet.enumerate(system), allocation, objective)


def attack_sequence(system: System, rng: random.Random, length: int) -> list[Attack]:
    """Random non-empty attacks; start-edge fallback keeps the draw total."""
    out: list[Attack] = []
    fallback = Attack((system.start_edges()[0].id,))
    while len(out) < length:
        attack = random_attack(system, rng)
        out.append(attack if attack is not None else fallback)
    return out


def uniform_defender(system: System) -> FixedDefender:
    """The fixed budget / |E| allocation, as the ``uniform`` spec builds it."""
    return FixedDefender(uniform_defense(system), {"policy": "uniform"})


def brute_force_worst_case(system: System, objective: str, amounts: dict[str, float]) -> float:
    """The attacker's best objective ("roa" or "profit", floored at 0)
    against the allocation ``amounts``, attack by attack."""
    worst = 0.0
    pathset = PathSet.enumerate(system)
    for attack, pay in zip(pathset.attacks, pathset.payoffs):
        c = ordered_sum(amounts.get(eid, 0.0) / system.surface(eid) for eid in attack.path)
        if objective == "profit":
            worst = max(worst, float(pay) - c)
        elif pay > 0:
            worst = max(worst, math.inf if c == 0 else float(pay) / c)
    return worst
