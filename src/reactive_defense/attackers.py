"""Attacker policies: best responders, random walkers, replays, populations.

Policies see the full system and the defender's committed allocation each
round (worst-case knowledge), except the oblivious responder, which only
knows a fixed subset of edges.  Best responders rank the attacks of a
``paths.PathSet`` with ``paths.select_best_response``.  The policies that
enumerate attacks import ``paths``, and with it numpy, in ``start``: a
game without them never loads numpy.  A move is one ``Attack`` or a
population round, a non-empty tuple of attacks; ``round_attacks`` turns
either into the round's attacks.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any

from .model import OBJECTIVES, Attack, DefenseAllocation, Edge, System, restrict_edges

if TYPE_CHECKING:
    from .paths import PathSet


def round_attacks(move: Attack | Iterable[Attack]) -> tuple[Attack, ...]:
    """The attacks of one round's move: a lone ``Attack`` is a one-attack
    round; any other move is a population round, its attacks in order
    (with repeats), and must hold at least one."""
    if isinstance(move, Attack):
        return (move,)
    attacks = tuple(move)
    if not attacks:
        raise ValueError("a population round needs at least one attack")
    return attacks


def random_parallel_attack(system: System, rng: random.Random) -> Attack:
    """Single-edge attack drawn uniformly over a star of start-rooted edges."""
    return Attack((rng.choice(star_edges(system)).id,))


def star_edges(system: System) -> list[Edge]:
    """A star system's edges, all leaving the start vertex, sorted by id."""
    if not system.edges:
        raise ValueError("system has no edges")
    for e in system.edges:
        if e.src != system.start:
            raise ValueError(
                "random_parallel_attack requires every edge to leave the start vertex"
            )
    return sorted(system.edges, key=lambda e: e.id)


# ---------------------------------------------------------------------------
# engine-facing policies


class Attacker(ABC):
    """Per-game attacker driven by the engine.

    ``start`` receives the full system and the engine's seeded generator;
    ``attack`` sees the committed allocation and returns either a single
    ``Attack`` or a population round, a tuple of attacks (``round_attacks``).
    """

    @abstractmethod
    def start(self, system: System, rng: random.Random, horizon: int) -> None:
        """Reset for a fresh game."""

    @abstractmethod
    def attack(self, allocation: DefenseAllocation, round_index: int) -> Attack | tuple[Attack, ...]:
        """The round's move, chosen with full view of the allocation."""

    @abstractmethod
    def describe(self) -> dict[str, Any]:
        """JSON-able descriptor recorded in traces."""


class BestResponseAttacker(Attacker):
    """Plays an exact best response to every committed allocation."""

    def __init__(self, objective: str = "roa"):
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        self._objective = objective
        self._paths: PathSet | None = None

    def start(self, system: System, rng: random.Random, horizon: int) -> None:
        from .paths import PathSet, select_best_response

        self._paths = PathSet.enumerate(self._known(system))
        self._select = select_best_response

    def _known(self, system: System) -> System:
        """The part of ``system`` whose attacks the policy ranks."""
        return system

    def attack(self, allocation: DefenseAllocation, round_index: int) -> Attack:
        return self._select(self._paths, allocation, self._objective).attack

    def describe(self) -> dict[str, Any]:
        return {"policy": f"{self._objective}-best-response"}


class RandomPathAttacker(Attacker):
    """Uniform choice over all edge-simple attacks, independent per round."""

    _paths: PathSet | None = None
    _rng: random.Random | None = None

    def start(self, system: System, rng: random.Random, horizon: int) -> None:
        from .paths import PathSet

        self._paths = PathSet.enumerate(system)
        self._rng = rng

    def attack(self, allocation: DefenseAllocation, round_index: int) -> Attack:
        return self._rng.choice(self._paths.attacks)

    def describe(self) -> dict[str, Any]:
        return {"policy": "uniform-random-path"}


class FixedSequenceAttacker(Attacker):
    """Replays a predetermined move list; it must cover the horizon."""

    def __init__(self, moves: Sequence[Attack | Iterable[Attack]]):
        if not moves:
            raise ValueError("fixed sequence is empty")
        self._moves = tuple(map(round_attacks, moves))

    def start(self, system: System, rng: random.Random, horizon: int) -> None:
        if horizon > len(self._moves):
            raise ValueError(
                f"fixed sequence has {len(self._moves)} moves, game needs {horizon}"
            )

    def attack(self, allocation: DefenseAllocation, round_index: int) -> tuple[Attack, ...]:
        return self._moves[round_index - 1]

    def describe(self) -> dict[str, Any]:
        return {"policy": "fixed-sequence", "length": len(self._moves)}


class ObliviousAttacker(BestResponseAttacker):
    """Best responder that only knows a fixed subset of edges.

    Attacks stay inside the visible subgraph; with every edge visible the
    behavior matches the plain best responder.
    """

    def __init__(self, visible: Iterable[str], objective: str = "roa"):
        super().__init__(objective)
        self._visible = tuple(visible)

    def _known(self, system: System) -> System:
        return restrict_edges(system, self._visible)

    def describe(self) -> dict[str, Any]:
        return {
            "policy": f"oblivious-{self._objective}-best-response",
            "visible": sorted(self._visible),
        }


class MultiAttacker(Attacker):
    """Population round: every member policy contributes its attack."""

    def __init__(self, members: Sequence[Attacker]):
        if not members:
            raise ValueError("population needs at least one member")
        self._members = tuple(members)

    def start(self, system: System, rng: random.Random, horizon: int) -> None:
        # Members share the engine generator, so runs stay reproducible.
        for member in self._members:
            member.start(system, rng, horizon)

    def attack(self, allocation: DefenseAllocation, round_index: int) -> tuple[Attack, ...]:
        attacks: list[Attack] = []
        for member in self._members:
            attacks += round_attacks(member.attack(allocation, round_index))
        return tuple(attacks)

    def describe(self) -> dict[str, Any]:
        return {"policy": "multi", "members": [m.describe() for m in self._members]}
