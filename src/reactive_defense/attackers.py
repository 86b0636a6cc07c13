"""Attacker policies: best responders, random walkers, replays, populations.

Policies see the full system and the defender's committed allocation each
round (worst-case knowledge), except the oblivious wrapper, which only
knows a fixed subset of edges.  Best responses are deterministic: ties in
the objective fall to the cheaper attack, then to the lexicographically
smallest edge-id sequence, and zero-cost positive-payoff attacks dominate
every finite-ratio one.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .model import Attack, DefenseAllocation, System, restrict_edges
from .paths import PathSet

OBJECTIVES = ("roa", "profit")


@dataclass(frozen=True)
class MultiAttackRound:
    """One round's attacks from a population of attackers (with repeats)."""

    attacks: tuple[Attack, ...]

    def __post_init__(self):
        object.__setattr__(self, "attacks", tuple(self.attacks))
        if not self.attacks:
            raise ValueError("a population round needs at least one attack")


def aggregate_multi_attack(round_: MultiAttackRound) -> dict[str, float]:
    """Edge distribution of an attack population.

    Every attack contributes one count to each edge it uses; masses are
    counts normalized by the total, so they sum to one.
    """
    counts: dict[str, float] = {}
    for attack in round_.attacks:
        for eid in attack.path:
            counts[eid] = counts.get(eid, 0.0) + 1.0
    total = sum(counts.values())
    if total == 0:
        raise ValueError("round contained no attacked edges")
    return {eid: c / total for eid, c in counts.items()}


@dataclass(frozen=True)
class BestResponse:
    """Selected attack with its objective value.

    ``undefined`` marks the return-on-attack corner where no attack has
    positive payoff: the maximum-payoff attack is returned and the ratio
    carries the undefined marker.
    """

    attack: Attack
    value: float
    undefined: bool = False


def best_response(
    system: System, allocation: DefenseAllocation, objective: str = "roa"
) -> BestResponse:
    """Exact best response by enumeration of all edge-simple attacks."""
    return select_best_response(PathSet.enumerate(system), allocation, objective)


def select_best_response(
    pathset: PathSet, allocation: DefenseAllocation, objective: str
) -> BestResponse:
    """Pick the best enumerated attack under the deterministic tie order."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    costs = pathset.costs(allocation)
    pays = pathset.payoffs
    if objective == "profit":
        values = pays - costs
        i = int(np.lexsort((pathset.lex_rank, costs, -values))[0])
        return BestResponse(pathset.attacks[i], float(values[i]))
    free = (pays > 0) & (costs == 0.0)
    finite = np.divide(pays, costs, out=np.zeros_like(pays), where=costs > 0)
    i = int(np.lexsort((pathset.lex_rank, costs, -finite, ~free))[0])
    if pays[i] > 0:
        value = math.inf if free[i] else float(finite[i])
        return BestResponse(pathset.attacks[i], value)
    # Nothing has positive payoff; fall back to a maximum-payoff attack
    # (all zero here) and flag the ratio as undefined.
    i = int(np.lexsort((pathset.lex_rank, costs, -pays))[0])
    return BestResponse(pathset.attacks[i], math.nan, undefined=True)


def random_parallel_attack(system: System, rng: random.Random) -> Attack:
    """Single-edge attack drawn uniformly over a star of start-rooted edges."""
    if not system.edges:
        raise ValueError("system has no edges")
    for e in system.edges:
        if e.src != system.start:
            raise ValueError(
                "random_parallel_attack requires every edge to leave the start vertex"
            )
    edges = sorted(system.edges, key=lambda e: e.id)
    return Attack((rng.choice(edges).id,))


# ---------------------------------------------------------------------------
# engine-facing policies


class Attacker(ABC):
    """Per-game attacker driven by the engine.

    ``start`` receives the full system and the engine's seeded generator;
    ``attack`` sees the committed allocation and returns either a single
    ``Attack`` or a ``MultiAttackRound``.
    """

    @abstractmethod
    def start(self, system: System, rng: random.Random, horizon: int) -> None:
        """Reset for a fresh game."""

    @abstractmethod
    def attack(self, allocation: DefenseAllocation, round_index: int) -> Attack | MultiAttackRound:
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
        self._paths = PathSet.enumerate(system)

    def attack(self, allocation: DefenseAllocation, round_index: int) -> Attack:
        return select_best_response(self._paths, allocation, self._objective).attack

    def describe(self) -> dict[str, Any]:
        return {"policy": f"{self._objective}-best-response"}


class RandomPathAttacker(Attacker):
    """Uniform choice over all edge-simple attacks, independent per round."""

    _paths: PathSet | None = None
    _rng: random.Random | None = None

    def start(self, system: System, rng: random.Random, horizon: int) -> None:
        self._paths = PathSet.enumerate(system)
        self._rng = rng

    def attack(self, allocation: DefenseAllocation, round_index: int) -> Attack:
        return self._rng.choice(self._paths.attacks)

    def describe(self) -> dict[str, Any]:
        return {"policy": "uniform-random-path"}


class FixedSequenceAttacker(Attacker):
    """Replays a predetermined move list; it must cover the horizon."""

    def __init__(self, moves: Sequence[Attack | MultiAttackRound]):
        if not moves:
            raise ValueError("fixed sequence is empty")
        self._moves = tuple(moves)

    @classmethod
    def from_trace_csv(cls, path) -> "FixedSequenceAttacker":
        """Replay the attack column of a recorded trace."""
        from .io import load_attack_sequence

        return cls(load_attack_sequence(path))

    def start(self, system: System, rng: random.Random, horizon: int) -> None:
        if horizon > len(self._moves):
            raise ValueError(
                f"fixed sequence has {len(self._moves)} moves, game needs {horizon}"
            )

    def attack(self, allocation: DefenseAllocation, round_index: int) -> Attack | MultiAttackRound:
        return self._moves[round_index - 1]

    def describe(self) -> dict[str, Any]:
        return {"policy": "fixed-sequence", "length": len(self._moves)}


class ObliviousAttacker(Attacker):
    """Best responder that only knows a fixed subset of edges.

    Attacks stay inside the visible subgraph; with every edge visible the
    behavior matches the plain best responder.
    """

    def __init__(self, visible: Iterable[str], objective: str = "roa"):
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        self._visible = tuple(visible)
        self._objective = objective
        self._paths: PathSet | None = None

    def start(self, system: System, rng: random.Random, horizon: int) -> None:
        self._paths = PathSet.enumerate(restrict_edges(system, self._visible))

    def attack(self, allocation: DefenseAllocation, round_index: int) -> Attack:
        return select_best_response(self._paths, allocation, self._objective).attack

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

    def attack(self, allocation: DefenseAllocation, round_index: int) -> MultiAttackRound:
        moves: list[Attack] = []
        for member in self._members:
            move = member.attack(allocation, round_index)
            if isinstance(move, MultiAttackRound):
                moves.extend(move.attacks)
            else:
                moves.append(move)
        return MultiAttackRound(tuple(moves))

    def describe(self) -> dict[str, Any]:
        return {"policy": "multi", "members": [m.describe() for m in self._members]}
