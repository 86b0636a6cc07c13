"""Round-based game engine enforcing the information protocol.

Each round the defender commits an allocation first, knowing only prior
attacks; the attacker then moves with full view of that allocation; the
attack's edges (with surfaces) are revealed back to the defender and the
round is recorded.  Reactive defenders never see the system itself: they
start knowing only the start vertex and the budget, learn edges from each
round's feedback, and the engine rejects any reactive allocation that
strays outside the revealed set.

Each distinct attack path is validated and its payoff computed the first
time it is played in a game; later rounds look the payoff up in a
per-game dict keyed by path and only price the attack under the round's
allocation.  An invalid path is never stored, so it is rejected whenever
it is played.

Traces are reproducible bit-for-bit from (system, policies, rounds, seed)
on one BLAS kernel.  Best responses price every path with one
matrix-vector product (``PathSet.costs``), whose rounding depends on the
kernel OpenBLAS picks for the CPU and on the path's row, so a near-tie
between attacks can break differently on another machine.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from .attackers import Attacker, MultiAttackRound
from .defenders import Defender
from .model import (
    Attack,
    DefenseAllocation,
    System,
    SystemView,
    _cost,
    ensure_valid_system,
    payoff,
    validate_attack,
)


class ReactiveContractError(RuntimeError):
    """A reactive defender allocated budget to an unrevealed edge."""


def round_edge_usage(attacks: Sequence[Attack]) -> dict[str, float]:
    """Per-edge usage of one round: attacks through the edge over attacks.

    The learner is fed it and the hindsight optimum is charged with it.
    """
    counts: dict[str, int] = {}
    for attack in attacks:
        for eid in attack.path:
            counts[eid] = counts.get(eid, 0) + 1
    return {eid: count / len(attacks) for eid, count in counts.items()}


@dataclass(frozen=True)
class RoundFeedback:
    """What the defender learns after a round; ``edge_weights`` is the
    round's ``round_edge_usage``."""

    round_index: int
    attacks: tuple[Attack, ...]
    surfaces: Mapping[str, float]
    edge_weights: Mapping[str, float]


@dataclass(frozen=True)
class RoundRecord:
    """One played round: the committed allocation, the attacks, and
    the logged cost/payoff (per-attacker means on population rounds)."""

    round_index: int
    allocation: DefenseAllocation
    attacks: tuple[Attack, ...]
    cost: float
    payoff: float
    newly_revealed: tuple[str, ...]
    beta: float | None


@dataclass(frozen=True)
class GameTrace:
    system: System
    records: tuple[RoundRecord, ...]
    defender: Mapping[str, Any]
    attacker: Mapping[str, Any]
    seed: int

    @property
    def rounds(self) -> int:
        return len(self.records)

    def costs(self) -> list[float]:
        return [r.cost for r in self.records]

    def payoffs(self) -> list[float]:
        return [r.payoff for r in self.records]

    def edge_usage(self) -> dict[str, float]:
        """Per-edge attack weight over the whole game (per-attacker means
        on population rounds), as consumed by hindsight analysis."""
        usage: dict[str, float] = {}
        for record in self.records:
            for eid, weight in round_edge_usage(record.attacks).items():
                usage[eid] = usage.get(eid, 0.0) + weight
        return usage


def run_game(
    system: System,
    defender: Defender,
    attacker: Attacker,
    rounds: int,
    seed: int = 0,
) -> GameTrace:
    """Play a repeated game and record every round.

    The defender commits strictly before the attacker moves and receives
    no attack information for the current round; randomness flows only
    through the seeded generator handed to the attacker.
    """
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")
    ensure_valid_system(system)
    rng = random.Random(seed)
    revealed: dict[str, None] = {}
    defender.start(
        SystemView(system.start, system.budget) if defender.reactive else system,
        rounds,
    )
    attacker.start(system, rng, rounds)
    records: list[RoundRecord] = []
    payoffs: dict[tuple[str, ...], float] = {}
    for t in range(1, rounds + 1):
        allocation = defender.commit(t)
        beta = defender.last_beta
        if defender.reactive:
            stray = [eid for eid in allocation.support() if eid not in revealed]
            if stray:
                raise ReactiveContractError(
                    f"round {t}: reactive allocation on unrevealed edges {stray}"
                )
        move = attacker.attack(allocation, t)
        attacks = move.attacks if isinstance(move, MultiAttackRound) else (move,)
        for a in attacks:
            if a.path not in payoffs:
                validate_attack(system, a, require_nonempty=True)
                payoffs[a.path] = payoff(system, a)
        newly: list[str] = []
        surfaces: dict[str, float] = {}
        for a in attacks:
            for eid in a.path:
                if eid not in revealed:
                    revealed[eid] = None
                    newly.append(eid)
                if eid not in surfaces:
                    surfaces[eid] = system.surface(eid)
        round_costs = [_cost(system, a, allocation) for a in attacks]
        round_payoffs = [payoffs[a.path] for a in attacks]
        feedback = RoundFeedback(
            round_index=t,
            attacks=attacks,
            surfaces=surfaces,
            edge_weights=round_edge_usage(attacks),
        )
        defender.observe(feedback)
        records.append(
            RoundRecord(
                round_index=t,
                allocation=allocation,
                attacks=attacks,
                cost=sum(round_costs) / len(round_costs),
                payoff=sum(round_payoffs) / len(round_payoffs),
                newly_revealed=tuple(newly),
                beta=beta,
            )
        )
    return GameTrace(
        system=system,
        records=tuple(records),
        defender=dict(defender.describe()),
        attacker=dict(attacker.describe()),
        seed=seed,
    )
