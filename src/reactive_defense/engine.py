"""Round-based game engine enforcing the information protocol.

Each round the defender commits an allocation first, knowing only prior
attacks; the attacker then moves with full view of that allocation; the
attack's edges (with surfaces) are revealed back to the defender and the
round is recorded.  A round's attacks are a tuple: one attack, or a
population round of several (``attackers.round_attacks``).  Reactive
defenders never see the system itself: they start knowing only the start
vertex and the budget, learn edges from each round's feedback, and the
engine rejects any reactive allocation that strays outside the revealed
set.

Each distinct attack path gets one per-game entry the first time it is
played: the path is validated, and the entry holds its payoff and its
``(edge id, surface)`` pairs.  Later rounds read the payoff and the
surfaces from the entry and price the attack with ``model.steps_cost``,
the rule ``model.cost`` applies.  An invalid path is never stored, so it
is rejected whenever it is played.  ``RoundRecord`` and ``RoundFeedback``
are named tuples: immutable, and cheap to build once a round.

Traces are reproducible bit-for-bit from (system, policies, rounds,
seed): best responses price attacks as ``model.cost`` does, one
left-to-right sum per path with no BLAS call, and the logged cost is the
price the attacker saw.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from typing import Any, NamedTuple

from .attackers import Attacker, round_attacks
from .defenders import Defender
from .model import (
    Attack,
    DefenseAllocation,
    InvalidAttackError,
    System,
    SystemView,
    ensure_valid_system,
    payoff,
    steps_cost,
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


class RoundFeedback(NamedTuple):
    """What the defender learns after a round; ``edge_weights`` is the
    round's ``round_edge_usage``."""

    round_index: int
    attacks: tuple[Attack, ...]
    surfaces: Mapping[str, float]
    edge_weights: Mapping[str, float]


class RoundRecord(NamedTuple):
    """One played round: the committed allocation, the attacks, and
    the logged cost/payoff (per-attacker means on population rounds,
    summed left to right as ``model.ordered_sum`` does)."""

    round_index: int
    allocation: DefenseAllocation
    attacks: tuple[Attack, ...]
    cost: float
    payoff: float
    newly_revealed: tuple[str, ...]
    beta: float | None


class GameTrace(NamedTuple):
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
    entries: dict[tuple[str, ...], tuple[float, tuple[tuple[str, float], ...]]] = {}
    for t in range(1, rounds + 1):
        allocation = defender.commit(t)
        beta = defender.last_beta
        amounts = allocation.alloc
        if defender.reactive and not amounts.keys() <= revealed.keys():
            # zero amounts on unrevealed edges are legal
            stray = [eid for eid in allocation.support() if eid not in revealed]
            if stray:
                raise ReactiveContractError(
                    f"round {t}: reactive allocation on unrevealed edges {stray}"
                )
        attacks = round_attacks(attacker.attack(allocation, t))
        newly: list[str] = []
        surfaces: dict[str, float] = {}
        total_cost = total_payoff = 0.0
        for a in attacks:
            entry = entries.get(a.path)
            if entry is None:
                entry = entries[a.path] = _path_entry(system, a)
            pay, steps = entry
            for eid in a.path:
                if eid not in revealed:
                    revealed[eid] = None
                    newly.append(eid)
            surfaces.update(steps)
            total_cost += steps_cost(amounts, steps)
            total_payoff += pay
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
                cost=total_cost / len(attacks),
                payoff=total_payoff / len(attacks),
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


def _path_entry(
    system: System, attack: Attack
) -> tuple[float, tuple[tuple[str, float], ...]]:
    """Validate a played path; return its payoff and (edge id, surface) pairs."""
    if not attack.path:
        raise InvalidAttackError("attack path is empty")
    return payoff(system, attack), tuple((eid, system.surface(eid)) for eid in attack.path)
