"""Empirical verification of the defender's guarantees.

Two ceilings are checked against played traces: the average-profit regret
of the reactive defender relative to the hindsight-best fixed allocation,
and the ratio of cumulative attacker return under the best fixed
allocation to the return actually conceded.  Both reduce to cost
comparisons because attack payoffs do not depend on the defense, and both
take the hindsight optimum from ``defenders.hindsight_from_usage`` over
the trace's per-round ``engine.round_edge_usage`` totals.  A
Monte Carlo experiment on two parallel routes estimates the matching
regret floor, and ``game_value`` gives the closed-form single-round
guarantee with its witness allocation.
"""

from __future__ import annotations

import math
import random
import warnings
from collections.abc import Mapping
from typing import NamedTuple

from .attackers import star_edges
from .defenders import (
    HedgeLearner,
    hindsight_from_usage,
    proportional_defense,
    reactive_hidden_step,
)
from .engine import GameTrace
from .fixtures import two_parallel_edges
from .model import DefenseAllocation, System, ordered_sum

# Reported ceilings tolerate this much measurement slack.
BOUND_SLACK = 1e-9


class BoundReport(NamedTuple):
    """A measured quantity against its guaranteed ceiling.

    ``satisfied`` means measured <= bound_rhs + BOUND_SLACK.  ``undefined``
    marks a ratio whose denominator was zero; such a report is never
    satisfied.  ``inputs`` echoes the parameters the ceiling was computed
    from.  The fields are in the order ``bounds.json`` writes them.
    """

    name: str
    measured: float
    bound_rhs: float
    satisfied: bool
    undefined: bool
    inputs: Mapping[str, float]


def _report(
    name: str,
    measured: float,
    bound_rhs: float,
    inputs: Mapping[str, float],
    undefined: bool = False,
) -> BoundReport:
    satisfied = (not undefined) and measured <= bound_rhs + BOUND_SLACK
    return BoundReport(name, measured, bound_rhs, satisfied, undefined, dict(inputs))


def _warn_on_small_surfaces(system: System) -> None:
    small = [e.id for e in system.edges if e.surface < 1.0]
    if small:
        warnings.warn(
            f"ceilings assume surfaces of at least 1; edges {small} are smaller, "
            "so the measured value may exceed the reported ceiling",
            RuntimeWarning,
            stacklevel=4,
        )


def _hindsight_score(trace: GameTrace) -> tuple[float, float, dict[str, float]]:
    """Total costs of the hindsight-best fixed allocation and of the played
    ones, with the inputs every ceiling echoes.  The sub-unit surface
    warning names the caller of ``profit_regret`` or ``roa_ratio``."""
    system = trace.system
    _warn_on_small_surfaces(system)
    _, best_cost = hindsight_from_usage(system, trace.edge_usage())
    inputs = {"budget": system.budget, "num_edges": len(system.edges), "rounds": trace.rounds}
    return best_cost, ordered_sum(trace.costs()), inputs


def _mean(values: list[float]) -> float:
    """Mean of ``values``: their correctly rounded sum over their count,
    as ``fmean`` computes it."""
    return math.fsum(values) / len(values)


def _regret_ceiling(
    budget: float, log_edges: float, mean_inverse_surface: float, rounds: int
) -> float:
    """B sqrt(ln|E| / 2T) + B (ln|E| + mean(1/w)) / T."""
    return budget * math.sqrt(log_edges / (2.0 * rounds)) + budget * (
        log_edges + mean_inverse_surface
    ) / rounds


def profit_regret(trace: GameTrace) -> BoundReport:
    """Average-profit regret of a reactive trace, with its ceiling.

    Regret compares mean attacker profit under the played allocations with
    mean profit under the single fixed allocation that inflicts the most
    total cost in hindsight; payoffs cancel, leaving a cost difference
    over T.  The ceiling B sqrt(ln|E| / 2T) + B (ln|E| + mean(1/w)) / T
    holds for the round-adaptive reactive defender on any attack sequence.
    """
    if trace.defender.get("policy") != "reactive-hidden":
        raise ValueError(
            "the regret ceiling applies to the reactive-hidden defender; "
            f"this trace was played by {trace.defender.get('policy')!r}"
        )
    best_cost, played_cost, inputs = _hindsight_score(trace)
    system, t = trace.system, trace.rounds
    mean_inverse_surface = _mean([1.0 / e.surface for e in system.edges])
    inputs["mean_inverse_surface"] = mean_inverse_surface
    log_edges = math.log(len(system.edges))
    bound_rhs = _regret_ceiling(system.budget, log_edges, mean_inverse_surface, t)
    return _report("profit-regret", (best_cost - played_cost) / t, bound_rhs, inputs)


def roa_ratio(trace: GameTrace, alpha: float) -> BoundReport:
    """Best-fixed over played cumulative cost, against the ceiling 1 + alpha.

    Cumulative return on attack is total payoff over total cost and the
    payoffs cancel between numerator and denominator, so the ratio of the
    best fixed allocation's cumulative return to the trace's is exactly
    this cost ratio.  Any defender's trace is accepted; the ceiling is
    guaranteed for the round-adaptive reactive defender once the game
    reaches ``roa_threshold_rounds``.  A zero played cost has no defined
    ratio and reports as violated with the undefined flag.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    best_cost, played_cost, inputs = _hindsight_score(trace)
    inputs["alpha"] = alpha
    inputs["perimeter_surface"] = ordered_sum(e.surface for e in trace.system.start_edges())
    if played_cost == 0:
        return _report("roa-ratio", math.nan, 1.0 + alpha, inputs, undefined=True)
    return _report("roa-ratio", best_cost / played_cost, 1.0 + alpha, inputs)


def roa_threshold_rounds(system: System, alpha: float) -> int:
    """Game length after which the cumulative-return ratio ceiling holds.

    ceil((13/sqrt(2) * (1 + 1/alpha) * W)^2 * ln|E|), with W the total
    surface leaving the start vertex.  Needs more than one edge; with a
    single edge the ratio question is vacuous.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    num_edges = len(system.edges)
    if num_edges <= 1:
        raise ValueError("the threshold needs a system with at least two edges")
    perimeter = ordered_sum(e.surface for e in system.start_edges())
    if perimeter <= 0:
        raise ValueError("no edges leave the start vertex")
    scale = (13.0 / math.sqrt(2.0)) * (1.0 + 1.0 / alpha) * perimeter
    if (rounds := scale * scale * math.log(num_edges)) == math.inf:
        raise ValueError(f"threshold overflows a float for alpha {alpha}, perimeter {perimeter}")
    return math.ceil(rounds)


class GameValue(NamedTuple):
    """Guaranteed single-round cost with its witness allocation."""

    value: float
    allocation: DefenseAllocation


def game_value(system: System) -> GameValue:
    """Closed-form value of the single-round cost game.

    Spreading the budget over the start vertex's edges proportionally to
    surface charges every non-empty attack at least budget / W, W being
    the total surface leaving the start; no fixed allocation guarantees
    more, since an attacker can always take the cheapest start edge.
    """
    perimeter = system.start_edges()
    if not perimeter:
        raise ValueError("no edges leave the start vertex")
    surfaces = {e.id: e.surface for e in perimeter}
    allocation = proportional_defense(system.budget, surfaces)
    return GameValue(system.budget / ordered_sum(surfaces.values()), allocation)


class GapStatistics(NamedTuple):
    """Hindsight-minus-played cost gap on the two-route system."""

    rounds: int
    num_seeds: int
    mean_played_cost: float
    mean_hindsight_cost: float
    mean_gap: float
    gap_per_sqrt_rounds: float


def lower_bound_experiment(
    rounds: int, num_seeds: int, base_seed: int = 0
) -> GapStatistics:
    """Monte Carlo estimate of the unavoidable regret on two parallel routes.

    Each seed plays a uniform random single-edge attacker against the
    reactive defender on two unit-surface edges with unit budget.  Any
    allocation that spends the whole budget pays 1/2 per round in
    expectation while hindsight concentrates on the busier edge, so the
    mean gap grows like sqrt(rounds / 2 pi); the normalized
    ``gap_per_sqrt_rounds`` estimates that constant, about 0.399.
    """
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")
    if num_seeds < 1:
        raise ValueError(f"need at least one seed, got {num_seeds}")
    system = two_parallel_edges()
    # random_parallel_attack's draws; the learner keeps neither round map
    draws = [(e.id, e.surface, {e.id: 1.0}, {e.id: e.surface}) for e in star_edges(system)]
    played_costs: list[float] = []
    hindsight_costs: list[float] = []
    for k in range(num_seeds):
        rng = random.Random(base_seed + k)
        learner = HedgeLearner(system.budget)
        shares: list[float] = []
        usage: dict[str, float] = {}
        total_cost = 0.0
        for _ in range(rounds):
            eid, w, hits, surfaces = rng.choice(draws)
            # priced from the shares committed before; unrevealed is undefended
            position = learner.index.get(eid)
            if position is not None:
                total_cost += shares[position] / w
            usage[eid] = usage.get(eid, 0.0) + 1.0
            shares = reactive_hidden_step(learner, hits, surfaces)
        _, best_cost = hindsight_from_usage(system, usage)
        played_costs.append(total_cost)
        hindsight_costs.append(best_cost)
    mean_played = _mean(played_costs)
    mean_hindsight = _mean(hindsight_costs)
    mean_gap = _mean([h - p for h, p in zip(hindsight_costs, played_costs)])
    return GapStatistics(
        rounds=rounds,
        num_seeds=num_seeds,
        mean_played_cost=mean_played,
        mean_hindsight_cost=mean_hindsight,
        mean_gap=mean_gap,
        gap_per_sqrt_rounds=mean_gap / math.sqrt(rounds),
    )


def exact_two_edge_gap(rounds: int) -> float:
    """Exact expected gap on two parallel routes for an exactly
    budget-exhausting defender.

    Against the uniform random attacker any allocation that always spends
    the whole unit budget pays exactly 1/2 per round, so the gap is
    max(N1, N2) - rounds/2 with (N1, N2) the edge counts.  Summing over
    the count of first-edge picks enumerates all 2^rounds attack
    sequences exactly; two rounds give 0.5.
    """
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")
    if rounds > 30:
        raise ValueError("exhaustive enumeration is limited to 30 rounds")
    total = 0
    for first_edge_picks in range(rounds + 1):
        total += math.comb(rounds, first_edge_picks) * max(
            first_edge_picks, rounds - first_edge_picks
        )
    return total / 2.0**rounds - rounds / 2.0
