"""Defender strategies for repeated attack-defense games.

One mutable multiplicative-weights (Hedge) learner forms the core
(Freund and Schapire 1997): ``HedgeLearner`` keeps an edge domain in
reveal order and splits the budget B as ``B * softmax(score * ln beta)``;
``reactive_hidden_step`` feeds it a round, lowering each attacked edge's
score by its weight over the edge's surface.  The reactive defender
starts it with an empty domain that attacks grow, at an annealed rate;
the known-edges defender starts it with every edge, at a fixed rate.

Proactive alternatives live alongside it: minimum-cut perimeter defense,
minimax allocations for the return-on-attack and profit objectives, the
hindsight-optimal fixed allocation, and the uniform and myopic baselines.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from .model import DefenseAllocation, System, SystemView, zero_allocation
from .paths import DEFAULT_ENUMERATION_LIMIT, PathSet


def beta_schedule(num_units: int, round_index: int) -> float:
    """Annealed learning rate: 1 / (1 + sqrt(2 ln(n) / (round + 1))).

    ``num_units`` counts the attackable units known after the round's
    reveals.  A single known unit gives 1 (no discrimination to learn).
    """
    if num_units < 1:
        raise ValueError(f"need at least one unit, got {num_units}")
    if round_index < 1:
        raise ValueError(f"round index starts at 1, got {round_index}")
    return _annealed_beta(math.log(num_units), round_index)


def _annealed_beta(log_units: float, round_index: int) -> float:
    return 1.0 / (1.0 + math.sqrt(2.0 * log_units / (round_index + 1.0)))


def horizon_beta(num_units: int, horizon: int) -> float:
    """Fixed learning rate for a known horizon: 1 / (1 + sqrt(2 ln(n) / T))."""
    if num_units < 1:
        raise ValueError(f"need at least one unit, got {num_units}")
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return 1.0 / (1.0 + math.sqrt(2.0 * math.log(num_units) / horizon))


# ---------------------------------------------------------------------------
# Hedge learner core


class HedgeLearner:
    """Mutable Hedge state.  ``index`` maps the domain's edge ids, in
    reveal order, to positions in ``surfaces`` and ``scores`` (cumulative
    exponents, 0 on reveal); ``fixed_beta`` pins the rate, and None
    anneals it with ``beta_schedule`` over the domain size."""

    def __init__(
        self,
        budget: float,
        surfaces: Mapping[str, float] | None = None,
        fixed_beta: float | None = None,
    ):
        self.budget = budget
        self.fixed_beta = fixed_beta
        self.index: dict[str, int] = {}
        self.surfaces: list[float] = []
        self.scores: list[float] = []
        self.round_index = 0
        self._log_size = 0.0
        self._reveal(surfaces or {})

    def _reveal(self, surfaces: Mapping[str, float]) -> None:
        # Callers pass only edges that are new to the domain.
        for eid, w in surfaces.items():
            self.index[eid] = len(self.scores)
            self.surfaces.append(w)
            self.scores.append(0.0)
        if self.scores:
            self._log_size = math.log(len(self.scores))

    @property
    def beta(self) -> float | None:
        """Rate behind the current shares; None while an annealed
        learner has an empty domain."""
        if self.fixed_beta is not None:
            return self.fixed_beta
        if not self.scores:
            return None
        return _annealed_beta(self._log_size, max(self.round_index, 1))

    def update(self, column: Mapping[str, float]) -> None:
        """Add any real per-edge column over the domain to the scores and
        advance the round."""
        for eid in column:
            if eid not in self.index:
                raise KeyError(f"update names unknown edge {eid!r}")
        for eid, value in column.items():
            self.scores[self.index[eid]] += value
        self.round_index += 1

    def shares(self) -> list[float]:
        """Budget over the domain in domain order, proportional to
        ``beta ** score`` (empty on an empty domain); factoring out the
        largest exponent avoids overflow."""
        if not self.scores:
            return []
        beta = self.beta
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        log_beta = math.log(beta)
        # Plain loops: on these short lists they beat comprehensions.
        exponents = []
        for score in self.scores:
            exponents.append(score * log_beta)
        top = max(exponents)
        weights = []
        for x in exponents:
            weights.append(math.exp(x - top))
        z = sum(weights)
        shares = []
        for w in weights:
            shares.append(self.budget * w / z)
        return shares


def reactive_hidden_step(
    learner: HedgeLearner,
    edge_weights: Mapping[str, float],
    surfaces: Mapping[str, float],
) -> list[float]:
    """Feed one round's edge usage to ``learner``; return its next shares.

    ``surfaces`` must cover the attacked edges; edges outside the domain
    join it.  Each attacked edge's score drops by its usage over surface.
    The input is checked before the learner changes.
    """
    if not edge_weights:
        raise ValueError("round contained no attacked edges")
    revealed: dict[str, float] = {}
    column: dict[str, float] = {}
    for eid, weight in edge_weights.items():
        if weight < 0:
            raise ValueError(f"negative attack weight {weight} on {eid!r}")
        if eid not in surfaces:
            raise ValueError(f"no surface reported for attacked edge {eid!r}")
        w = surfaces[eid]
        position = learner.index.get(eid)
        if position is None:
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"surface of {eid!r} must be positive, got {w}")
            revealed[eid] = w
        elif w != (known := learner.surfaces[position]):
            raise ValueError(f"edge {eid!r} re-revealed with surface {w}, previously {known}")
        column[eid] = -weight / w
    if revealed:
        learner._reveal(revealed)
    learner.update(column)
    return learner.shares()


# ---------------------------------------------------------------------------
# proactive allocations


def _sink_side(system: System, target: str) -> set[str]:
    """Vertices that reach ``target`` in the residual graph of a maximum
    start-to-target flow with surfaces as capacities; every maximum flow
    leaves the same set.  Augmenting paths are searched breadth-first from
    the target, and the search that misses the start visits the set."""
    residual: dict[str, dict[str, float]] = {v: {} for v in system.vertices}
    for e in system.edges:
        residual[e.src][e.dst] = residual[e.src].get(e.dst, 0.0) + e.surface
        residual[e.dst].setdefault(e.src, 0.0)
    while True:
        toward: dict[str, str | None] = {target: None}
        queue = deque([target])
        while queue and system.start not in toward:
            v = queue.popleft()
            for u in residual[v]:
                if u not in toward and residual[u][v] > 0:
                    toward[u] = v
                    queue.append(u)
        if system.start not in toward:
            return set(toward)
        path = []
        u = system.start
        while (v := toward[u]) is not None:
            path.append((u, v))
            u = v
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push


def mincut_perimeter_defense(system: System, target: str) -> DefenseAllocation:
    """Whole budget over a minimum-weight start-to-target edge cut.

    Among minimum cuts the one nearest the target is chosen; parallel
    edges add their surfaces.  Cut edges receive budget proportional to
    surface, so every start-to-target attack costs at least
    budget / cut_weight.
    """
    if target == system.start:
        raise ValueError("target must differ from the start vertex")
    if target not in system.vertices:
        raise KeyError(f"unknown vertex {target!r}")
    far = _sink_side(system, target)
    cut = [e for e in system.edges if e.src not in far and e.dst in far]
    # Without a start-to-target path no flow moves, and an edge into the
    # far side would put its source there too: the cut is empty.
    if not cut:
        raise ValueError(f"target {target!r} is unreachable from {system.start!r}")
    return proportional_defense(system.budget, {e.id: e.surface for e in cut})


@dataclass(frozen=True)
class MinimaxResult:
    """Optimal fixed allocation and the attacker value it concedes."""

    allocation: DefenseAllocation
    value: float
    objective: str


def minimax_proactive_defense(
    system: System, objective: str = "roa", limit: int = DEFAULT_ENUMERATION_LIMIT
) -> MinimaxResult:
    """Fixed allocation minimizing the attacker's best achievable objective.

    Attacks are enumerated (up to ``limit``) and the minimax program is
    solved as a linear program over the allocation.  For ``objective="roa"``
    the program maximizes ``z`` subject to ``cost(a, d) >= z * payoff(a)``
    for every attack with positive payoff; the conceded value is ``1/z``
    (infinite if no feasible ``z > 0`` exists).  For ``objective="profit"``
    it minimizes the maximum of ``payoff(a) - cost(a, d)`` and zero, the
    floor reflecting that an attacker can always abstain.
    """
    # scipy costs about half a second to import, so only this solve loads it.
    from scipy.optimize import linprog

    if objective not in ("roa", "profit"):
        raise ValueError(f"unknown objective {objective!r}")
    pathset = PathSet.enumerate(system, limit)
    num_edges = len(system.edges)
    budget_row = np.concatenate([np.ones(num_edges), [0.0]])
    if objective == "roa":
        mask = pathset.payoffs > 0
        if not mask.any():
            # Nothing is worth attacking; any feasible allocation concedes 0.
            return MinimaxResult(zero_allocation(system.budget), 0.0, "roa")
        a_ub = np.vstack(
            [
                np.hstack([-pathset.rate_rows[mask], pathset.payoffs[mask][:, None]]),
                budget_row,
            ]
        )
        b_ub = np.concatenate([np.zeros(int(mask.sum())), [system.budget]])
        cost_vector = np.zeros(num_edges + 1)
        cost_vector[-1] = -1.0
    else:
        a_ub = np.vstack(
            [
                np.hstack([-pathset.rate_rows, -np.ones((len(pathset.attacks), 1))]),
                budget_row,
            ]
        )
        b_ub = np.concatenate([-pathset.payoffs, [system.budget]])
        cost_vector = np.zeros(num_edges + 1)
        cost_vector[-1] = 1.0
    result = linprog(
        cost_vector,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, None)] * (num_edges + 1),
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"minimax solve failed: {result.message}")
    allocation = _solution_allocation(result.x[:num_edges], system)
    if objective == "roa":
        z = result.x[-1]
        value = math.inf if z <= 0 else 1.0 / z
    else:
        value = float(result.x[-1])
    return MinimaxResult(allocation, value, objective)


def _solution_allocation(vector: np.ndarray, system: System) -> DefenseAllocation:
    # Solver residue below the feasibility tolerance is dropped.
    tiny = 1e-11 * max(1.0, system.budget)
    alloc = {
        e.id: float(amount)
        for e, amount in zip(system.edges, vector)
        if amount > tiny
    }
    return DefenseAllocation(alloc, system.budget)


def hindsight_from_usage(
    system: System, usage: Mapping[str, float]
) -> tuple[DefenseAllocation, float]:
    """Best fixed allocation against per-edge attack usage, with its total cost.

    Total cost is linear in the allocation, so one edge takes the whole
    budget: the edge maximizing usage/surface, ties broken by the smallest
    edge id.
    """
    best_edge: str | None = None
    best_ratio = 0.0
    for e in sorted(system.edges, key=lambda e: e.id):
        ratio = usage.get(e.id, 0.0) / e.surface
        if ratio > best_ratio:
            best_ratio = ratio
            best_edge = e.id
    if best_edge is None:
        raise ValueError("no attack used any edge; hindsight defense is undefined")
    allocation = DefenseAllocation({best_edge: system.budget}, system.budget)
    return allocation, system.budget * best_ratio


def uniform_defense(system: System) -> DefenseAllocation:
    """budget / |E| on every edge."""
    if not system.edges:
        raise ValueError("system has no edges")
    share = system.budget / len(system.edges)
    return DefenseAllocation({e.id: share for e in system.edges}, system.budget)


def proportional_defense(budget: float, surfaces: Mapping[str, float]) -> DefenseAllocation:
    """Whole budget over the edges of ``surfaces`` (edge id to surface),
    proportional to surface, so each edge charges budget / sum(surfaces)."""
    if not surfaces:
        raise ValueError("no edges to defend")
    total = sum(surfaces.values())
    return DefenseAllocation(
        {eid: budget * w / total for eid, w in surfaces.items()}, budget
    )


# ---------------------------------------------------------------------------
# engine-facing policies


class Defender(ABC):
    """Per-game defender driven by the engine.

    Reactive policies start from a ``SystemView`` (the start vertex and
    the budget, no edges and no rewards), learn edges only from round
    feedback and must keep allocations inside the revealed set;
    proactive policies receive the full ``System`` once at start.
    ``last_beta`` mirrors the learning rate behind the latest committed
    allocation, for trace records.
    """

    reactive: ClassVar[bool] = False
    last_beta: float | None = None

    @abstractmethod
    def start(self, view: System | SystemView, horizon: int) -> None:
        """Reset for a fresh game."""

    @abstractmethod
    def commit(self, round_index: int) -> DefenseAllocation:
        """Allocation for the coming round, committed before the attack."""

    def observe(self, feedback) -> None:
        """Consume the round's revealed attacks (see engine.RoundFeedback)."""

    @abstractmethod
    def describe(self) -> dict[str, Any]:
        """JSON-able descriptor recorded in traces."""


class ReactiveDefender(Defender):
    """Learning defender over revealed edges; allocates nothing in round 1."""

    reactive = True
    _learner: HedgeLearner | None = None
    _pending: DefenseAllocation | None = None

    def _new_learner(self, view: SystemView, horizon: int) -> HedgeLearner:
        return HedgeLearner(view.budget)

    def start(self, view: System | SystemView, horizon: int) -> None:
        self._learner = self._new_learner(view, horizon)
        self._hold(self._learner.shares())

    def commit(self, round_index: int) -> DefenseAllocation:
        return self._pending

    def observe(self, feedback) -> None:
        self._hold(
            reactive_hidden_step(self._learner, feedback.edge_weights, feedback.surfaces)
        )

    def _hold(self, shares: list[float]) -> None:
        learner = self._learner
        self._pending = DefenseAllocation(dict(zip(learner.index, shares)), learner.budget)
        self.last_beta = learner.beta

    def describe(self) -> dict[str, Any]:
        return {"policy": "reactive-hidden", "schedule": "round-adaptive"}


class KnownEdgesDefender(ReactiveDefender):
    """The same learner knowing every edge up front, at a fixed rate that
    defaults to ``horizon_beta(|E|, T)``."""

    reactive = False

    def __init__(self, beta: float | None = None):
        self._beta = beta

    def _new_learner(self, view: System, horizon: int) -> HedgeLearner:
        surfaces = {e.id: e.surface for e in view.edges}
        if not surfaces:
            raise ValueError("system has no edges")
        beta = horizon_beta(len(surfaces), horizon) if self._beta is None else self._beta
        return HedgeLearner(view.budget, surfaces, fixed_beta=beta)

    def describe(self) -> dict[str, Any]:
        return {
            "policy": "known-edges",
            "beta": "horizon" if self._beta is None else self._beta,
        }


class MyopicDefender(Defender):
    """Overreacting baseline: all budget onto the last round's attack edges."""

    reactive = True
    _pending: DefenseAllocation | None = None

    def start(self, view: SystemView, horizon: int) -> None:
        self._pending = zero_allocation(view.budget)

    def commit(self, round_index: int) -> DefenseAllocation:
        return self._pending

    def observe(self, feedback) -> None:
        self._pending = proportional_defense(self._pending.budget, feedback.surfaces)

    def describe(self) -> dict[str, Any]:
        return {"policy": "myopic"}


class FixedDefender(Defender):
    """Plays ``allocate(system)``, computed at start, every round;
    ``descriptor`` is recorded in traces."""

    def __init__(
        self,
        allocate: Callable[[System], DefenseAllocation],
        descriptor: Mapping[str, Any],
    ):
        self._allocate = allocate
        self._descriptor = dict(descriptor)
        self._allocation: DefenseAllocation | None = None

    def start(self, view: System, horizon: int) -> None:
        self._allocation = self._allocate(view)

    def commit(self, round_index: int) -> DefenseAllocation:
        return self._allocation

    def describe(self) -> dict[str, Any]:
        return dict(self._descriptor)
