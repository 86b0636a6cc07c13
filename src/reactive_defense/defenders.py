"""Defender strategies for repeated attack-defense games.

One mutable multiplicative-weights (Hedge) learner forms the core
(Freund and Schapire 1997): ``HedgeLearner`` keeps an edge domain in
reveal order and splits the budget B as ``B * softmax(score * ln beta)``,
its normaliser summed left to right in the loop that exponentiates, so
the shares are the same bits on every Python; ``reactive_hidden_step``
checks a whole round, then lowers each attacked edge's score by its
weight over the edge's surface in one pass.  The reactive defender
starts it with an empty domain that attacks grow, at an annealed rate;
the known-edges defender starts it with every edge, at a fixed rate.

Proactive alternatives live alongside it: minimum-cut perimeter defense,
minimax allocations for the return-on-attack and profit objectives (a
numpy simplex on the LP's dual, read off its final tableau with no BLAS
or LAPACK call, so the same bits on every machine), the hindsight-optimal
fixed allocation, and the uniform and myopic baselines.  Only the
minimax solve imports numpy, when it runs.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from array import array
from collections import deque
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, Any, ClassVar, NamedTuple

from .model import (
    OBJECTIVES,
    DefenseAllocation,
    PackedAmounts,
    System,
    SystemView,
    ordered_sum,
    usable_surface,
    zero_allocation,
)

if TYPE_CHECKING:
    import numpy as np


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
    """Fixed learning rate for a known horizon: 1 / (1 + sqrt(2 ln(n) / T)),
    the annealed rate of round T - 1."""
    if num_units < 1:
        raise ValueError(f"need at least one unit, got {num_units}")
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return _annealed_beta(math.log(num_units), horizon - 1)


# ---------------------------------------------------------------------------
# Hedge learner core


class HedgeLearner:
    """Mutable Hedge state.  ``index`` maps the domain's edge ids, in
    reveal order, to positions in ``surfaces`` and ``scores`` (cumulative
    exponents, 0 on reveal); ``fixed_beta`` pins the rate, and None
    anneals it with ``beta_schedule`` over the domain size.  An edge
    joins the domain only through a reveal, from the constructor's
    ``surfaces`` or from a round's feedback, and a reveal refuses any
    surface that breaks the E-SURFACE rule before anything changes.  A
    reveal replaces ``index`` with a new dict and never changes the old
    one, so the ``PackedAmounts`` of every allocation committed between
    two reveals share one index, and an earlier allocation keeps its
    own."""

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
        # Callers pass only edges that are new to the domain.  A negative
        # surface would reverse the update; 0, NaN, inf or a subnormal
        # surface never prices (``model.usable_surface``).
        for eid, w in surfaces.items():
            if not usable_surface(w):
                raise ValueError(f"surface of {eid!r} must be positive with finite 1/surface, got {w}")
        index = dict(self.index)
        for eid, w in surfaces.items():
            index[eid] = len(self.scores)
            self.surfaces.append(w)
            self.scores.append(0.0)
        self.index = index
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
        self._add(column.items())

    def _add(self, column: Iterable[tuple[str, float]]) -> None:
        # Callers pass only edges already in the domain.
        index, scores = self.index, self.scores
        for eid, value in column:
            scores[index[eid]] += value
        self.round_index += 1

    def shares(self) -> list[float]:
        """Budget over the domain in domain order, proportional to
        ``beta ** score`` (empty on an empty domain); factoring out the
        largest exponent avoids overflow.  The normaliser is summed left
        to right, as ``model.ordered_sum`` does."""
        if not self.scores:
            return []
        beta = self.beta
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        log_beta = math.log(beta)
        # log_beta <= 0 and rounding is monotone, so the smallest score
        # gives exactly the largest exponent (up to the sign of a zero,
        # which exp ignores).  Plain loops: on these short lists they
        # beat comprehensions.
        top = min(self.scores) * log_beta
        weights = []
        z = 0.0
        for score in self.scores:
            w = math.exp(score * log_beta - top)
            weights.append(w)
            z += w
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
    join it.  Each attacked edge's usage must be finite and nonnegative,
    and its score drops by that usage over surface.  The whole round is
    checked before the learner changes, new surfaces by its reveal.
    """
    if not edge_weights:
        raise ValueError("round contained no attacked edges")
    revealed: dict[str, float] = {}
    column: list[tuple[str, float]] = []
    for eid, weight in edge_weights.items():
        if not 0 <= weight < math.inf:
            kind = "negative" if weight < 0 else "non-finite"
            raise ValueError(f"{kind} attack weight {weight} on {eid!r}")
        if eid not in surfaces:
            raise ValueError(f"no surface reported for attacked edge {eid!r}")
        w = surfaces[eid]
        position = learner.index.get(eid)
        if position is None:
            revealed[eid] = w
        elif w != (known := learner.surfaces[position]):
            raise ValueError(f"edge {eid!r} re-revealed with surface {w}, previously {known}")
        else:
            column.append((eid, -weight / w))
    if revealed:
        # a new edge's surface is divided by only once the reveal checked it
        learner._reveal(revealed)
        column.extend((eid, -edge_weights[eid] / w) for eid, w in revealed.items())
    # every edge is checked and in the domain now, so skip update's check
    learner._add(column)
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


class MinimaxResult(NamedTuple):
    """Optimal fixed allocation and the attacker value it concedes."""

    allocation: DefenseAllocation
    value: float


def minimax_proactive_defense(system: System, objective: str = "roa") -> MinimaxResult:
    """Fixed allocation minimizing the attacker's best achievable objective.

    The minimax LP is solved through its dual, whose shadow prices are the
    allocation.  ``"roa"``: min sum(u) s.t. rate(a) . u >= payoff(a) for
    positive payoffs, u >= 0, played as budget * u / sum(u).  ``"profit"``:
    min t s.t. t + rate(a) . d >= payoff(a), sum(d) <= budget, t, d >= 0
    (an attacker may abstain).  Its rows are the frontier's attacks: any
    other attack has the payoff of a frontier attack whose edges are a
    subsequence of its own, so with u, d >= 0 its row is implied.
    The value is the attacker's best response to the allocation (floored
    at 0), and RuntimeError is raised unless the dual optimum matches it.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    import numpy as np

    from .paths import PathSet, select_best_response

    pathset = PathSet.enumerate(system)
    payoffs, steps = pathset.frontier.payoffs, pathset.frontier.steps
    budget = system.budget
    if not (payoffs > 0).any():
        # Nothing is worth attacking; any feasible allocation concedes 0.
        return MinimaxResult(zero_allocation(budget), 0.0)
    # 1 / surface on each edge a frontier attack uses; the last column, the
    # zero-price slot past an attack's end, is dropped.
    rates = np.zeros((len(payoffs), len(pathset.surfaces)))
    rates[np.arange(len(payoffs)), steps] = 1.0 / pathset.surfaces[steps]
    rates = rates[:, :-1]
    num_edges, num_attacks = rates.shape[1], len(payoffs)
    if objective == "roa":
        payoffs, rates = payoffs[payoffs > 0], rates[payoffs > 0]
        u, bound = _max_shadow_prices(
            (rates / payoffs[:, None]).T, np.ones(num_edges), np.ones(len(payoffs))
        )
        allocation = _solution_allocation(budget * u / u.sum(), system)
        scale = bound = bound / budget
    else:
        matrix = np.block(
            [[np.ones((1, num_attacks)), np.zeros((1, 1))], [rates.T, -np.ones((num_edges, 1))]]
        )
        prices, bound = _max_shadow_prices(
            matrix, np.eye(num_edges + 1)[0], np.append(payoffs, -budget)
        )
        # Prices are accurate to the payoffs' scale; where the budget is far
        # smaller, their total may overshoot it and is cut back.
        d = prices[1:] * min(1.0, budget / max(prices[1:].sum(), budget))
        allocation = _solution_allocation(d, system)
        scale = float(payoffs.max())
    value = max(0.0, select_best_response(pathset, allocation, objective).value)
    if not abs(value - bound) <= 1e-9 * scale:
        raise RuntimeError(f"minimax solve failed: value {value!r}, dual bound {bound!r}")
    return MinimaxResult(allocation, value)


def _max_shadow_prices(
    matrix: np.ndarray, rhs: np.ndarray, gains: np.ndarray
) -> tuple[np.ndarray, float]:
    """Shadow prices of the rows and the optimum of max gains . x s.t.
    matrix x <= rhs, x >= 0, for rhs >= 0 and some gain positive: a
    one-phase tableau simplex from the slack basis on rows and columns
    scaled to entries near 1, pivoting on the most negative reduced cost
    (Dantzig) until the objective stalls, then on the lowest index, which
    cannot cycle (Bland 1977).  Prices and optimum are read off the final
    tableau (Chvatal 1983, ch. 5) in power-of-two units, exactly, with no
    BLAS or LAPACK call: the same bits on every machine.
    """
    import numpy as np

    rows, cols = matrix.shape
    magnitude = np.abs(matrix)
    row_scale, col_scale = np.ones(rows), np.ones(cols)
    for _ in range(4):
        row_scale /= _spread_mean(magnitude * row_scale[:, None] * col_scale, 1)
        col_scale /= _spread_mean(magnitude * row_scale[:, None] * col_scale, 0)
    scaled = matrix * row_scale[:, None] * col_scale
    costs = gains * col_scale
    # Empty rows never bind, so they must not set the scale of the levels.
    levels = rhs * row_scale * (magnitude.max(axis=1) > 0)
    cost_unit, level_unit = np.exp2(np.frexp([costs.max(), levels.max()])[1])
    tableau = np.zeros((rows + 1, cols + rows + 1))
    tableau[:-1] = np.hstack([scaled, np.eye(rows), levels[:, None] / level_unit])
    tableau[-1, :cols] = -costs / cost_unit
    basis = np.arange(cols, cols + rows)
    tol = 1e-12
    stalled = 0
    for _ in range(50 * (rows + cols)):
        reduced = tableau[-1, :-1]
        bland = stalled > rows
        enter = int(np.argmax(reduced < -tol) if bland else np.argmin(reduced))
        if not reduced[enter] < -tol:
            break
        column = tableau[:-1, enter]
        candidates = np.flatnonzero(column > tol)
        if not candidates.size:
            raise RuntimeError("minimax solve failed: the dual is unbounded")
        ratios = np.maximum(tableau[candidates, -1], 0.0) / column[candidates]
        ties = candidates[ratios <= ratios.min() + tol]
        leave = ties[np.argmin(basis[ties])] if bland else ties[np.argmax(column[ties])]
        before = tableau[-1, -1]
        pivot_row = tableau[leave] / tableau[leave, enter]
        tableau -= np.outer(tableau[:, enter], pivot_row)
        tableau[leave] = pivot_row
        basis[leave] = enter
        stalled = 0 if tableau[-1, -1] > before + tol else stalled + 1
    else:
        raise RuntimeError("minimax solve failed: iteration limit reached")
    prices = tableau[-1, cols:-1].clip(0.0) * cost_unit * row_scale
    return prices, float(tableau[-1, -1] * cost_unit * level_unit)


def _spread_mean(magnitude: np.ndarray, axis: int) -> np.ndarray:
    """Geometric mean of the largest and the smallest nonzero magnitude
    along ``axis``; 1 where every magnitude is zero."""
    import numpy as np

    top = magnitude.max(axis=axis)
    low = np.where(magnitude > 0, magnitude, np.inf).min(axis=axis)
    return np.where(top > 0, np.sqrt(top * np.minimum(low, top)), 1.0)


def _solution_allocation(vector: np.ndarray, system: System) -> DefenseAllocation:
    # Rounding residue of zero prices is dropped.
    tiny = 1e-12 * vector.max()
    alloc = {e.id: float(amount) for e, amount in zip(system.edges, vector) if amount > tiny}
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
    total = ordered_sum(surfaces.values())
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
    proactive policies receive the full ``System`` once at start.  A
    policy holds the allocation it will commit next in ``allocation``,
    set in ``start`` or ``observe``; ``last_beta`` mirrors the learning
    rate behind it, for trace records.
    """

    reactive: ClassVar[bool] = False
    last_beta: float | None = None
    allocation: DefenseAllocation | None = None

    @abstractmethod
    def start(self, view: System | SystemView, horizon: int) -> None:
        """Reset for a fresh game."""

    def commit(self, round_index: int) -> DefenseAllocation:
        """Allocation for the coming round, committed before the attack."""
        return self.allocation

    def observe(self, feedback) -> None:
        """Consume the round's revealed attacks (see engine.RoundFeedback)."""

    @abstractmethod
    def describe(self) -> dict[str, Any]:
        """JSON-able descriptor recorded in traces."""


class ReactiveDefender(Defender):
    """Learning defender over revealed edges; allocates nothing in round 1."""

    reactive = True
    _learner: HedgeLearner | None = None

    def _new_learner(self, view: SystemView, horizon: int) -> HedgeLearner:
        return HedgeLearner(view.budget)

    def start(self, view: System | SystemView, horizon: int) -> None:
        self._learner = self._new_learner(view, horizon)
        self._hold(self._learner.shares())

    def observe(self, feedback) -> None:
        self._hold(
            reactive_hidden_step(self._learner, feedback.edge_weights, feedback.surfaces)
        )

    def _hold(self, shares: list[float]) -> None:
        learner = self._learner
        self.allocation = DefenseAllocation(
            PackedAmounts(learner.index, array("d", shares)), learner.budget
        )
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

    def start(self, view: SystemView, horizon: int) -> None:
        self.allocation = zero_allocation(view.budget)

    def observe(self, feedback) -> None:
        self.allocation = proportional_defense(self.allocation.budget, feedback.surfaces)

    def describe(self) -> dict[str, Any]:
        return {"policy": "myopic"}


class FixedDefender(Defender):
    """Plays the ``allocation`` it is built with every round;
    ``descriptor`` is recorded in traces."""

    def __init__(self, allocation: DefenseAllocation, descriptor: Mapping[str, Any]):
        self.allocation = allocation
        self._descriptor = dict(descriptor)

    def start(self, view: System, horizon: int) -> None:
        pass

    def describe(self) -> dict[str, Any]:
        return dict(self._descriptor)
