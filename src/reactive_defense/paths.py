"""Enumeration of edge-simple attack paths and their pricing.

Attacks are edge-simple (vertices may repeat), so depth-first traversal
over unused edges terminates and every prefix of a walk is itself a valid
attack.  ``PathSet`` enumerates them once per system, with their payoffs
and the edges each one prices, and marks the *frontier*: the attacks not
dominated by an earlier attack with the same payoff whose edges are a
subsequence of theirs in the same order.  Adding nonnegative terms into a
left-to-right float sum cannot lower it, so under every allocation the
dominating attack costs no more, bit for bit, and wins every tie the
dominated one could reach.  The frontier therefore always holds the best
response, and best responses price and rank it only.

A price is exactly ``model.cost``: amount / surface summed left to right
in path order, with no BLAS call, so best responses do not depend on the
machine.  An attack is its tuple of edge ids, the frontier's price steps
are read off its attacks after the walk, and the minimax LP builds its
path-by-edge rate matrix from them.

Best responses are deterministic: ties in the objective (exact float
equality) fall to the cheaper attack, then to the earlier enumeration
index, which is the lexicographically smallest edge-id sequence.  The
return on attack follows ``model.roa``: p / 0 is inf for p > 0, so the
first zero-cost positive-payoff attack wins, a quotient past the float
range is inf, and 0 / 0 is NaN, which ranks below every number.  This is the package's one module-level numpy
import: the learning defender, replays and the lower-bound experiment
never load it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import OBJECTIVES, Attack, DefenseAllocation, EnumerationLimitError, System

# The attack cap of every command; a larger system is refused, not truncated.
DEFAULT_ENUMERATION_LIMIT = 10_000


class Frontier(NamedTuple):
    """The attacks a best response ranks: their ``PathSet`` rows in
    ascending order, their payoffs, and their price steps.  ``steps[k, i]``
    is the position in ``PathSet.surfaces`` of frontier attack ``i``'s k-th
    edge, or of the zero-price slot past the attack's end."""

    rows: np.ndarray
    payoffs: np.ndarray
    steps: np.ndarray


class PathSet(NamedTuple):
    """Precomputed enumeration of a system's attacks.

    ``surfaces`` lists the edge surfaces in system edge order, then 1.0
    for a zero-price slot.  ``attacks`` is in enumeration order, which
    sorts the edge-id sequences, so an index comparison is a
    lexicographic one.  Only the frontier's price steps are kept.
    """

    system: System
    attacks: tuple[Attack, ...]
    payoffs: np.ndarray
    edge_index: dict[str, int]
    surfaces: np.ndarray
    frontier: Frontier

    @classmethod
    def enumerate(cls, system: System, limit: int = DEFAULT_ENUMERATION_LIMIT) -> "PathSet":
        """All non-empty edge-simple paths from the start vertex, in one
        depth-first walk over sorted adjacency (prefixes before extensions).
        Raises ``EnumerationLimitError`` as soon as the count would exceed
        ``limit``.

        An attack leaves the frontier when its parent prefix has the same
        payoff, or when cutting a closed sub-walk out of it, from one visit
        of a vertex to the next, gives an earlier attack with the same
        payoff.  Such a cut sorts earlier when the edge that left the later
        visit sorts before the edge that left the earlier one."""
        if limit < 1:
            raise ValueError(f"enumeration limit must be positive, got {limit}")
        edge_index = {eid: j for j, eid in enumerate(system.edge_ids)}
        width = len(edge_index)
        attacks: list[Attack] = []
        payoffs: list[float] = []
        frontier: list[int] = []
        # The row of each attack's extension by the edge at one position,
        # keyed row * width + position; the empty walk is row -1.
        extension: dict[int, int] = {}
        prefix: list[str] = []
        used: set[str] = set()
        # Per walk position: the vertex reached, the row of the attack that
        # ends there, its payoff (summed left to right over first visits, as
        # ``model.payoff`` sums), the rows of its earlier cuts, and the
        # position of the vertex's previous visit on the walk.
        walk: list[tuple[str, int, float, list[int], int | None]] = [
            (system.start, -1, 0.0 + system.reward(system.start), [], None)
        ]
        latest = {system.start: 0}
        # One iterator over sorted out-edges per vertex on the current walk; an
        # explicit stack keeps deep systems clear of the recursion limit.
        stack = [iter(system.out_edges(system.start))]
        while stack:
            for e in stack[-1]:
                if e.id not in used:
                    break
            else:
                stack.pop()
                if prefix:
                    used.discard(prefix.pop())
                    vertex, *_, before = walk.pop()
                    if before is None:
                        del latest[vertex]
                    else:
                        latest[vertex] = before
                continue
            if len(attacks) >= limit:
                raise EnumerationLimitError(limit)
            _, parent, parent_pay, parent_cuts, before = walk[-1]
            pay = parent_pay if e.dst in latest else parent_pay + system.reward(e.dst)
            position = edge_index[e.id]
            # A cut of the parent, extended by e, is a cut of this attack;
            # e also closes a new one when it leaves the walk's last vertex
            # ahead of the edge that left that vertex's previous visit.
            cuts = [extension[c * width + position] for c in parent_cuts]
            if before is not None and e.id < prefix[before]:
                cuts.append(extension[walk[before][1] * width + position])
            row = len(attacks)
            extension[parent * width + position] = row
            prefix.append(e.id)
            used.add(e.id)
            if not (parent >= 0 and pay == parent_pay) and all(payoffs[c] != pay for c in cuts):
                frontier.append(row)
            attacks.append(Attack(prefix))
            payoffs.append(pay)
            walk.append((e.dst, row, pay, cuts, latest.get(e.dst)))
            latest[e.dst] = len(prefix)
            stack.append(iter(system.out_edges(e.dst)))
        if not attacks:
            raise ValueError(f"no attacks available from start vertex {system.start!r}")
        payoff_array = np.array(payoffs)
        rows = np.array(frontier, dtype=np.intp)
        # The frontier's steps, one row per edge position, in C order: each
        # step's prices are then one contiguous take.
        front = [attacks[row] for row in frontier]
        lengths = np.array([len(path) for path in front])
        steps = np.full((int(lengths.max()), len(rows)), width, dtype=np.intp)
        steps.T[np.arange(len(steps)) < lengths[:, None]] = [
            edge_index[eid] for path in front for eid in path
        ]
        return cls(
            system=system,
            attacks=tuple(attacks),
            payoffs=payoff_array,
            edge_index=edge_index,
            surfaces=np.array([e.surface for e in system.edges] + [1.0]),
            frontier=Frontier(rows=rows, payoffs=payoff_array[rows], steps=steps),
        )

    def allocation_vector(self, allocation: DefenseAllocation) -> np.ndarray:
        """Amounts in system edge order, then a zero for the step past a
        path's end."""
        vec = np.zeros(len(self.surfaces))
        index = self.edge_index.get
        for eid, amount in allocation.alloc.items():
            j = index(eid)
            if j is not None:
                vec[j] = amount
        return vec

    def costs(self, allocation: DefenseAllocation) -> np.ndarray:
        """Cost under ``allocation`` of each frontier attack, in
        ``frontier.rows`` order: amount / surface summed left to right in
        path order, bit for bit ``model.cost``."""
        terms = (self.allocation_vector(allocation) / self.surfaces).take(self.frontier.steps)
        # Over a C-ordered (steps, frontier) array with two or more columns,
        # numpy adds the rows one at a time onto ``initial``: left to right
        # in path order.  On one column it would sum pairwise, but then the
        # frontier is the first attack alone, a single edge, so one step.
        # Starting from 0.0, as the sum does, turns a -0.0 amount into 0.0.
        return np.add.reduce(terms, axis=0, initial=0.0)


class BestResponse(NamedTuple):
    """Selected attack with its objective value.

    In the return-on-attack corner where no attack has positive payoff,
    the maximum-payoff attack is returned and ``value`` is the undefined
    marker ``math.nan``.
    """

    attack: Attack
    value: float


def select_best_response(
    pathset: PathSet, allocation: DefenseAllocation, objective: str
) -> BestResponse:
    """Pick the best enumerated attack under the deterministic tie order,
    ranking only the frontier, which always holds that pick."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    front = pathset.frontier
    costs = pathset.costs(allocation)
    pays = front.payoffs
    if objective == "profit":
        values = pays - costs
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            values = pays / costs
    i = _first_best(values, costs)
    if objective == "profit" or pays[i] > 0:
        return BestResponse(pathset.attacks[front.rows[i]], float(values[i]))
    # Nothing has positive payoff; fall back to a maximum-payoff attack
    # (all zero here); the ratio is undefined.
    i = _first_best(pays, costs)
    return BestResponse(pathset.attacks[front.rows[i]], math.nan)


def _first_best(values: np.ndarray, costs: np.ndarray) -> int:
    """Index of the largest value, ties to the lowest cost, then to the
    lowest index (enumeration order is lexicographic edge-id order)."""
    top = _maximizers(values)
    if len(top) > 1:
        top = top[_maximizers(-costs[top])]
    return int(top[0])


def _maximizers(keys: np.ndarray) -> np.ndarray:
    """Indices of the largest key under exact float equality.  NaN ranks
    below every number, as in an ascending sort of the negated keys."""
    best = np.fmax.reduce(keys)
    if best != best:
        return np.arange(len(keys))
    return (keys == best).nonzero()[0]
