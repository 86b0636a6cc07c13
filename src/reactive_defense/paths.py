"""Enumeration of edge-simple attack paths and vectorized evaluation.

Attacks are edge-simple (vertices may repeat), so depth-first traversal
over unused edges terminates and every prefix of a walk is itself a valid
attack.  ``PathSet`` precomputes payoffs and a path-by-edge rate matrix
once per system; per-allocation costs are then a single matrix-vector product,
which keeps repeated best-response queries cheap inside long games.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .model import Attack, DefenseAllocation, System

# The attack cap of every command; a larger system is refused, not truncated.
DEFAULT_ENUMERATION_LIMIT = 10_000


class EnumerationLimitError(RuntimeError):
    """Raised when a system admits more attacks than the caller allowed."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"more than {limit} edge-simple attacks")


@dataclass(frozen=True)
class PathSet:
    """Precomputed enumeration of a system's attacks.

    ``rate_rows[i, j]`` is 1 / surface of edge ``j`` (system edge order)
    when path ``i`` uses it and 0 otherwise, so it turns an allocation
    vector into per-path costs.  ``attacks`` is in enumeration order, which sorts
    the edge-id sequences, so an index comparison is a lexicographic one.
    """

    system: System
    attacks: tuple[Attack, ...]
    payoffs: np.ndarray
    rate_rows: np.ndarray
    edge_index: dict[str, int]

    @classmethod
    def enumerate(cls, system: System, limit: int = DEFAULT_ENUMERATION_LIMIT) -> "PathSet":
        """All non-empty edge-simple paths from the start vertex, in one
        depth-first walk over sorted adjacency (prefixes before extensions).
        Raises ``EnumerationLimitError`` as soon as the count would exceed
        ``limit``."""
        if limit < 1:
            raise ValueError(f"enumeration limit must be positive, got {limit}")
        edge_index = {eid: j for j, eid in enumerate(system.edge_ids)}
        width = len(edge_index)
        attacks: list[Attack] = []
        payoffs: list[float] = []
        cells = array("q")  # flat indices of rate cells, unboxed to keep the peak small
        prefix: list[str] = []
        used: set[str] = set()
        # Rewards of the walk's distinct vertices in first-visit order, and
        # per step the vertex it reached first (None for a revisit).
        rewards = [system.reward(system.start)]
        seen = {system.start}
        firsts: list[str | None] = []
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
                    if (v := firsts.pop()) is not None:
                        seen.discard(v)
                        rewards.pop()
                continue
            if len(attacks) >= limit:
                raise EnumerationLimitError(limit)
            prefix.append(e.id)
            used.add(e.id)
            firsts.append(None if e.dst in seen else e.dst)
            if firsts[-1] is not None:
                seen.add(e.dst)
                rewards.append(system.reward(e.dst))
            cells.extend([len(attacks) * width + edge_index[eid] for eid in prefix])
            attacks.append(Attack(tuple(prefix)))
            # ``sum`` over the first-visit rewards, exactly as ``model.payoff``.
            payoffs.append(sum(rewards))
            stack.append(iter(system.out_edges(e.dst)))
        if not attacks:
            raise ValueError(f"no attacks available from start vertex {system.start!r}")
        rate_rows = np.zeros((len(attacks), width))
        rate_rows.flat[cells] = 1.0
        rate_rows /= np.array([e.surface for e in system.edges])
        return cls(
            system=system,
            attacks=tuple(attacks),
            payoffs=np.array(payoffs),
            rate_rows=rate_rows,
            edge_index=edge_index,
        )

    def allocation_vector(self, allocation: DefenseAllocation) -> np.ndarray:
        vec = np.zeros(len(self.edge_index))
        for eid, amount in allocation.alloc.items():
            j = self.edge_index.get(eid)
            if j is not None:
                vec[j] = amount
        return vec

    def costs(self, allocation: DefenseAllocation) -> np.ndarray:
        """Per-path cost of every enumerated attack under ``allocation``."""
        return self.rate_rows @ self.allocation_vector(allocation)
