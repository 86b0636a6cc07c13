"""Enumeration of edge-simple attack paths and vectorized evaluation.

Attacks are edge-simple (vertices may repeat), so depth-first traversal
over unused edges terminates and every prefix of a walk is itself a valid
attack.  ``PathSet`` precomputes payoffs and an incidence matrix once per
system; per-allocation costs are then a single matrix-vector product,
which keeps repeated best-response queries cheap inside long games.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Attack, DefenseAllocation, System, payoff

DEFAULT_ENUMERATION_LIMIT = 10_000


class EnumerationLimitError(RuntimeError):
    """Raised when a system admits more attacks than the caller allowed."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"more than {limit} edge-simple attacks; raise the limit")


def enumerate_attacks(system: System, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[Attack]:
    """All non-empty edge-simple paths from the start vertex.

    Paths come out in lexicographic edge-id order (depth-first with sorted
    adjacency, prefixes before extensions).  Raises
    ``EnumerationLimitError`` as soon as the count would exceed ``limit``.
    """
    if limit < 1:
        raise ValueError(f"enumeration limit must be positive, got {limit}")
    found: list[Attack] = []
    prefix: list[str] = []
    used: set[str] = set()
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
            continue
        if len(found) >= limit:
            raise EnumerationLimitError(limit)
        prefix.append(e.id)
        used.add(e.id)
        found.append(Attack(tuple(prefix)))
        stack.append(iter(system.out_edges(e.dst)))
    return found


@dataclass(frozen=True)
class PathSet:
    """Precomputed enumeration of a system's attacks.

    ``incidence[i, j]`` is 1 when path ``i`` uses edge ``j`` (system edge
    order); ``rate_rows = incidence / surface`` turns an allocation vector
    into per-path costs.  ``lex_rank`` orders paths by edge-id sequence and
    backs deterministic tie-breaking.
    """

    system: System
    attacks: tuple[Attack, ...]
    payoffs: np.ndarray
    incidence: np.ndarray
    rate_rows: np.ndarray
    lex_rank: np.ndarray
    edge_index: dict[str, int]

    @classmethod
    def enumerate(cls, system: System, limit: int = DEFAULT_ENUMERATION_LIMIT) -> "PathSet":
        attacks = tuple(enumerate_attacks(system, limit))
        if not attacks:
            raise ValueError(f"no attacks available from start vertex {system.start!r}")
        edge_index = {eid: j for j, eid in enumerate(system.edge_ids)}
        incidence = np.zeros((len(attacks), len(edge_index)))
        for i, attack in enumerate(attacks):
            for eid in attack.path:
                incidence[i, edge_index[eid]] = 1.0
        surfaces = np.array([e.surface for e in system.edges])
        payoffs = np.array([payoff(system, a) for a in attacks])
        order = sorted(range(len(attacks)), key=lambda i: attacks[i].path)
        lex_rank = np.empty(len(attacks), dtype=np.int64)
        for rank, i in enumerate(order):
            lex_rank[i] = rank
        return cls(
            system=system,
            attacks=attacks,
            payoffs=payoffs,
            incidence=incidence,
            rate_rows=incidence / surfaces,
            lex_rank=lex_rank,
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
