"""Horn-clause generalization of the attack-graph model.

Clauses play the role of edges and valid proofs the role of paths: a proof
is a tuple of clause ids in which every antecedent was established by an
earlier clause.  Payoff sums rewards of distinct derived propositions;
cost charges each clause occurrence its allocation over surface.  A graph
system embeds exactly (one clause per edge plus a zero-cost base clause
for the start vertex), and the embedding preserves cost and payoff.

Horn systems are an in-memory model, built only by :func:`graph_to_horn`
from an already-validated graph system.  They are never read from a file
and never validated on their own.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

from .model import Attack, DefenseAllocation, System, ordered_sum


class InvalidProofError(ValueError):
    """Raised for clause sequences that are not valid proofs."""


class HornClause(NamedTuple):
    """``antecedents -> consequent`` with a positive attack surface."""

    id: str
    antecedents: frozenset[str]
    consequent: str
    surface: float


class HornSystem(NamedTuple):
    """Surfaced clauses keyed by id, rewards on propositions, and a
    defense budget."""

    clauses: Mapping[str, HornClause]
    rewards: Mapping[str, float]
    budget: float


def validate_proof(system: HornSystem, proof: tuple[str, ...]) -> None:
    """Raise ``InvalidProofError`` naming the first clause whose antecedents
    are not all established by strictly earlier clauses."""
    proved: set[str] = set()
    for index, clause_id in enumerate(proof):
        clause = system.clauses.get(clause_id)
        if clause is None:
            raise InvalidProofError(f"proof step {index}: unknown clause {clause_id!r}")
        missing = clause.antecedents - proved
        if missing:
            raise InvalidProofError(
                f"proof step {index}: clause {clause_id!r} needs unproved "
                f"antecedent {sorted(missing)[0]!r}"
            )
        proved.add(clause.consequent)


def derived_propositions(system: HornSystem, proof: tuple[str, ...]) -> tuple[str, ...]:
    """Distinct consequents of the proof, in first-derivation order."""
    seen: set[str] = set()
    ordered: list[str] = []
    for clause_id in proof:
        consequent = system.clauses[clause_id].consequent
        if consequent not in seen:
            seen.add(consequent)
            ordered.append(consequent)
    return tuple(ordered)


def horn_payoff(system: HornSystem, proof: tuple[str, ...]) -> float:
    """Total reward over distinct derived propositions."""
    validate_proof(system, proof)
    return ordered_sum(system.rewards.get(p, 0.0) for p in derived_propositions(system, proof))


def horn_cost(system: HornSystem, proof: tuple[str, ...], allocation: DefenseAllocation) -> float:
    """Sum of allocation over surface across clause occurrences (repeats count)."""
    validate_proof(system, proof)
    return ordered_sum(allocation.get(c) / system.clauses[c].surface for c in proof)


class GraphEmbedding(NamedTuple):
    """A graph system recast as Horn clauses, preserving cost and payoff.

    Each edge becomes a clause ``{src} -> dst`` with the same id and
    surface; one extra base clause (no antecedents) derives the start
    vertex and never receives allocation.  An edge allocation therefore
    prices the clauses unchanged.
    """

    horn: HornSystem
    start_clause: str

    def translate_attack(self, attack: Attack) -> tuple[str, ...]:
        return (self.start_clause,) + attack


def graph_to_horn(system: System) -> GraphEmbedding:
    start_clause = "derive-start"
    while system.has_edge(start_clause):
        start_clause = "_" + start_clause
    clauses = [HornClause(start_clause, frozenset(), system.start, 1.0)]
    clauses += (HornClause(e.id, frozenset({e.src}), e.dst, e.surface) for e in system.edges)
    horn = HornSystem({c.id: c for c in clauses}, system.rewards, system.budget)
    return GraphEmbedding(horn=horn, start_clause=start_clause)
