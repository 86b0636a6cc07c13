"""Horn-clause generalization of the attack-graph model.

Clauses play the role of edges and valid proofs the role of paths: a proof
is an ordered clause list in which every antecedent was established by an
earlier clause.  Payoff sums rewards of distinct derived propositions;
cost charges each clause occurrence its allocation over surface.  A graph
system embeds exactly (one clause per edge plus a zero-cost base clause
for the start vertex), and the embedding preserves cost and payoff.

Horn systems are an in-memory model, built only by :func:`graph_to_horn`
from an already-validated graph system.  They are never read from a file
and never validated on their own.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType
from typing import NamedTuple

from .model import Attack, DefenseAllocation, Immutable, System, ordered_sum


class InvalidProofError(ValueError):
    """Raised for clause sequences that are not valid proofs."""


class HornClause(Immutable):
    """``antecedents -> consequent`` with a positive attack surface."""

    __slots__ = ("id", "antecedents", "consequent", "surface")

    def __init__(self, id: str, antecedents: Iterable[str], consequent: str, surface: float):
        set_field = object.__setattr__
        set_field(self, "id", id)
        set_field(self, "antecedents", frozenset(antecedents))
        set_field(self, "consequent", consequent)
        set_field(self, "surface", surface)


class HornSystem(Immutable):
    """Surfaced clauses, rewards on propositions, and a defense budget."""

    __slots__ = ("clauses", "rewards", "budget", "_clause_map")

    def __init__(self, clauses: Iterable[HornClause], rewards: Mapping[str, float], budget: float):
        clauses = tuple(clauses)
        set_field = object.__setattr__
        set_field(self, "clauses", clauses)
        set_field(self, "rewards", MappingProxyType(dict(rewards)))
        set_field(self, "budget", budget)
        set_field(self, "_clause_map", {c.id: c for c in clauses})

    def has_clause(self, clause_id: str) -> bool:
        return clause_id in self._clause_map

    def clause(self, clause_id: str) -> HornClause:
        try:
            return self._clause_map[clause_id]
        except KeyError:
            raise KeyError(f"unknown clause {clause_id!r}") from None

    def reward(self, proposition: str) -> float:
        return self.rewards.get(proposition, 0.0)


class Proof(Immutable):
    """Ordered clause-id list; validity is checked against a system."""

    __slots__ = ("clauses",)

    def __init__(self, clauses: Iterable[str]):
        object.__setattr__(self, "clauses", tuple(clauses))

    def __len__(self) -> int:
        return len(self.clauses)


def validate_proof(system: HornSystem, proof: Proof) -> None:
    """Raise ``InvalidProofError`` naming the first clause whose antecedents
    are not all established by strictly earlier clauses."""
    proved: set[str] = set()
    for index, clause_id in enumerate(proof.clauses):
        if not system.has_clause(clause_id):
            raise InvalidProofError(f"proof step {index}: unknown clause {clause_id!r}")
        clause = system.clause(clause_id)
        missing = clause.antecedents - proved
        if missing:
            raise InvalidProofError(
                f"proof step {index}: clause {clause_id!r} needs unproved "
                f"antecedent {sorted(missing)[0]!r}"
            )
        proved.add(clause.consequent)


def derived_propositions(system: HornSystem, proof: Proof) -> tuple[str, ...]:
    """Distinct consequents of the proof, in first-derivation order."""
    seen: set[str] = set()
    ordered: list[str] = []
    for clause_id in proof.clauses:
        consequent = system.clause(clause_id).consequent
        if consequent not in seen:
            seen.add(consequent)
            ordered.append(consequent)
    return tuple(ordered)


def horn_payoff(system: HornSystem, proof: Proof) -> float:
    """Total reward over distinct derived propositions."""
    validate_proof(system, proof)
    return ordered_sum(system.reward(p) for p in derived_propositions(system, proof))


def horn_cost(system: HornSystem, proof: Proof, allocation: DefenseAllocation) -> float:
    """Sum of allocation over surface across clause occurrences (repeats count)."""
    validate_proof(system, proof)
    return ordered_sum(allocation.get(c) / system.clause(c).surface for c in proof.clauses)


class GraphEmbedding(NamedTuple):
    """A graph system recast as Horn clauses, preserving cost and payoff.

    Each edge becomes a clause ``{src} -> dst`` with the same id and
    surface; one extra base clause (no antecedents) derives the start
    vertex and never receives allocation.  An edge allocation therefore
    prices the clauses unchanged.
    """

    horn: HornSystem
    start_clause: str

    def translate_attack(self, attack: Attack) -> Proof:
        return Proof((self.start_clause,) + attack.path)


def graph_to_horn(system: System) -> GraphEmbedding:
    start_clause = "derive-start"
    while system.has_edge(start_clause):
        start_clause = "_" + start_clause
    clauses = [HornClause(start_clause, frozenset(), system.start, 1.0)]
    clauses += (HornClause(e.id, frozenset({e.src}), e.dst, e.surface) for e in system.edges)
    horn = HornSystem(clauses, system.rewards, system.budget)
    return GraphEmbedding(horn=horn, start_clause=start_clause)
