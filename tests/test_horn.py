"""Horn-clause systems, proofs, and the graph embedding."""

from __future__ import annotations

import random

import pytest

from conftest import attack_sequence, sample_systems
from reactive_defense import fixture
from reactive_defense.horn import (
    HornClause,
    HornSystem,
    InvalidProofError,
    derived_propositions,
    graph_to_horn,
    horn_cost,
    horn_payoff,
    validate_proof,
)
from reactive_defense.model import (
    Attack,
    DefenseAllocation,
    System,
    cost,
    payoff,
    zero_allocation,
)


def horn_chain() -> HornSystem:
    """Three-clause derivation chain with reward on the final fact."""
    clauses = (
        HornClause("boot", frozenset(), "foothold", 2.0),
        HornClause("escalate", frozenset({"foothold"}), "admin", 1.0),
        HornClause("exfil", frozenset({"foothold", "admin"}), "data", 0.5),
    )
    return HornSystem(
        {c.id: c for c in clauses},
        rewards={"foothold": 0.0, "admin": 1.0, "data": 5.0},
        budget=2.0,
    )


def test_horn_chain_shape():
    system = horn_chain()
    assert tuple(system.clauses) == ("boot", "escalate", "exfil")
    assert system.budget == 2.0
    assert [i for i, c in system.clauses.items() if not c.antecedents] == ["boot"]
    assert system.clauses["exfil"].antecedents == frozenset({"foothold", "admin"})
    assert system.rewards["data"] == 5.0


def test_proof_validity():
    system = horn_chain()
    validate_proof(system, ("boot", "escalate", "exfil"))
    validate_proof(system, ())
    # clause repetition is allowed; antecedents must come strictly earlier
    validate_proof(system, ("boot", "boot", "escalate"))
    with pytest.raises(InvalidProofError, match="^proof step 0: unknown clause 'ghost'$"):
        validate_proof(system, ("ghost",))
    with pytest.raises(
        InvalidProofError,
        match="^proof step 0: clause 'escalate' needs unproved antecedent 'foothold'$",
    ):
        validate_proof(system, ("escalate",))
    with pytest.raises(
        InvalidProofError, match="^proof step 1: clause 'exfil' needs unproved antecedent 'admin'$"
    ):
        validate_proof(system, ("boot", "exfil"))


def test_horn_payoff_and_cost():
    system = horn_chain()
    proof = ("boot", "escalate", "exfil")
    assert horn_payoff(system, proof) == 6.0
    assert derived_propositions(system, proof) == ("foothold", "admin", "data")
    assert derived_propositions(system, ("boot", "escalate", "boot")) == ("foothold", "admin")
    alloc = DefenseAllocation({"boot": 1.0, "exfil": 1.0}, budget=2.0)
    # 1/2 for boot, 0 for escalate, 1/0.5 for exfil
    assert horn_cost(system, proof, alloc) == 2.5
    # repeated clauses are charged per occurrence
    assert horn_cost(system, ("boot", "boot"), alloc) == 1.0
    assert horn_payoff(system, ("boot", "boot")) == 0.0
    assert horn_payoff(system, ()) == 0.0
    with pytest.raises(InvalidProofError, match="unknown clause 'ghost'"):
        horn_cost(system, ("boot", "ghost"), alloc)


def test_graph_embedding_preserves_functionals():
    system = fixture("fig2")
    embedding = graph_to_horn(system)
    assert embedding.start_clause == "derive-start"
    # one clause per edge, keyed by its id, after the base clause
    assert embedding.horn.clauses == {
        "derive-start": HornClause("derive-start", frozenset(), "s", 1.0),
        "left": HornClause("left", frozenset({"s"}), "front", 5.0),
        "right": HornClause("right", frozenset({"front"}), "db", 5.0 / 9.0),
    }
    assert tuple(embedding.horn.clauses) == ("derive-start", "left", "right")
    assert embedding.horn.rewards == system.rewards
    assert embedding.horn.budget == system.budget

    attack = Attack(("left", "right"))
    proof = embedding.translate_attack(attack)
    assert proof == ("derive-start", "left", "right")

    alloc = DefenseAllocation({"left": 4.0, "right": 2.0}, budget=10.0)
    assert horn_payoff(embedding.horn, proof) == payoff(system, attack)
    assert horn_cost(embedding.horn, proof, alloc) == cost(system, attack, alloc)


def test_graph_embedding_on_random_systems():
    for seed, system in sample_systems(10, base_seed=4600):
        rng = random.Random(seed)
        embedding = graph_to_horn(system)
        alloc_amount = system.budget / max(len(system.edges), 1)
        alloc = DefenseAllocation(
            {e.id: alloc_amount / 2.0 for e in system.edges}, system.budget
        )
        for attack in attack_sequence(system, rng, 5):
            proof = embedding.translate_attack(attack)
            validate_proof(embedding.horn, proof)
            assert horn_payoff(embedding.horn, proof) == payoff(system, attack)
            assert horn_cost(embedding.horn, proof, alloc) == cost(system, attack, alloc)


def test_embedding_renames_start_clause_on_collision():
    system = fixture("fig2")
    clashing = System.build(
        edges=[("derive-start", "s", "a", 1.0)],
        rewards={"a": 1.0},
        budget=1.0,
    )
    embedding = graph_to_horn(clashing)
    assert embedding.start_clause == "_derive-start"
    proof = embedding.translate_attack(Attack(("derive-start",)))
    assert proof == ("_derive-start", "derive-start")
    assert horn_payoff(embedding.horn, proof) == 1.0
    # the base clause never carries allocation, so cost is unchanged
    assert horn_cost(embedding.horn, proof, zero_allocation(1.0)) == 0.0
    assert payoff(system, Attack(("left",))) == 1.0
