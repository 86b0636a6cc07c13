"""Horn-clause systems, proofs, and the graph embedding."""

from __future__ import annotations

import random

import pytest

from conftest import attack_sequence, sample_systems
from reactive_defense import fixture
from reactive_defense.horn import (
    HornSystem,
    Proof,
    derived_propositions,
    graph_to_horn,
    horn_cost,
    horn_payoff,
    validate_horn_system,
    validate_proof,
)
from reactive_defense.model import (
    Attack,
    DefenseAllocation,
    InvalidProofError,
    cost,
    ensure_valid_system,
    payoff,
    validate_system,
    zero_allocation,
)


def test_horn_chain_shape():
    system = fixture("horn_chain")
    assert system.clause_ids == ("boot", "escalate", "exfil")
    assert system.budget == 2.0
    assert [c.id for c in system.base_clauses()] == ["boot"]
    assert system.clause("exfil").antecedents == frozenset({"foothold", "admin"})
    assert system.reward("data") == 5.0
    assert validate_system(system) == []


def test_proof_validity():
    system = fixture("horn_chain")
    validate_proof(system, Proof(("boot", "escalate", "exfil")))
    validate_proof(system, Proof(()))
    # clause repetition is allowed; antecedents must come strictly earlier
    validate_proof(system, Proof(("boot", "boot", "escalate")))
    with pytest.raises(InvalidProofError, match="unknown clause 'ghost'"):
        validate_proof(system, Proof(("ghost",)))
    with pytest.raises(InvalidProofError, match="'escalate'.*'foothold'"):
        validate_proof(system, Proof(("escalate",)))
    with pytest.raises(InvalidProofError, match="'exfil'.*'admin'"):
        validate_proof(system, Proof(("boot", "exfil")))


def test_horn_payoff_and_cost():
    system = fixture("horn_chain")
    proof = Proof(("boot", "escalate", "exfil"))
    assert horn_payoff(system, proof) == 6.0
    assert derived_propositions(system, proof) == ("foothold", "admin", "data")
    alloc = DefenseAllocation({"boot": 1.0, "exfil": 1.0}, budget=2.0)
    # 1/2 for boot, 0 for escalate, 1/0.5 for exfil
    assert horn_cost(system, proof, alloc) == 2.5
    # repeated clauses are charged per occurrence
    assert horn_cost(system, Proof(("boot", "boot")), alloc) == 1.0
    assert horn_payoff(system, Proof(("boot", "boot"))) == 0.0
    assert horn_payoff(system, Proof(())) == 0.0


def test_horn_validation_codes():
    bad = HornSystem.build(
        clauses=[
            ("c1", (), "p", -1.0),
            ("c1", ("p",), "q", 1.0),
            ("bad id", (), "r", 1.0),
        ],
        rewards={"ghost": -2.0},
        budget=0.0,
    )
    codes = {v.code for v in validate_horn_system(bad)}
    assert {"E-BUDGET", "E-SURFACE", "E-CLAUSE-ID", "E-ID", "E-REWARD"} <= codes
    # rewards on undeclared propositions
    lonely = HornSystem(frozenset({"p"}), (), {"q": 1.0}, 1.0)
    assert "E-PROP" in {v.code for v in validate_horn_system(lonely)}


def test_graph_embedding_preserves_functionals():
    system = fixture("fig2")
    embedding = graph_to_horn(system)
    ensure_valid_system(embedding.horn)
    assert embedding.start_clause == "derive-start"

    attack = Attack(("left", "right"))
    proof = embedding.translate_attack(attack)
    assert proof.clauses == ("derive-start", "left", "right")

    alloc = DefenseAllocation({"left": 4.0, "right": 2.0}, budget=10.0)
    translated = embedding.translate_allocation(alloc)
    assert horn_payoff(embedding.horn, proof) == payoff(system, attack)
    assert horn_cost(embedding.horn, proof, translated) == cost(system, attack, alloc)


def test_graph_embedding_on_random_systems():
    for seed, system in sample_systems(10, base_seed=4600):
        rng = random.Random(seed)
        embedding = graph_to_horn(system)
        ensure_valid_system(embedding.horn)
        alloc_amount = system.budget / max(len(system.edges), 1)
        alloc = DefenseAllocation(
            {e.id: alloc_amount / 2.0 for e in system.edges}, system.budget
        )
        translated = embedding.translate_allocation(alloc)
        for attack in attack_sequence(system, rng, 5):
            proof = embedding.translate_attack(attack)
            validate_proof(embedding.horn, proof)
            assert horn_payoff(embedding.horn, proof) == payoff(system, attack)
            assert horn_cost(embedding.horn, proof, translated) == pytest.approx(
                cost(system, attack, alloc), abs=1e-12
            )


def test_embedding_renames_start_clause_on_collision():
    system = fixture("fig2")
    from reactive_defense.model import System

    clashing = System.build(
        edges=[("derive-start", "s", "a", 1.0)],
        rewards={"a": 1.0},
        budget=1.0,
    )
    embedding = graph_to_horn(clashing)
    assert embedding.start_clause == "_derive-start"
    proof = embedding.translate_attack(Attack(("derive-start",)))
    assert horn_payoff(embedding.horn, proof) == 1.0
    # the base clause never carries allocation, so cost is unchanged
    assert horn_cost(embedding.horn, proof, zero_allocation(1.0)) == 0.0
    assert payoff(system, Attack(("left",))) == 1.0
