"""Core model: functionals, validation, allocation feasibility."""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import attack_sequence
from reactive_defense import fixture
from reactive_defense.model import (
    FEASIBILITY_RTOL,
    Attack,
    DefenseAllocation,
    Edge,
    InvalidAttackError,
    System,
    ValidationError,
    attack_vertices,
    cost,
    cumulative_roa,
    ensure_valid_system,
    ordered_sum,
    payoff,
    profit,
    restrict_edges,
    roa,
    validate_attack,
    validate_system,
    zero_allocation,
)
from reactive_defense.generators import random_system


def test_fixture_systems_are_valid():
    from reactive_defense.fixtures import FIXTURES

    for name in FIXTURES:
        ensure_valid_system(fixture(name))


def test_build_infers_vertices():
    system = System.build(edges=[("e1", "s", "a", 2.0)], rewards={"b": 1.0})
    assert system.vertices == frozenset({"s", "a", "b"})
    assert system.start == "s"
    assert system.reward("a") == 0.0
    assert system.reward("b") == 1.0


def test_out_edges_sorted_by_id():
    system = System.build(
        edges=[("z", "s", "a", 1.0), ("a", "s", "a", 1.0), ("m", "s", "a", 1.0)]
    )
    assert [e.id for e in system.out_edges("s")] == ["a", "m", "z"]
    assert system.start_edges() == system.out_edges("s")
    assert system.out_edges("a") == ()


def test_layered_chain_shape():
    system = fixture("fig2")
    assert system.vertices == frozenset({"s", "front", "db"})
    assert system.edge_ids == ("left", "right")
    assert system.budget == 10.0
    assert system.surface("left") == 5.0
    assert system.surface("right") == 5.0 / 9.0
    assert system.reward("front") == 1.0
    assert system.reward("db") == 9.0


def test_attack_truth_follows_its_length():
    assert bool(Attack(())) is False
    assert bool(Attack(("a",))) is True


def test_payoff_counts_distinct_vertices():
    system = fixture("fig2")
    assert payoff(system, Attack(())) == 0.0
    assert payoff(system, Attack(("left",))) == 1.0
    assert payoff(system, Attack(("left", "right"))) == 10.0


def test_payoff_ignores_vertex_revisits():
    system = System.build(
        edges=[
            ("out", "s", "a", 1.0),
            ("back", "a", "s", 1.0),
            ("again", "s", "a", 1.0),
        ],
        rewards={"a": 7.0},
    )
    walk = Attack(("out", "back", "again"))
    assert payoff(system, walk) == 7.0
    assert attack_vertices(system, walk) == ("s", "a")


def test_cost_is_surface_weighted():
    system = fixture("fig2")
    split = DefenseAllocation({"left": 5.0, "right": 5.0}, budget=10.0)
    assert cost(system, Attack(("left",)), split) == 1.0
    # 5 / (5/9) lands exactly on 9.0 in binary floating point
    assert cost(system, Attack(("left", "right")), split) == 10.0
    assert profit(system, Attack(("left", "right")), split) == 0.0


def test_cost_and_payoff_sum_left_to_right():
    # sum() compensates rounding from Python 3.12 on and would give
    # 1.0000000000000002 here; 1.0 + 2**-53 rounds back to 1.0 at each step
    tiny = 2.0**-53
    system = System.build(
        edges=[("a", "s", "x", 1.0), ("b", "x", "y", 1.0), ("c", "y", "z", 1.0)],
        rewards={"x": 1.0, "y": tiny, "z": tiny},
        budget=2.0,
    )
    walk = Attack(("a", "b", "c"))
    amounts = DefenseAllocation({"a": 1.0, "b": tiny, "c": tiny}, budget=2.0)
    assert cost(system, walk, amounts) == 1.0
    assert payoff(system, walk) == 1.0
    assert ordered_sum([tiny, tiny, 1.0]) == 1.0 + 2 * tiny


def test_roa_extended_real_conventions():
    system = fixture("fig2")
    free = zero_allocation(system.budget)
    all_left = DefenseAllocation({"left": 10.0}, budget=10.0)

    assert roa(system, Attack(("left",)), free) == math.inf
    assert roa(system, Attack(("left",)), all_left) == 0.5
    value = roa(system, Attack(("left", "right")), all_left)
    assert value == 10.0 / 2.0

    bare = System.build(edges=[("e", "s", "a", 1.0)], budget=1.0)
    assert roa(bare, Attack(("e",)), DefenseAllocation({"e": 1.0}, 1.0)) == 0.0
    marker = roa(bare, Attack(("e",)), zero_allocation(1.0))
    assert math.isnan(marker)
    with pytest.raises(ValueError):
        roa(system, Attack(()), free)


def test_cumulative_roa_matches_fraction_oracle():
    payoffs = [1.0, 10.0, 0.0]
    costs = [0.5, 2.0, 1.0]
    oracle = Fraction(11) / Fraction(7, 2)
    assert cumulative_roa(payoffs, costs) == pytest.approx(float(oracle), rel=1e-15)
    assert cumulative_roa([0.0], [1.0]) == 0.0
    assert cumulative_roa([1.0], [0.0]) == math.inf
    assert math.isnan(cumulative_roa([0.0, 0.0], [0.0, 0.0]))
    with pytest.raises(ValueError):
        cumulative_roa([], [])
    with pytest.raises(ValueError):
        cumulative_roa([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        cumulative_roa([-1.0], [1.0])


def test_validate_attack_errors_name_the_first_bad_edge():
    system = fixture("fig2")
    with pytest.raises(InvalidAttackError, match="unknown edge 'ghost'"):
        validate_attack(system, Attack(("ghost",)))
    with pytest.raises(InvalidAttackError, match="'left' used twice"):
        validate_attack(system, Attack(("left", "left")))
    with pytest.raises(InvalidAttackError, match="starts at 'front'"):
        validate_attack(system, Attack(("right",)))
    # the empty path is a valid attack that pays nothing; only the engine
    # refuses to play it
    validate_attack(system, Attack(()))


def test_allocation_feasibility():
    with pytest.raises(ValueError, match="negative"):
        DefenseAllocation({"e": -0.25}, budget=1.0)
    with pytest.raises(ValueError, match="exceeds budget"):
        DefenseAllocation({"e": 1.0 + 3e-9}, budget=1.0)
    with pytest.raises(ValueError, match="budget must be positive"):
        DefenseAllocation({}, budget=0.0)
    with pytest.raises(ValueError, match="NaN"):
        DefenseAllocation({"e": math.nan}, budget=1.0)
    with pytest.raises(ValueError, match="budget must be positive"):
        DefenseAllocation({}, budget=math.nan)
    # an infinite budget would admit infinite amounts, priced 0 * inf = NaN
    with pytest.raises(ValueError, match="budget must be positive"):
        DefenseAllocation({"e1": math.inf}, math.inf)
    # slack admits rounding noise but nothing more
    inside = DefenseAllocation({"e": 1.0 + 0.5 * FEASIBILITY_RTOL}, budget=1.0)
    assert inside.total() > 1.0
    assert inside.support() == ("e",)
    assert zero_allocation(3.0).total() == 0.0
    assert zero_allocation(3.0).get("anything") == 0.0


def test_validation_codes():
    cases = {
        "E-BUDGET": System.build(edges=[("e", "s", "a", 1.0)], budget=0.0),
        "E-START": System(frozenset({"a"}), (), {}, "s", 1.0),
        "E-START-REWARD": System.build(
            edges=[("e", "s", "a", 1.0)], rewards={"s": 1.0}
        ),
        "E-REWARD": System.build(edges=[("e", "s", "a", 1.0)], rewards={"a": -1.0}),
        "E-VERTEX": System(
            frozenset({"s", "a"}), (), {"ghost": 1.0}, "s", 1.0
        ),
        "E-EDGE-ID": System.build(
            edges=[("e", "s", "a", 1.0), ("e", "s", "a", 2.0)]
        ),
        "E-SURFACE": System.build(edges=[("e", "s", "a", -1.0)]),
        "E-ID": System.build(edges=[("bad id", "s", "a", 1.0)]),
    }
    from reactive_defense.model import Edge

    cases["E-ENDPOINT"] = System(
        frozenset({"s"}), (Edge("e", "s", "ghost", 1.0),), {}, "s", 1.0
    )
    for code, system in cases.items():
        codes = {v.code for v in validate_system(system)}
        assert code in codes, f"{code} not reported, got {codes}"
    with pytest.raises(ValidationError) as err:
        ensure_valid_system(cases["E-SURFACE"])
    assert "E-SURFACE" in err.value.codes
    # each reward is finite, but a payoff could sum them to inf
    overflow = System.build(
        edges=[("e", "s", "a", 1.0), ("f", "a", "b", 1.0)],
        rewards={"a": 1e308, "b": 1e308},
    )
    assert [(v.code, v.message) for v in validate_system(overflow)] == [
        ("E-REWARD", "rewards must have a finite total, got inf")
    ]


def test_ids_ending_in_newline_are_not_plain_tokens():
    # "$" would match before a trailing newline; ids must match whole.
    for system, message in [
        (System.build(edges=[("e1\n", "s", "r", 1.0)]), "edge id 'e1\\n'"),
        (System.build(edges=[("e1", "s", "r\n", 1.0)]), "vertex id 'r\\n'"),
    ]:
        violations = [(v.code, v.message) for v in validate_system(system)]
        assert violations == [("E-ID", f"{message} is not a plain token")]


def test_restrict_edges():
    system = fixture("fig2")
    sub = restrict_edges(system, ["left"])
    assert sub.edge_ids == ("left",)
    assert sub.vertices == system.vertices
    assert sub.budget == system.budget
    with pytest.raises(KeyError):
        restrict_edges(system, ["ghost"])


# Each slotted value class: constructor arguments given as lists and
# dicts, arguments that differ in one field, one field with the
# immutable value it is stored as, and arguments the constructor refuses
# with their exact messages.
_SLOTTED = {
    "Attack": (Attack, (["a", "b"],), (["a"],), "path", ("a", "b"), []),
    "DefenseAllocation": (
        DefenseAllocation,
        ({"e": 0.5}, 1.0),
        ({"e": 0.5}, 2.0),
        "alloc",
        MappingProxyType({"e": 0.5}),
        [
            (({"e": -0.25}, 1.0), "negative or NaN allocation -0.25 on 'e'"),
            (({"e": math.nan}, 1.0), "negative or NaN allocation nan on 'e'"),
            (({"e": 0.75, "f": 0.5}, 1.0), "allocation total 1.25 exceeds budget 1.0"),
            (({}, 0.0), "budget must be positive, got 0.0"),
            (({"e": math.inf}, math.inf), "budget must be positive, got inf"),
        ],
    ),
    "System": (
        System,
        (["s", "x"], [Edge("e", "s", "x", 1.0)], {"x": 1.0}, "s", 1.0),
        (["s", "x"], [Edge("e", "s", "x", 1.0)], {"x": 1.0}, "s", 2.0),
        "vertices",
        frozenset({"s", "x"}),
        [],
    ),
}


@pytest.mark.parametrize("name", sorted(_SLOTTED))
def test_slotted_value_classes(name):
    cls, args, other_args, field, stored, refused = _SLOTTED[name]
    value = cls(*args)
    assert type(getattr(value, field)) is type(stored)
    assert getattr(value, field) == stored
    twin = cls(*args)
    assert twin is not value and twin == value and not twin != value
    assert cls(*other_args) != value and not cls(*other_args) == value
    # A mapping field makes a value unhashable, as a dict does.
    if name == "Attack":
        assert hash(twin) == hash(value)
    assert repr(value).startswith(f"{name}(") and f"{field}={stored!r}" in repr(value)
    assert copy.copy(value) == value
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, stored)
    with pytest.raises(AttributeError):
        value.extra = 1
    for bad_args, message in refused:
        with pytest.raises(ValueError) as caught:
            cls(*bad_args)
        assert str(caught.value) == message


# ---------------------------------------------------------------------------
# properties


@st.composite
def _system_attack_allocations(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    system = random_system(rng, max_extra_edges=9)
    attack = attack_sequence(system, rng, 1)[0]
    amounts = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=len(system.edges),
            max_size=len(system.edges),
        )
    )
    scale = system.budget / (2.0 * max(sum(amounts), 1.0))
    alloc = {e.id: a * scale for e, a in zip(system.edges, amounts)}
    return system, attack, alloc


@given(_system_attack_allocations())
@settings(max_examples=100, deadline=None)
def test_cost_additive_in_allocation(case):
    system, attack, alloc = case
    half = DefenseAllocation({k: v / 2.0 for k, v in alloc.items()}, system.budget)
    full = DefenseAllocation(alloc, system.budget)
    assert cost(system, attack, full) == pytest.approx(
        2.0 * cost(system, attack, half), rel=1e-9, abs=1e-12
    )
    assert profit(system, attack, full) == payoff(system, attack) - cost(
        system, attack, full
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_payoff_equals_distinct_reward_sum(seed):
    rng = random.Random(seed)
    system = random_system(rng, max_extra_edges=9)
    attack = attack_sequence(system, rng, 1)[0]
    # rewards are integer-valued, so the sum is exact in floating point
    expected = sum(sorted(system.reward(v) for v in attack_vertices(system, attack)))
    assert payoff(system, attack) == expected


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_random_systems_validate(seed):
    system = random_system(random.Random(seed))
    assert validate_system(system) == []
