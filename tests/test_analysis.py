"""Guarantee verification: regret, return ratios, game value, gap floor."""

from __future__ import annotations

import math
import random
import warnings

import pytest

from conftest import uniform_defender
from reactive_defense import (
    BestResponseAttacker,
    ReactiveDefender,
    fixture,
    profit_regret,
    run_game,
)
from reactive_defense.analysis import (
    exact_two_edge_gap,
    game_value,
    lower_bound_experiment,
    regret_curve,
    roa_ratio,
    roa_threshold_rounds,
)
from reactive_defense.attackers import (
    Attacker,
    FixedSequenceAttacker,
    RandomPathAttacker,
    random_parallel_attack,
)
from reactive_defense.defenders import FixedDefender
from reactive_defense.model import Attack, System, zero_allocation


def _unit_beta(num_edges: int, round_index: int) -> float:
    # written out locally so the oracle arithmetic is independent
    return 1.0 / (1.0 + math.sqrt(2.0 * math.log(num_edges) / (round_index + 1.0)))


def test_profit_regret_hand_case():
    system = fixture("appendix_b")
    moves = [Attack(("e1",)), Attack(("e1",)), Attack(("e2",)), Attack(("e1",))]
    trace = run_game(
        system, ReactiveDefender(), FixedSequenceAttacker(moves), rounds=4
    )
    report = profit_regret(trace)

    # round costs: 0 (undefended), 1 (all budget on e1), 0 (e2 still free),
    # then 1/(1+beta) once both edges share the budget
    beta = _unit_beta(2, 3)
    played = 1.0 + 1.0 / (1.0 + beta)
    best = 3.0
    assert report.measured == pytest.approx((best - played) / 4.0, rel=1e-12)
    assert report.bound_rhs == pytest.approx(
        math.sqrt(math.log(2.0) / 8.0) + (math.log(2.0) + 1.0) / 4.0, rel=1e-12
    )
    assert report.satisfied
    assert not report.undefined
    assert report.name == "profit-regret"
    assert report.inputs["budget"] == 1.0
    assert report.inputs["num_edges"] == 2
    assert report.inputs["rounds"] == 4
    assert report.as_dict()["satisfied"] is True

    # |E| counts every system edge, revealed or not: attacking only b0 of
    # the four-leaf star still gives ln 4 and mean(1/w) over four edges
    star = fixture("fig3_n4")
    moves = [Attack(("b0",))] * 3
    trace = run_game(star, ReactiveDefender(), FixedSequenceAttacker(moves), rounds=3)
    report = profit_regret(trace)
    mean_inverse = sum(1.0 / e.surface for e in star.edges) / 4.0
    assert report.inputs["num_edges"] == 4
    assert report.inputs["mean_inverse_surface"] == mean_inverse
    # round 1 is undefended, then the whole budget sits on b0
    assert report.measured == pytest.approx((3.0 - 2.0) / 3.0, rel=1e-12)
    assert report.bound_rhs == pytest.approx(
        math.sqrt(math.log(4.0) / 6.0) + (math.log(4.0) + mean_inverse) / 3.0,
        rel=1e-12,
    )


def test_profit_regret_frozen_ceiling():
    # budget 1, two unit edges, 100 rounds
    trace = run_game(
        fixture("appendix_b"),
        ReactiveDefender(),
        RandomPathAttacker(),
        rounds=100,
        seed=5,
    )
    report = profit_regret(trace)
    assert report.bound_rhs == pytest.approx(0.0758019729313732, rel=1e-13)
    assert report.satisfied


def test_profit_regret_requires_reactive_trace():
    trace = run_game(
        fixture("appendix_b"), uniform_defender(), RandomPathAttacker(), rounds=5
    )
    with pytest.raises(ValueError, match="reactive-hidden"):
        profit_regret(trace)


def test_sub_unit_surfaces_trigger_warning():
    trace = run_game(
        fixture("fig2"), ReactiveDefender(), BestResponseAttacker("roa"), rounds=5
    )
    with pytest.warns(RuntimeWarning, match="surfaces of at least 1"):
        profit_regret(trace)
    with pytest.warns(RuntimeWarning, match="surfaces of at least 1"):
        roa_ratio(trace, alpha=1.0)


def test_roa_ratio_accepts_fixed_defenses():
    # uniform defense on the 4-leaf star concedes exactly 4x the
    # concentrated allocation's return
    trace = run_game(
        fixture("fig3_n4"), uniform_defender(), BestResponseAttacker("roa"), rounds=16
    )
    report = roa_ratio(trace, alpha=1.0)
    assert report.measured == 4.0
    assert report.bound_rhs == 2.0
    assert not report.satisfied
    assert report.inputs["perimeter_surface"] == 4.0


def test_roa_ratio_undefined_on_free_rides():
    trace = run_game(
        fixture("appendix_b"),
        FixedDefender(lambda view: zero_allocation(1.0), {"policy": "noop"}),
        BestResponseAttacker("roa"),
        rounds=3,
    )
    report = roa_ratio(trace, alpha=0.5)
    assert report.undefined
    assert math.isnan(report.measured)
    assert not report.satisfied
    assert report.bound_rhs == 1.5
    with pytest.raises(ValueError, match="alpha"):
        roa_ratio(trace, alpha=0.0)


def test_roa_threshold_rounds():
    chain = System.build(
        edges=[("e1", "s", "a", 1.0), ("e2", "a", "b", 1.0)],
        rewards={"b": 1.0},
        budget=1.0,
    )
    assert roa_threshold_rounds(chain, alpha=1.0) == 235
    assert roa_threshold_rounds(fixture("appendix_b"), alpha=1.0) == 938
    # halving alpha roughly doubles the constant, quadrupling the rounds
    assert roa_threshold_rounds(chain, alpha=0.5) == math.ceil(
        (13.0 / math.sqrt(2.0) * 3.0) ** 2 * math.log(2.0)
    )
    with pytest.raises(ValueError, match="at least two edges"):
        roa_threshold_rounds(System.build(edges=[("e", "s", "a", 1.0)]), alpha=1.0)
    with pytest.raises(ValueError, match="alpha"):
        roa_threshold_rounds(chain, alpha=-1.0)
    detached = System.build(
        edges=[("e1", "a", "b", 1.0), ("e2", "b", "c", 1.0)], start="s"
    )
    with pytest.raises(ValueError, match="leave the start"):
        roa_threshold_rounds(detached, alpha=1.0)


def test_game_value_closed_form():
    parallel = game_value(fixture("appendix_b"))
    assert parallel.value == 0.5
    assert parallel.allocation.alloc == {"e1": 0.5, "e2": 0.5}

    chain = game_value(fixture("fig2"))
    assert chain.value == 2.0
    assert chain.allocation.alloc == {"left": 10.0}

    with pytest.raises(ValueError, match="leave the start"):
        game_value(System.build(edges=[("e", "a", "b", 1.0)], start="s"))


def test_game_value_witness_charges_every_start_edge():
    from conftest import sample_systems

    for _, system in sample_systems(10, base_seed=3300):
        result = game_value(system)
        for e in system.start_edges():
            assert result.allocation.get(e.id) / e.surface == pytest.approx(
                result.value, rel=1e-12
            )
        assert result.allocation.total() == pytest.approx(system.budget, rel=1e-12)


# Exact values recomputed independently by enumerating all 2^T sequences.
def test_exact_two_edge_gap_frozen_values():
    assert exact_two_edge_gap(1) == 0.5
    assert exact_two_edge_gap(2) == 0.5
    assert exact_two_edge_gap(3) == 0.75
    assert exact_two_edge_gap(4) == 0.75
    assert exact_two_edge_gap(6) == 0.9375
    with pytest.raises(ValueError):
        exact_two_edge_gap(0)
    with pytest.raises(ValueError):
        exact_two_edge_gap(31)


def test_exact_gap_matches_direct_enumeration():
    import itertools

    for rounds in (1, 2, 3, 5, 8):
        total = 0
        for sequence in itertools.product((0, 1), repeat=rounds):
            ones = sum(sequence)
            total += max(ones, rounds - ones)
        expected = total / 2.0**rounds - rounds / 2.0
        assert exact_two_edge_gap(rounds) == pytest.approx(expected, rel=1e-15)


def test_lower_bound_experiment_statistics():
    stats = lower_bound_experiment(rounds=16, num_seeds=40, base_seed=11)
    assert stats.rounds == 16
    assert stats.num_seeds == 40
    # exhausting defenders pay about (T-1)/2; round one is free
    assert 5.5 < stats.mean_played_cost < 9.5
    assert stats.mean_gap > 0.0
    assert stats.gap_per_sqrt_rounds == stats.mean_gap / 4.0
    assert stats.mean_hindsight_cost == pytest.approx(
        stats.mean_played_cost + stats.mean_gap, rel=1e-12
    )
    again = lower_bound_experiment(rounds=16, num_seeds=40, base_seed=11)
    assert again == stats
    with pytest.raises(ValueError):
        lower_bound_experiment(rounds=0, num_seeds=1)
    with pytest.raises(ValueError):
        lower_bound_experiment(rounds=1, num_seeds=0)


def test_lower_bound_loop_matches_engine():
    class ParallelAttacker(Attacker):
        def start(self, system, rng, horizon):
            self._system, self._rng = system, rng

        def attack(self, allocation, round_index):
            return random_parallel_attack(self._system, self._rng)

        def describe(self):
            return {"policy": "parallel"}

    seed = 123
    trace = run_game(
        fixture("appendix_b"),
        ReactiveDefender(),
        ParallelAttacker(),
        rounds=50,
        seed=seed,
    )
    stats = lower_bound_experiment(rounds=50, num_seeds=1, base_seed=seed)
    assert stats.mean_played_cost == pytest.approx(sum(trace.costs()), abs=1e-12)


def test_regret_curve_prefixes():
    system = fixture("appendix_b")
    moves = [Attack(("e1",)), Attack(("e2",)), Attack(("e1",)), Attack(("e1",))]
    trace = run_game(
        system, ReactiveDefender(), FixedSequenceAttacker(moves), rounds=4
    )
    curve = regret_curve(trace)
    assert curve.rounds == (1, 2, 3, 4)
    # round 1 is undefended, so its regret is the full hindsight cost
    assert curve.measured[0] == 1.0
    assert curve.bound[0] == pytest.approx(
        math.sqrt(math.log(2.0) / 2.0) + math.log(2.0) + 1.0, rel=1e-12
    )
    final = profit_regret(trace)
    assert curve.measured[-1] == pytest.approx(final.measured, rel=1e-12)
    assert curve.bound[-1] == pytest.approx(final.bound_rhs, rel=1e-12)
    assert all(b2 < b1 for b1, b2 in zip(curve.bound, curve.bound[1:]))
