"""Acceptance suite: the package's headline guarantees, end to end.

Each test checks one numbered claim about the implementation, prints a
single PASS line on success, and uses independent brute-force oracles
wherever the claim admits one.
"""

from __future__ import annotations

import math
import random
import time
import warnings

import numpy as np
import pytest

from conftest import attack_sequence, best_response, sample_systems, uniform_defender
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
    roa_ratio,
    roa_threshold_rounds,
)
from reactive_defense.attackers import MultiAttacker, RandomPathAttacker
from reactive_defense.defenders import (
    FixedDefender,
    HedgeLearner,
    beta_schedule,
    hindsight_from_usage,
    horizon_beta,
    mincut_perimeter_defense,
    minimax_proactive_defense,
    reactive_hidden_step,
)
from reactive_defense.engine import round_edge_usage
from reactive_defense.horn import graph_to_horn, horn_cost, horn_payoff, validate_proof
from reactive_defense.model import (
    Attack,
    DefenseAllocation,
    cost,
    cumulative_roa,
    payoff,
    restrict_edges,
    roa,
)
from reactive_defense.generators import random_system
from reactive_defense.fixtures import star


def test_criterion_01_average_profit_regret_ceiling():
    """Reactive average-profit regret never exceeds its ceiling."""
    started = time.perf_counter()
    attackers = {
        "roa": lambda: BestResponseAttacker("roa"),
        "profit": lambda: BestResponseAttacker("profit"),
        "random": lambda: RandomPathAttacker(),
        "population": lambda: MultiAttacker(
            [
                BestResponseAttacker("roa"),
                BestResponseAttacker("profit"),
                RandomPathAttacker(),
            ]
        ),
    }
    games = 0
    plan = [(10, 100, 100), (100, 50, 20_000), (1000, 20, 40_000)]
    for rounds, count, base_seed in plan:
        for seed, system in sample_systems(count, base_seed=base_seed, max_paths=500):
            for name, make in attackers.items():
                trace = run_game(
                    system, ReactiveDefender(), make(), rounds=rounds, seed=seed
                )
                report = profit_regret(trace)
                games += 1
                assert report.measured <= report.bound_rhs + 1e-9, (
                    f"regret ceiling violated: system seed {seed}, attacker {name}, "
                    f"T={rounds}: {report.measured} > {report.bound_rhs}"
                )
    elapsed = time.perf_counter() - started
    assert games >= 500
    assert elapsed < 60.0, f"regret sweep took {elapsed:.1f}s"
    print(f"PASS criterion 1: regret ceiling held in {games} games ({elapsed:.1f}s)")


def test_criterion_02_cumulative_return_ratio_at_threshold():
    """Past the threshold length, the reactive defender concedes at most
    (1 + alpha) times the best fixed allocation's cumulative return."""
    started = time.perf_counter()
    checked = []
    for name in ("fig2", "fig3_n4"):
        system = fixture(name)
        for alpha in (0.5, 1.0):
            rounds = roa_threshold_rounds(system, alpha)
            trace = run_game(
                system,
                ReactiveDefender(),
                BestResponseAttacker("roa"),
                rounds=rounds,
                seed=0,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report = roa_ratio(trace, alpha)
            assert not report.undefined
            assert report.measured <= 1.0 + alpha + 1e-9, (
                f"{name}, alpha={alpha}, T={rounds}: "
                f"ratio {report.measured} > {1 + alpha}"
            )
            checked.append((name, alpha, rounds, report.measured))
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"threshold games took {elapsed:.1f}s"
    summary = ", ".join(f"{n} a={a} T={t} ratio={m:.3f}" for n, a, t, m in checked)
    print(f"PASS criterion 2: {summary} ({elapsed:.1f}s)")


def _brute_force_cut_weight(system, target) -> float:
    middle = sorted(system.vertices - {system.start, target})
    best = math.inf
    for mask in range(2 ** len(middle)):
        near = {system.start}
        for i, vertex in enumerate(middle):
            if mask >> i & 1:
                near.add(vertex)
        weight = sum(
            e.surface for e in system.edges if e.src in near and e.dst not in near
        )
        best = min(best, weight)
    return best


def test_criterion_03_perimeter_defense_matches_exhaustive_cuts():
    """Min-cut perimeter defense: hand case, then exact agreement with cut
    enumeration on random graphs."""
    deep = mincut_perimeter_defense(fixture("fig2"), "db")
    assert deep.alloc == {"right": 10.0}

    checked = 0
    for seed, system in sample_systems(20, base_seed=60_000, max_extra_edges=9):
        target = system.edges[0].dst
        allocation = mincut_perimeter_defense(system, target)
        # the allocation's support is exactly the chosen cut; quarter-unit
        # surfaces make both sums exact, so equality is literal
        cut_weight = sum(system.surface(eid) for eid in allocation.support())
        assert cut_weight == _brute_force_cut_weight(system, target), (
            f"seed {seed}: cut {cut_weight} vs brute force"
        )
        checked += 1
    assert checked == 20
    print("PASS criterion 3: min cut equals exhaustive cut enumeration on 20 graphs")


def test_criterion_04_layered_chain_defense_in_depth():
    """Splitting across layers beats stacking either single edge."""
    system = fixture("fig2")
    result = minimax_proactive_defense(system, "roa")
    assert result.allocation.get("left") == pytest.approx(5.0, abs=1e-6)
    assert result.allocation.get("right") == pytest.approx(5.0, abs=1e-6)
    assert result.value == pytest.approx(1.0, abs=1e-6)

    all_left = best_response(system, DefenseAllocation({"left": 10.0}, 10.0), "roa")
    assert all_left.value == pytest.approx(5.0, abs=1e-9)

    all_right = best_response(system, DefenseAllocation({"right": 10.0}, 10.0), "roa")
    assert all_right.value == math.inf
    print("PASS criterion 4: even split concedes 1.0; stacked edges concede 5 and inf")


def test_criterion_05_star_separation_is_exactly_n():
    """Uniform defense on the n-leaf star concedes exactly n times the
    concentrated allocation's return; the reactive defender closes the gap."""
    rounds = 16
    for leaves in (2, 4, 8):
        system = star(leaves=leaves)
        uniform_trace = run_game(
            system, uniform_defender(system), BestResponseAttacker("roa"), rounds=rounds
        )
        report = roa_ratio(uniform_trace, alpha=1.0)
        assert report.measured == float(leaves)

        # same exact ratio via the two cumulative returns: the budget is
        # dyadic, so every quantity is exact in floating point
        rational, _ = hindsight_from_usage(system, uniform_trace.edge_usage())
        rational_trace = run_game(
            system,
            FixedDefender(rational, {"policy": "concentrated"}),
            BestResponseAttacker("roa"),
            rounds=rounds,
        )
        conceded_uniform = cumulative_roa(
            uniform_trace.payoffs(), uniform_trace.costs()
        )
        conceded_rational = cumulative_roa(
            rational_trace.payoffs(), rational_trace.costs()
        )
        assert conceded_uniform / conceded_rational == float(leaves)

        alpha = 1.0
        threshold = roa_threshold_rounds(system, alpha)
        reactive_trace = run_game(
            system,
            ReactiveDefender(),
            BestResponseAttacker("roa"),
            rounds=threshold,
            seed=0,
        )
        reactive_report = roa_ratio(reactive_trace, alpha)
        assert reactive_report.measured <= 1.0 + alpha + 1e-9, (
            f"star({leaves}), T={threshold}: {reactive_report.measured}"
        )
    print("PASS criterion 5: separation exactly n for n in (2, 4, 8); learner within 1+alpha")


def test_criterion_06_fork_objectives_disagree():
    """Profit-optimal and ratio-optimal allocations differ on the fork."""
    system = fixture("fig4")

    by_profit = minimax_proactive_defense(system, "profit")
    assert by_profit.value == pytest.approx(1.0, abs=1e-9)
    assert by_profit.allocation.get("left") == 0.0
    assert by_profit.allocation.get("right") == pytest.approx(9.0, abs=1e-9)
    assert roa(system, Attack(("left",)), by_profit.allocation) == math.inf

    by_ratio = minimax_proactive_defense(system, "roa")
    assert by_ratio.value == pytest.approx(11.0 / 9.0, rel=1e-9)
    assert by_ratio.value <= 1.25

    # brute-force grid over the one-dimensional allocation family
    right = np.linspace(0.0, 9.0, 9001)
    left = 9.0 - right
    with np.errstate(divide="ignore"):
        conceded = np.maximum(1.0 / left, 10.0 / right)
    grid_min = float(conceded.min())
    assert by_ratio.value <= grid_min + 1e-9
    assert grid_min == pytest.approx(11.0 / 9.0, abs=5e-3)
    print("PASS criterion 6: profit optimum (0, 9) at value 1; ratio optimum 11/9")


def test_criterion_07_revealed_subgraph_equivalence():
    """After any prefix, the hidden-edge learner's allocation equals a fresh
    known-edge learner on the revealed subgraph replaying that prefix."""
    sequences = 0
    for seed, system in sample_systems(100, base_seed=70_000, max_extra_edges=11):
        rng = random.Random(seed)
        attacks = attack_sequence(system, rng, 30)
        learner = HedgeLearner(system.budget)
        revealed: list[str] = []
        for k, attack in enumerate(attacks, start=1):
            for eid in attack:
                if eid not in revealed:
                    revealed.append(eid)
            surfaces = {eid: system.surface(eid) for eid in attack}
            hits = {eid: 1.0 for eid in attack}
            shares = reactive_hidden_step(learner, hits, surfaces)
            hidden = dict(zip(learner.index, shares))

            # Replay the prefix on the revealed subgraph by hand: each edge
            # holds beta ** score of the budget, score = -hits / surface.
            subgraph = restrict_edges(system, revealed)
            beta = beta_schedule(len(revealed), k)
            scores = {e.id: 0.0 for e in subgraph.edges}
            for earlier in attacks[:k]:
                for eid in earlier:
                    scores[eid] -= 1.0 / subgraph.surface(eid)
            z = sum(beta**score for score in scores.values())
            for eid in revealed:
                fresh = subgraph.budget * beta ** scores[eid] / z
                assert hidden[eid] == pytest.approx(fresh, abs=1e-9), (
                    f"seed {seed}, round {k}, edge {eid}"
                )
        sequences += 1
    assert sequences == 100
    print("PASS criterion 7: hidden learner matches revealed-subgraph replay, 100 sequences")


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


def test_criterion_08_single_round_game_value():
    """Closed-form game value matches brute-force maximin over allocations."""
    checked = 0
    base_seed = 80_000
    while checked < 20:
        base_seed += 1
        system = random_system(random.Random(base_seed))
        perimeter = system.start_edges()
        if not 1 <= len(perimeter) <= 4:
            continue
        value = game_value(system).value
        surfaces = [e.surface for e in perimeter]
        step = system.budget / 100.0
        best = 0.0
        for split in _compositions(100, len(perimeter)):
            worst = min(
                units * step / surface for units, surface in zip(split, surfaces)
            )
            best = max(best, worst)
        assert abs(value - best) <= 2.0 * system.budget / 100.0, (
            f"seed {base_seed}: closed form {value}, grid {best}"
        )
        checked += 1
    print("PASS criterion 8: game value within 2B/100 of grid maximin on 20 graphs")


def test_criterion_09_regret_floor_on_two_routes():
    """The gap to hindsight grows like sqrt(T) and cannot vanish."""
    started = time.perf_counter()
    stats = lower_bound_experiment(rounds=10_000, num_seeds=200, base_seed=0)
    low = 10_000 / 2.0 - 3.0 * math.sqrt(10_000)
    high = 10_000 / 2.0 + 3.0 * math.sqrt(10_000)
    assert low <= stats.mean_played_cost <= high, stats
    assert 0.3 <= stats.gap_per_sqrt_rounds <= 0.5, stats
    assert exact_two_edge_gap(2) == 0.5
    elapsed = time.perf_counter() - started
    print(
        f"PASS criterion 9: played {stats.mean_played_cost:.1f}, "
        f"gap/sqrt(T) {stats.gap_per_sqrt_rounds:.3f}, exact T=2 gap 0.5 ({elapsed:.1f}s)"
    )


def test_criterion_10_update_shift_invariance():
    """Fixed-rate updates are invariant to per-round constant shifts."""
    for trial in range(50):
        rng = random.Random(9_000 + trial)
        system = random_system(rng, max_extra_edges=9)
        horizon = 20
        surfaces = {e.id: e.surface for e in system.edges}
        beta = horizon_beta(len(surfaces), horizon)
        plain = HedgeLearner(system.budget, surfaces, fixed_beta=beta)
        shifted = HedgeLearner(system.budget, surfaces, fixed_beta=beta)
        for _ in range(horizon):
            column = {e.id: rng.uniform(-2.0, 2.0) for e in system.edges}
            offset = rng.uniform(-5.0, 5.0)
            plain.update(column)
            shifted.update({eid: value + offset for eid, value in column.items()})
            a = dict(zip(plain.index, plain.shares()))
            b = dict(zip(shifted.index, shifted.shares()))
            for e in system.edges:
                assert a[e.id] == pytest.approx(b[e.id], abs=1e-9), (
                    f"trial {trial}, edge {e.id}"
                )
    print("PASS criterion 10: shifted update columns leave all 50 trajectories unchanged")


def test_criterion_11_horn_embedding_preserves_the_game():
    """Graph systems embed into Horn systems without changing payoffs or
    costs, and a population round's per-edge usage masses lie in (0, 1]
    and sum to the round's mean attack length."""
    for seed, system in sample_systems(20, base_seed=110_000):
        rng = random.Random(seed)
        embedding = graph_to_horn(system)
        share = system.budget / (2.0 * len(system.edges))
        allocation = DefenseAllocation(
            {e.id: share * rng.random() for e in system.edges}, system.budget
        )
        for attack in attack_sequence(system, rng, 5):
            proof = embedding.translate_attack(attack)
            validate_proof(embedding.horn, proof)
            assert horn_payoff(embedding.horn, proof) == payoff(system, attack)
            assert horn_cost(embedding.horn, proof, allocation) == cost(
                system, attack, allocation
            )

        moves = attack_sequence(system, rng, rng.randint(1, 6))
        masses = round_edge_usage(moves)
        assert all(0.0 < m <= 1.0 for m in masses.values())
        mean_length = sum(len(a) for a in moves) / len(moves)
        assert abs(sum(masses.values()) - mean_length) <= 1e-12
    print(
        "PASS criterion 11: Horn embedding exact on 20 systems; "
        "usage masses sum to the mean attack length"
    )
