"""Reference outputs recorded from the program, and the checks against them.

``reference.json`` holds, for fixed inputs that do not depend on the
workload seed:

- the whole br-game game, T rounds of ``reactive`` against ``best-roa``
  and ``best-profit`` on the br-game default system: every attack and
  every per-round cost.  On a reactive roa game exact ties between
  responses last the whole game, so only the full sequence pins the
  tie order;
- ``gap_per_sqrt_rounds`` of ``lower_bound_experiment`` at
  ``REF_GAP``.

A change that alters best-response picks, the learner's arithmetic or
the experiment's random draws fails these checks.  Record them again,
on purpose, with ``python3 perfbench/golden.py --write`` from the
repository root (PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
REF_GAP = {"rounds": 2000, "num_seeds": 5, "base_seed": 0}
COST_RTOL = 1e-9


def _reference_games() -> dict[str, dict]:
    import inputs
    from reactive_defense.attackers import OBJECTIVES, BestResponseAttacker
    from reactive_defense.defenders import ReactiveDefender
    from reactive_defense.engine import run_game

    system = inputs.br_system(inputs.BR_DEFAULT_SEED)
    rounds = inputs.size("br-game", "rounds", tiny=False)
    games = {}
    for objective in OBJECTIVES:
        trace = run_game(system, ReactiveDefender(), BestResponseAttacker(objective), rounds)
        games[objective] = {
            "attacks": [";".join(r.attacks[0].path) for r in trace.records],
            "costs": trace.costs(),
        }
    return games


def _reference_gap() -> float:
    from reactive_defense.analysis import lower_bound_experiment

    return lower_bound_experiment(**REF_GAP).gap_per_sqrt_rounds


def br_problems() -> dict[str, list[str]]:
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))["br-game"]
    out = {}
    for objective, got in _reference_games().items():
        ref = want[objective]
        problems = []
        if len(got["attacks"]) != len(ref["attacks"]):
            problems.append(f"{len(got['attacks'])} rounds, reference {len(ref['attacks'])}")
        for t, (a, b, ca, cb) in enumerate(
            zip(got["attacks"], ref["attacks"], got["costs"], ref["costs"]), start=1
        ):
            if a != b:
                problems.append(f"round {t}: attack {a!r}, reference {b!r}")
            elif abs(ca - cb) > COST_RTOL * max(abs(ca), abs(cb)):
                problems.append(f"round {t}: cost {ca!r}, reference {cb!r}")
            if len(problems) >= 5:
                break
        out[objective] = problems
    return out


def gap_problems() -> list[str]:
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))["lower-bound"]["gap_per_sqrt_rounds"]
    got = _reference_gap()
    return [] if got == want else [f"gap_per_sqrt_rounds {got!r}, reference {want!r}"]


def replay_problems(rounds: int, seed: int) -> list[str]:
    """One experiment seed equals run_game with ReactiveDefender replaying
    the same draws, exactly."""
    from reactive_defense.analysis import lower_bound_experiment
    from reactive_defense.attackers import FixedSequenceAttacker, random_parallel_attack
    from reactive_defense.defenders import ReactiveDefender, hindsight_from_usage
    from reactive_defense.engine import run_game
    from reactive_defense.fixtures import two_parallel_edges

    system = two_parallel_edges()
    rng = random.Random(seed)
    draws = [random_parallel_attack(system, rng) for _ in range(rounds)]
    trace = run_game(system, ReactiveDefender(), FixedSequenceAttacker(draws), rounds, seed)
    played = sum(trace.costs())
    _, hindsight = hindsight_from_usage(system, trace.edge_usage())
    stats = lower_bound_experiment(rounds, 1, base_seed=seed)
    problems = []
    if stats.mean_played_cost != played:
        problems.append(f"played cost {stats.mean_played_cost!r}, engine replay {played!r}")
    if stats.mean_hindsight_cost != hindsight:
        problems.append(f"hindsight cost {stats.mean_hindsight_cost!r}, engine replay {hindsight!r}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="record reference.json")
    args = parser.parse_args()
    if not args.write:
        problems = [p for ps in br_problems().values() for p in ps] + gap_problems()
        print("\n".join(problems) or "reference outputs match")
        return 1 if problems else 0
    doc = {"br-game": _reference_games(), "lower-bound": {**REF_GAP, "gap_per_sqrt_rounds": _reference_gap()}}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
