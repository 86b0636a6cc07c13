#!/usr/bin/env python3
"""Sweep game lengths and attacker policies on random systems; print the
measured average-profit regret next to its ceiling as CSV.

Usage: python scripts/regret_sweep.py [--systems 20] [--seed 0]
"""

import argparse
import random
import sys

from reactive_defense import (
    BestResponseAttacker,
    ReactiveDefender,
    profit_regret,
    run_game,
)
from reactive_defense.attackers import RandomPathAttacker
from reactive_defense.generators import random_system
from reactive_defense.paths import EnumerationLimitError, enumerate_attacks

ATTACKERS = {
    "best-roa": lambda: BestResponseAttacker("roa"),
    "best-profit": lambda: BestResponseAttacker("profit"),
    "random": lambda: RandomPathAttacker(),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--systems", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, nargs="*", default=[10, 100, 1000])
    args = parser.parse_args()

    rng = random.Random(args.seed)
    print("system,attacker,rounds,measured,bound,satisfied")
    produced = 0
    draw = 0
    while produced < args.systems:
        system_seed = rng.randrange(2**31)
        draw += 1
        if draw > 50 * args.systems:
            print("too many oversized systems drawn", file=sys.stderr)
            return 1
        system = random_system(random.Random(system_seed))
        try:
            enumerate_attacks(system, limit=2000)
        except EnumerationLimitError:
            continue
        produced += 1
        for name, make in ATTACKERS.items():
            for rounds in args.rounds:
                trace = run_game(
                    system, ReactiveDefender(), make(), rounds=rounds, seed=system_seed
                )
                report = profit_regret(trace)
                print(
                    f"{system_seed},{name},{rounds},{report.measured!r},"
                    f"{report.bound_rhs!r},{report.satisfied}"
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
