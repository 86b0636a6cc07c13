#!/usr/bin/env python3
"""Two-route regret floor experiment: how the hindsight-minus-played cost
gap grows with the horizon.  Prints CSV; the normalized column should
hover near 1/sqrt(2 pi) (about 0.399).

Usage: python scripts/gap_experiment.py [--seeds 100]
"""

import argparse

from reactive_defense.analysis import exact_two_edge_gap, lower_bound_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument(
        "--rounds", type=int, nargs="*", default=[100, 400, 1600, 6400]
    )
    parser.add_argument("--base-seed", type=int, default=0)
    args = parser.parse_args()

    print("rounds,seeds,mean_played_cost,mean_hindsight_cost,mean_gap,gap_per_sqrt_rounds")
    for rounds in args.rounds:
        stats = lower_bound_experiment(rounds, args.seeds, base_seed=args.base_seed)
        print(
            f"{stats.rounds},{stats.num_seeds},{stats.mean_played_cost!r},"
            f"{stats.mean_hindsight_cost!r},{stats.mean_gap!r},"
            f"{stats.gap_per_sqrt_rounds!r}"
        )
    print(f"# exact two-round enumeration: expected gap {exact_two_edge_gap(2)!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
