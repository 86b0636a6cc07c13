"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed.  The two game
systems are ``random_system(Random(26), 30, 10)`` (the ROADMAP baseline:
20 edges, 3727 attacks) and ``random_system(Random(29), 80, 40)``
(77 edges, 283 attacks).  The default seed plays them as drawn; any
other seed plays a relabelled copy: edge ids and vertex names are
permuted, so enumeration order, tie-breaking and every attack sequence
change while the size of the game does not.  Drawing systems until one
has 2000 to 10000 attacks would let the attack count, and with it the
best-response cost per round, vary fivefold between seeds; drawing until
one has 60 or more edges gave wide-game systems with only 3 attacks.
"""

from __future__ import annotations

import random

from reactive_defense.generators import random_system
from reactive_defense.io import save_system
from reactive_defense.model import System

BR_DEFAULT_SEED = 26
WIDE_DEFAULT_SEED = 29

# Per-workload sizes: (full, tiny).  Tiny sizes are for the self-test.
# The lower bound's 20 seeds run as 10 experiment calls of 2 seeds each,
# so that a pass has ten short timed pieces instead of one long one.
SIZES = {
    "br-game": {"rounds": (2000, 60)},
    "wide-game": {"rounds": (2000, 120)},
    "lower-bound": {"rounds": (10_000, 300), "seeds": (2, 2), "calls": (10, 2)},
    "cli-cold": {"simulate_rounds": (1000, 50), "verify_rounds": (200, 50)},
}


def size(workload: str, key: str, tiny: bool) -> int:
    return SIZES[workload][key][1 if tiny else 0]


def relabel(system: System, seed: int) -> System:
    """Isomorphic copy with edge ids and non-start vertex names permuted."""
    rng = random.Random(seed)
    edge_ids = [e.id for e in system.edges]
    new_ids = edge_ids[:]
    rng.shuffle(new_ids)
    edge_map = dict(zip(edge_ids, new_ids))
    names = sorted(v for v in system.vertices if v != system.start)
    new_names = names[:]
    rng.shuffle(new_names)
    vertex_map = dict(zip(names, new_names))
    vertex_map[system.start] = system.start
    rows = sorted(
        ((edge_map[e.id], vertex_map[e.src], vertex_map[e.dst], e.surface) for e in system.edges),
        key=lambda row: int(row[0][1:]),  # random_system names edges e0, e1, ...
    )
    return System.build(
        edges=rows,
        rewards={vertex_map[v]: system.reward(v) for v in names},
        start=system.start,
        budget=system.budget,
    )


def br_system(seed: int) -> System:
    base = random_system(random.Random(BR_DEFAULT_SEED), max_extra_edges=30, max_vertices=10)
    return base if seed == BR_DEFAULT_SEED else relabel(base, seed)


def wide_system(seed: int) -> System:
    base = random_system(random.Random(WIDE_DEFAULT_SEED), max_extra_edges=80, max_vertices=40)
    return base if seed == WIDE_DEFAULT_SEED else relabel(base, seed)


def write_cli_inputs(seed: int, tiny: bool, directory) -> dict[str, str]:
    """The minimax system file and the verify-bounds config for cli-cold."""
    system_path = directory / "br-system.yaml"
    save_system(br_system(seed), system_path, name=f"br-game-{seed}")
    config_path = directory / "verify.yaml"
    config_path.write_text(
        "format_version: 1\n"
        "system: appendix_b\n"
        "defender: reactive\n"
        "attacker: best-roa\n"
        f"rounds: {size('cli-cold', 'verify_rounds', tiny)}\n"
        f"seed: {seed}\n"
        "checks: [profit_regret, roa_ratio]\n"
        "alpha: 1.0\n",
        encoding="utf-8",
    )
    return {"system": str(system_path), "config": str(config_path)}
