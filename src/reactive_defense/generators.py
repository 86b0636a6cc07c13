"""Seeded random systems for tests and experiments."""

from __future__ import annotations

import random

from .model import Edge, System


# Chance that an extra edge copies an existing edge's endpoints.
_PARALLEL_CHANCE = 0.3


def random_system(
    rng: random.Random, max_extra_edges: int = 19, max_vertices: int = 8
) -> System:
    """Draw a small random system with at least one edge out of the start.

    Vertices are v0 (the start) through v{n-1}.  One guaranteed edge
    leaves the start so every system admits an attack; further edges pick
    endpoints uniformly, occasionally duplicating an existing pair to
    exercise parallel edges.  Surfaces land in [1, 10] as quarters so
    costs stay exactly representable, rewards are small nonnegative
    integers, and the start reward is zero.
    """
    num_vertices = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(num_vertices)]
    start = vertices[0]
    edges: list[Edge] = []

    def draw_surface() -> float:
        return rng.randint(4, 40) / 4.0

    edges.append(Edge("e0", start, rng.choice(vertices[1:]), draw_surface()))
    num_extra = rng.randint(0, max_extra_edges)
    for i in range(1, num_extra + 1):
        if edges and rng.random() < _PARALLEL_CHANCE:
            template = rng.choice(edges)
            src, dst = template.src, template.dst
        else:
            src = rng.choice(vertices)
            dst = rng.choice(vertices)
        edges.append(Edge(f"e{i}", src, dst, draw_surface()))
    rewards = {v: float(rng.randint(0, 20)) for v in vertices[1:]}
    budget = rng.randint(1, 40) / 4.0
    return System.build(edges=edges, rewards=rewards, start=start, budget=budget)
