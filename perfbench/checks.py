"""Output checks.  Each returns a list of problems; an empty list passes.

The best-response oracle is independent of ``PathSet`` and
``select_best_response``: it enumerates attacks with its own depth-first
walk and accepts an attack whose value is the best, and whose cost is
the lowest among the best, each within 1e-9 relative.
"""

from __future__ import annotations

import math

import numpy as np

from reactive_defense.model import FEASIBILITY_RTOL, System

REL_TOL = 1e-9
CHUNK_ROUNDS = 100


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def own_attacks(system: System) -> list[tuple[str, ...]]:
    """Every edge-simple attack from the start, as edge-id tuples."""
    out: dict[str, list] = {}
    for e in system.edges:
        out.setdefault(e.src, []).append(e)
    found: list[tuple[str, ...]] = []
    prefix: list[str] = []

    def extend(vertex: str) -> None:
        for e in out.get(vertex, ()):
            if e.id in prefix:
                continue
            prefix.append(e.id)
            found.append(tuple(prefix))
            extend(e.dst)
            prefix.pop()

    extend(system.start)
    return found


class BestResponseOracle:
    """Checks that every round of a played game is a best response."""

    def __init__(self, system: System):
        self.system = system
        self.attacks = own_attacks(system)
        self.index = {path: i for i, path in enumerate(self.attacks)}
        edge_ids = [e.id for e in system.edges]
        self.column = {eid: j for j, eid in enumerate(edge_ids)}
        rates = np.zeros((len(self.attacks), len(edge_ids)))
        pays = np.zeros(len(self.attacks))
        for i, path in enumerate(self.attacks):
            reached = {system.edge(eid).dst for eid in path}
            pays[i] = sum(system.reward(v) for v in reached if v != system.start)
            for eid in path:
                rates[i, self.column[eid]] = 1.0 / system.surface(eid)
        self.rates_t = rates.T.copy()
        self.pays = pays

    def _tied(self, costs: np.ndarray, objective: str) -> np.ndarray:
        """Mask of the best responses per row of a (rounds x attacks) cost
        matrix: the best value, then the lowest cost among those, each
        within 1e-9 relative."""
        pays = np.broadcast_to(self.pays, costs.shape)
        if objective == "profit":
            values = pays - costs
        else:
            free = (pays > 0) & (costs == 0.0)
            ratio = np.divide(pays, costs, out=np.zeros_like(costs), where=costs > 0)
            values = np.where(free, math.inf, ratio)
            # With nothing worth attacking, the largest payoff (zero) wins.
            hopeless = ~(values > 0).any(axis=1)
            values[hopeless] = pays[hopeless]
        best = values.max(axis=1, keepdims=True)
        finite_best = np.where(np.isfinite(best), best, 0.0)
        tol = REL_TOL * np.maximum(1.0, np.abs(finite_best))
        tied = (values == best) | (np.isfinite(best) & (values >= best - tol))
        cheapest = np.where(tied, costs, math.inf).min(axis=1, keepdims=True)
        return tied & (costs <= cheapest + REL_TOL * np.maximum(1.0, cheapest))

    def problems(self, trace, objective: str) -> list[str]:
        """Rounds whose attack is not a best response, or whose logged
        cost is not the attack's cost.  Among responses tied within the
        tolerance the edge-id order is not checked here: the program
        compares exact floats, and the recorded reference games check
        the tie order exactly."""
        records = trace.records
        problems: list[str] = []
        for lo in range(0, len(records), CHUNK_ROUNDS):
            chunk = records[lo : lo + CHUNK_ROUNDS]
            alloc = np.zeros((len(chunk), len(self.column)))
            for r, record in enumerate(chunk):
                for eid, amount in record.allocation.alloc.items():
                    alloc[r, self.column[eid]] = amount
            costs = alloc @ self.rates_t
            tied = self._tied(costs, objective)
            for r, record in enumerate(chunk):
                played = self.index.get(record.attacks[0].path)
                if played is None or not tied[r, played]:
                    best = self.attacks[int(tied[r].argmax())]
                    problems.append(
                        f"round {record.round_index}: played {record.attacks[0].path}, "
                        f"a best {objective} response is {best}"
                    )
                elif not _close(record.cost, float(costs[r, played])):
                    problems.append(
                        f"round {record.round_index}: logged cost {record.cost!r}, "
                        f"oracle cost {float(costs[r, played])!r}"
                    )
                if len(problems) >= 5:
                    return problems
        return problems


def allocation_problems(trace, reactive: bool) -> list[str]:
    """Every allocation feasible; a reactive one only on revealed edges."""
    system = trace.system
    edge_ids = set(system.edge_ids)
    limit = system.budget * (1.0 + FEASIBILITY_RTOL)
    revealed: set[str] = set()
    problems: list[str] = []
    for record in trace.records:
        alloc = record.allocation.alloc
        total = 0.0
        for eid, amount in alloc.items():
            if eid not in edge_ids:
                problems.append(f"round {record.round_index}: allocation on unknown edge {eid!r}")
            if not (math.isfinite(amount) and amount >= 0.0):
                problems.append(f"round {record.round_index}: amount {amount!r} on {eid!r}")
            if reactive and amount > 0.0 and eid not in revealed:
                problems.append(f"round {record.round_index}: {eid!r} defended before it was revealed")
            total += amount
        if total > limit:
            problems.append(f"round {record.round_index}: total {total!r} over budget {system.budget!r}")
        for attack in record.attacks:
            revealed.update(attack.path)
        if len(problems) >= 5:
            break
    return problems


def minimax_problems(stdout: str, pathset) -> list[str]:
    """The printed roa minimax value equals the brute-force worst case of
    the printed allocation over every enumerated attack."""
    value = None
    alloc: dict[str, float] = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["value"] and len(parts) == 2:
            value = float(parts[1])
        elif parts[:1] == ["d"] and len(parts) == 3:
            alloc[parts[1]] = float(parts[2])
    if value is None:
        return ["minimax printed no value"]
    system = pathset.system
    worst = 0.0
    for attack, pay in zip(pathset.attacks, pathset.payoffs):
        if pay <= 0:
            continue
        cost = sum(alloc.get(eid, 0.0) / system.surface(eid) for eid in attack.path)
        worst = max(worst, math.inf if cost == 0.0 else float(pay) / cost)
    # The allocation is printed to 12 significant digits and the LP is
    # solved to its feasibility tolerance, hence the looser match.
    if not math.isclose(worst, value, rel_tol=1e-6):
        return [f"minimax value {value!r}, brute-force worst case {worst!r}"]
    return []
