"""Spans recorded around calls into the program, from outside it.

Only traced passes import this module's wrappers.  A span has a name
(``<layer>.<call>``, the layer being the program module called), start
and end in ``perf_counter_ns``, the span that was open when it began,
and the game it belongs to.  Spans stay in memory and are written out
once, after the pass is timed; per-layer metrics are derived from them
by ``layer_metrics``.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from typing import Any

NO_PARENT = -1


class Tracer:
    """Spans and counts of one process, kept in compact arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.games = array("i")
        self.counts: dict[str, int] = {}
        self.game = 0
        self._open = NO_PARENT

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._open)
        self.games.append(self.game)
        self.ends.append(0)
        self._open = index
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._open = self.parents[index]

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def as_doc(self) -> dict[str, Any]:
        return {
            "names": self.names,
            "spans": [
                list(row)
                for row in zip(self.name_ids, self.starts, self.ends, self.parents, self.games)
            ],
            "counts": self.counts,
        }


def wrap_function(tracer: Tracer, name: str, fn):
    return lambda *args, **kwargs: tracer.call(name, fn, *args, **kwargs)


def traced_policies(tracer: Tracer):
    """Defender and Attacker wrappers implementing the public ABCs."""
    from reactive_defense.attackers import Attacker
    from reactive_defense.defenders import Defender

    class TracedDefender(Defender):
        def __init__(self, inner: Defender):
            self._inner = inner

        @property
        def reactive(self) -> bool:
            return self._inner.reactive

        @property
        def last_beta(self):
            return self._inner.last_beta

        def start(self, view, horizon):
            return tracer.call("defenders.start", self._inner.start, view, horizon)

        def commit(self, round_index):
            return tracer.call("defenders.commit", self._inner.commit, round_index)

        def observe(self, feedback):
            return tracer.call("defenders.observe", self._inner.observe, feedback)

        def describe(self):
            return self._inner.describe()

    class TracedAttacker(Attacker):
        def __init__(self, inner: Attacker):
            self._inner = inner

        def start(self, system, rng, horizon):
            return tracer.call("attackers.start", self._inner.start, system, rng, horizon)

        def attack(self, allocation, round_index):
            return tracer.call("attackers.attack", self._inner.attack, allocation, round_index)

        def describe(self):
            return self._inner.describe()

    return TracedDefender, TracedAttacker


def install(tracer: Tracer) -> None:
    """Wrap the public functions the benchmark or the CLI calls."""
    from reactive_defense import analysis, cli, paths

    enumerate_paths = paths.PathSet.enumerate.__func__

    def traced_enumerate(cls, system, limit=paths.DEFAULT_ENUMERATION_LIMIT):
        index = tracer.begin("paths.enumerate")
        try:
            pathset = enumerate_paths(cls, system, limit)
        finally:
            tracer.end(index)
        tracer.count("paths.count", len(pathset.attacks))
        return pathset

    paths.PathSet.enumerate = classmethod(traced_enumerate)
    analysis.reactive_hidden_step = wrap_function(
        tracer, "analysis.step", analysis.reactive_hidden_step
    )
    cli.minimax_proactive_defense = wrap_function(
        tracer, "defenders.minimax", cli.minimax_proactive_defense
    )
    cli.resolve_system = wrap_function(tracer, "io.resolve_system", cli.resolve_system)
    cli.write_trace = traced_write_trace(tracer, cli.write_trace)
    cli.run_game = traced_run_game(tracer, cli.run_game)
    defender_type, attacker_type = traced_policies(tracer)
    build_defender, build_attacker = cli.build_defender, cli.build_attacker
    cli.build_defender = lambda spec, system: defender_type(build_defender(spec, system))
    cli.build_attacker = lambda spec: attacker_type(build_attacker(spec))


def traced_write_trace(tracer: Tracer, write_trace):
    def traced(trace, out_dir):
        index = tracer.begin("io.write_trace")
        try:
            written = write_trace(trace, out_dir)
        finally:
            tracer.end(index)
        tracer.count("io.trace_bytes", sum(p.stat().st_size for p in written.values()))
        return written

    return traced


def traced_run_game(tracer: Tracer, run_game):
    def traced(*args, **kwargs):
        tracer.game += 1
        index = tracer.begin("engine.run_game")
        try:
            trace = run_game(*args, **kwargs)
        finally:
            tracer.end(index)
        tracer.count("engine.rounds", trace.rounds)
        return trace

    return traced


# ---------------------------------------------------------------------------
# per-layer metrics


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def layer_metrics(docs: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the span documents of one traced pass."""
    durations: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    engine_self_ns = 0
    engine_ns = 0
    attacker_in_engine_ns = 0
    defender_in_engine_ns = 0
    loop_self_ns = 0
    round_us: list[float] = []
    for doc in docs:
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
        names = doc["names"]
        spans = doc["spans"]
        child_ns = [0] * len(spans)
        commit_starts: dict[int, list[int]] = {}
        for name_id, start, end, parent, game in spans:
            name = names[name_id]
            durations.setdefault(name, []).append((end - start) / 1e3)
            if parent != NO_PARENT:
                child_ns[parent] += end - start
                parent_name = names[spans[parent][0]]
                if parent_name == "engine.run_game":
                    if name.startswith("attackers."):
                        attacker_in_engine_ns += end - start
                    elif name.startswith("defenders."):
                        defender_in_engine_ns += end - start
            if name == "defenders.commit":
                commit_starts.setdefault(game, []).append(start)
        for index, (name_id, start, end, parent, game) in enumerate(spans):
            name = names[name_id]
            if name == "engine.run_game":
                engine_ns += end - start
                engine_self_ns += end - start - child_ns[index]
                marks = commit_starts.get(game, []) + [end]
                round_us.extend((b - a) / 1e3 for a, b in zip(marks, marks[1:]))
            elif name == "analysis.lower_bound_experiment":
                loop_self_ns += end - start - child_ns[index]

    def total_s(name: str) -> float:
        return sum(durations.get(name, ())) / 1e6

    rounds = counts.get("engine.rounds", 0)
    lb_rounds = counts.get("analysis.rounds", 0)
    return {
        "io.resolve_system_s": total_s("io.resolve_system"),
        "io.write_trace_s": total_s("io.write_trace"),
        "io.trace_bytes": counts.get("io.trace_bytes", 0),
        "io.write_trace_pct_of_wall": 100.0 * total_s("io.write_trace") / wall_s,
        "paths.enumerate_s": total_s("paths.enumerate"),
        "paths.count": counts.get("paths.count", 0),
        "attackers.attack_us.p50": _p50(durations.get("attackers.attack", [])),
        "attackers.attack_us.p99": _p99(durations.get("attackers.attack", [])),
        "attackers.calls": len(durations.get("attackers.attack", [])),
        "attackers.pct_of_run_game": 100.0 * attacker_in_engine_ns / engine_ns if engine_ns else 0.0,
        "defenders.commit_us.p50": _p50(durations.get("defenders.commit", [])),
        "defenders.commit_us.p99": _p99(durations.get("defenders.commit", [])),
        "defenders.observe_us.p50": _p50(durations.get("defenders.observe", [])),
        "defenders.observe_us.p99": _p99(durations.get("defenders.observe", [])),
        "defenders.start_s": total_s("defenders.start") + total_s("defenders.minimax"),
        "engine.round_us.p50": _p50(round_us),
        "engine.round_us.p99": _p99(round_us),
        "engine.self_us_per_round": engine_self_ns / 1e3 / rounds if rounds else 0.0,
        "engine.rounds": rounds,
        "engine.self_plus_defenders_pct_of_run_game": (
            100.0 * (engine_self_ns + defender_in_engine_ns) / engine_ns if engine_ns else 0.0
        ),
        "analysis.step_us.p50": _p50(durations.get("analysis.step", [])),
        "analysis.step_us.p99": _p99(durations.get("analysis.step", [])),
        "analysis.loop_self_us_per_round": loop_self_ns / 1e3 / lb_rounds if lb_rounds else 0.0,
        "analysis.profit_regret_s": total_s("analysis.profit_regret"),
    }


def import_times(importtime_lines: list[str]) -> dict[str, float]:
    """Cumulative import seconds of scipy and networkx from ``-X importtime``.

    Only outermost entries count: a scipy module imported while another
    scipy module was importing is already inside that one's cumulative time.
    """
    rows = []
    for line in importtime_lines:
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    totals = {"scipy": 0.0, "networkx": 0.0}
    # Lines come children first; walking backwards visits each parent
    # before its children, so a stack of open ancestors is enough.
    stack: list[tuple[int, str]] = []
    for depth, cumulative_us, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        if package in totals and not any(p == package for _, p in stack):
            totals[package] += cumulative_us / 1e6
        stack.append((depth, package))
    return {"cli.import_scipy_s": totals["scipy"], "cli.import_networkx_s": totals["networkx"]}
