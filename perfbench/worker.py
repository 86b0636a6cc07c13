"""One timed pass of a game or lower-bound workload, in a fresh process.

Started by run.py, never by hand.  The parent passes its
``perf_counter`` reading at spawn time in PERFBENCH_T0 (the clock is
CLOCK_MONOTONIC, shared by every process), so set-up time covers the
interpreter start, ``import reactive_defense`` and input generation.
The result, with every check's outcome, goes to the ``--result`` file.

Untraced passes also record *stages*: the timed work cut into short,
ordered pieces that are the same in every pass (blocks of rounds of a
game, one ``write_trace``, one experiment call).  run.py keeps each
piece's fastest time over the passes of a run; see README.md, Noise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import time
import traceback
from pathlib import Path


class Pass:
    """Timings, operation counts and check outcomes of one pass."""

    def __init__(self, args, tracer):
        self.args = args
        self.tracer = tracer
        self.t0 = float(os.environ["PERFBENCH_T0"])
        self.result = {
            "attempted": 0,
            "failed": 0,
            "problems": [],
            "rounds": 0,
            "play_s": 0.0,
            "stages": {},
            "play": [],
        }
        from reactive_defense.engine import run_game
        from reactive_defense.io import write_trace

        self._run_game, self._write_trace = run_game, write_trace
        if tracer is not None:
            from spans import traced_policies, traced_run_game, traced_write_trace

            self.defender_type, self.attacker_type = traced_policies(tracer)
            self._run_game = traced_run_game(tracer, run_game)
            self._write_trace = traced_write_trace(tracer, write_trace)

    # -- bookkeeping

    def op(self, name: str, problems: list[str], count: int = 1) -> bool:
        self.result["attempted"] += count
        if problems:
            self.result["failed"] += count
            self.result["problems"].extend(f"{name}: {p}" for p in problems)
        return not problems

    def attempt(self, name: str, fn, *args, count: int = 1, **kwargs):
        """Run one operation; an exception is that operation failing."""
        try:
            value = fn(*args, **kwargs)
        except Exception:
            self.op(name, [traceback.format_exc(limit=4)], count)
            return None
        self.op(name, [], count)
        return value

    def call(self, name: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def stage(self, name: str, durations: list[float], play: bool) -> None:
        """Record the ordered pieces of one timed stage of the pass."""
        self.result["stages"][name] = durations
        if play:
            self.result["play"].append(name)

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as one operation and one single-piece stage."""
        start = time.perf_counter()
        value = self.attempt(name, fn, *args, **kwargs)
        if value is not None and self.tracer is None:
            self.stage(name, [time.perf_counter() - start], play=False)
        return value

    def ready(self) -> None:
        self.result["setup_s"] = time.perf_counter() - self.t0

    def done(self) -> None:
        self.result["wall_s"] = time.perf_counter() - self.t0
        self.result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- program calls

    def play(self, name, system, defender, attacker, rounds, seed):
        blocks: list[float] = []
        if self.tracer is not None:
            defender = self.defender_type(defender)
            attacker = self.attacker_type(attacker)
        else:
            defender = clocked(defender, max(1, rounds // BLOCKS_PER_GAME), blocks)
        start = time.perf_counter()
        if self.tracer is None:
            defender.mark = start
        trace = self.attempt(f"{name}: game", self._run_game, system, defender, attacker, rounds, seed)
        end = time.perf_counter()
        if trace is not None:
            self.result["play_s"] += end - start
            self.result["rounds"] += trace.rounds
            if self.tracer is None:
                blocks.append(end - defender.mark)
                self.stage(f"{name}: game", blocks, play=True)
        return trace

    def write_trace(self, name, trace, out_dir):
        return self.timed(f"{name}: write_trace", self._write_trace, trace, out_dir)


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for r in trace.records:
        h.update(
            repr((r.round_index, [a.path for a in r.attacks], r.cost, r.payoff,
                  sorted(r.allocation.alloc.items()), r.newly_revealed, r.beta)).encode()
        )
    return h.hexdigest()


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


# A game's stage is cut into this many blocks of rounds, about 10 ms each.
BLOCKS_PER_GAME = 100


def clocked(inner, block: int, blocks: list[float]):
    """Untraced passes: a defender that times its game in blocks of rounds.

    Every ``block`` rounds it appends the time since ``mark`` to
    ``blocks`` and sets ``mark`` again.  The caller sets ``mark`` when
    the game starts and closes the last block when it ends.
    """
    from reactive_defense.defenders import Defender

    class Clocked(Defender):
        mark = 0.0
        rounds = 0

        @property
        def reactive(self) -> bool:
            return inner.reactive

        @property
        def last_beta(self):
            return inner.last_beta

        def start(self, view, horizon):
            return inner.start(view, horizon)

        def commit(self, round_index):
            if self.rounds and self.rounds % block == 0:
                now = time.perf_counter()
                blocks.append(now - self.mark)
                self.mark = now
            self.rounds += 1
            return inner.commit(round_index)

        def observe(self, feedback):
            return inner.observe(feedback)

        def describe(self):
            return inner.describe()

    return Clocked()


def misplay_once(inner):
    """Planted fault for the self-test: a non-best attack in round 5."""
    from checks import own_attacks
    from reactive_defense.attackers import Attacker
    from reactive_defense.model import Attack

    class MisplayOnce(Attacker):
        def start(self, system, rng, horizon):
            self.attacks = own_attacks(system)
            inner.start(system, rng, horizon)

        def attack(self, allocation, round_index):
            move = inner.attack(allocation, round_index)
            if round_index != 5:
                return move
            return Attack(next(path for path in self.attacks if path != move.path))

        def describe(self):
            return inner.describe()

    return MisplayOnce()


# ---------------------------------------------------------------------------
# workloads


def br_game(p: Pass) -> list[str]:
    import inputs
    from checks import BestResponseOracle
    from reactive_defense.analysis import profit_regret
    from reactive_defense.attackers import OBJECTIVES, BestResponseAttacker
    from reactive_defense.defenders import ReactiveDefender

    seed = p.args.seed
    system = inputs.br_system(seed)
    rounds = inputs.size("br-game", "rounds", p.args.tiny)
    p.ready()
    oracle = None
    traces = []
    for objective in OBJECTIVES:
        attacker = BestResponseAttacker(objective)
        if p.args.plant_fault:
            attacker = misplay_once(attacker)
        trace = p.play(objective, system, ReactiveDefender(), attacker, rounds, seed)
        if trace is None:
            continue
        report = p.call("analysis.profit_regret", profit_regret, trace)
        p.op(f"{objective}: profit regret", [] if report.satisfied else [
            f"measured {report.measured!r} over ceiling {report.bound_rhs!r}"])
        if oracle is None:
            oracle = BestResponseOracle(system)
        p.op(f"{objective}: best responses", oracle.problems(trace, objective))
        traces.append(trace)
    p.done()
    if p.args.extra:
        import golden

        for objective, problems in golden.br_problems().items():
            p.op(f"{objective}: reference game", problems)
    return [trace_digest(t) for t in traces]


def wide_game(p: Pass) -> list[str]:
    import inputs
    from checks import allocation_problems
    from reactive_defense.attackers import MultiAttacker, RandomPathAttacker
    from reactive_defense.defenders import KnownEdgesDefender, ReactiveDefender

    seed = p.args.seed
    system = inputs.wide_system(seed)
    rounds = inputs.size("wide-game", "rounds", p.args.tiny)
    games = {
        "reactive-random": (ReactiveDefender, lambda: RandomPathAttacker()),
        "known-multi": (
            KnownEdgesDefender,
            lambda: MultiAttacker([RandomPathAttacker() for _ in range(4)]),
        ),
    }
    out = Path(p.args.tmp)
    p.ready()
    written = {}
    for name, (defender, attacker) in games.items():
        trace = p.play(name, system, defender(), attacker(), rounds, seed)
        if trace is None:
            continue
        p.op(f"{name}: allocations", allocation_problems(trace, defender is ReactiveDefender))
        paths = p.write_trace(name, trace, out / name)
        if paths is not None:
            written[name] = paths
        del trace
    p.done()
    if p.args.extra:
        from reactive_defense.engine import run_game
        from reactive_defense.io import write_trace

        for name, (defender, attacker) in games.items():
            if name not in written:
                continue
            rerun = write_trace(run_game(system, defender(), attacker(), rounds, seed), out / f"rerun-{name}")
            same = rerun["trace"].read_bytes() == written[name]["trace"].read_bytes()
            p.op(f"{name}: rerun trace.csv", [] if same else ["rerun wrote a different trace.csv"])
    return [file_digest(paths[k] for k in ("trace", "allocations", "summary")) for paths in written.values()]


def lower_bound(p: Pass) -> list[str]:
    import math

    import inputs
    from reactive_defense.analysis import lower_bound_experiment

    seed = p.args.seed
    rounds = inputs.size("lower-bound", "rounds", p.args.tiny)
    seeds = inputs.size("lower-bound", "seeds", p.args.tiny)
    calls = inputs.size("lower-bound", "calls", p.args.tiny)
    p.ready()
    digests = []
    durations = []
    for call in range(calls):
        start = time.perf_counter()
        stats = p.attempt(
            "experiment seeds",
            p.call,
            "analysis.lower_bound_experiment",
            lower_bound_experiment,
            rounds,
            seeds,
            base_seed=seed + call * seeds,
            count=seeds,
        )
        if stats is None:
            continue
        durations.append(time.perf_counter() - start)
        p.result["rounds"] += rounds * seeds
        values = (stats.mean_played_cost, stats.mean_hindsight_cost, stats.mean_gap)
        consistent = (
            (stats.rounds, stats.num_seeds) == (rounds, seeds)
            and all(math.isfinite(v) for v in values)
            and math.isclose(stats.mean_gap, values[1] - values[0], rel_tol=1e-9, abs_tol=1e-9)
            and stats.gap_per_sqrt_rounds == stats.mean_gap / math.sqrt(rounds)
        )
        p.op("experiment summary", [] if consistent else [f"inconsistent statistics {stats!r}"])
        digests.append(repr(stats))
    p.result["play_s"] = sum(durations)
    if p.tracer is not None:
        p.tracer.count("analysis.rounds", p.result["rounds"])
    elif len(durations) == calls:
        p.stage("experiment", durations, play=True)
    p.done()
    if p.args.extra:
        import golden

        p.op("engine replay", golden.replay_problems(rounds, seed))
        p.op("reference gap", golden.gap_problems())
    return digests


WORKLOADS = {"br-game": br_game, "wide-game": wide_game, "lower-bound": lower_bound}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--extra", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--plant-fault", action="store_true")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import reactive_defense.cli  # noqa: F401  (the timed import)

    import_s = time.perf_counter() - start
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    p = Pass(args, tracer)
    p.result["import_s"] = import_s
    try:
        p.result["digests"] = WORKLOADS[args.workload](p)
    except Exception:
        p.op("pass", [traceback.format_exc(limit=6)])
    if tracer is not None and "wall_s" in p.result:
        doc = tracer.as_doc()
        p.result["layers"] = spans.layer_metrics([doc], p.result["wall_s"])
        if args.spans:
            Path(args.spans).write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    Path(args.result).write_text(json.dumps(p.result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
