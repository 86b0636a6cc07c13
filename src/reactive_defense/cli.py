"""Command-line interface.

Subcommands: ``simulate`` plays a repeated game and records the trace;
``minimax`` and ``mincut`` print one-shot proactive allocations;
``verify-bounds`` replays a configured experiment and checks the
guarantee ceilings; ``lower-bound`` runs the two-route gap experiment;
``fixtures`` lists or emits the built-in systems.

Exit codes: 0 success, 2 bad input (unreadable or malformed files,
invalid systems, unknown policies, bad flags), 3 a checked ceiling was
violated, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .analysis import (
    exact_two_edge_gap,
    lower_bound_experiment,
    profit_regret,
    roa_ratio,
)
from .attackers import (
    Attacker,
    BestResponseAttacker,
    FixedSequenceAttacker,
    MultiAttacker,
    ObliviousAttacker,
    RandomPathAttacker,
)
from .defenders import (
    Defender,
    FixedDefender,
    KnownEdgesDefender,
    MyopicDefender,
    ReactiveDefender,
    mincut_perimeter_defense,
    minimax_proactive_defense,
    uniform_defense,
)
from .engine import run_game
from .fixtures import FIXTURES, fixture
from .io import (
    FileFormatError,
    load_config,
    load_fixed_allocation,
    resolve_system,
    save_system,
    write_trace,
)
from .model import InvalidAttackError, System, ValidationError
from .paths import EnumerationLimitError

DEFENDER_SPECS = (
    "reactive, known[:beta], uniform, myopic, minimax-roa, minimax-profit, "
    "mincut:<vertex>, fixed:<alloc.json>"
)
ATTACKER_SPECS = (
    "best-roa, best-profit, random, replay:<trace.csv>, "
    "oblivious-roa:<e1,e2,...>, oblivious-profit:<ids>, multi:<spec>+<spec>"
)


class CommandError(Exception):
    """CLI-level failure with an explicit exit code."""

    def __init__(self, exit_code: int, message: str):
        self.exit_code = exit_code
        super().__init__(message)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _out_dir(out: str | None) -> str:
    if out:
        return out
    return os.environ.get("REACTIVE_DEFENSE_OUT", "out")


def _require_graph(system, command: str) -> System:
    if not isinstance(system, System):
        raise CommandError(
            2, f"{command} needs a graph system; the given system is Horn-clause based"
        )
    return system


def build_defender(spec: str, system: System) -> Defender:
    """Construct a defender from a policy spec string."""
    name, _, arg = spec.partition(":")
    if name == "reactive":
        return ReactiveDefender()
    if name == "known":
        if not arg:
            return KnownEdgesDefender()
        try:
            beta = float(arg)
        except ValueError:
            raise ValueError(f"known defender takes a numeric beta, got {arg!r}") from None
        return KnownEdgesDefender(beta)
    if name == "uniform":
        return FixedDefender(uniform_defense, {"policy": "uniform"})
    if name == "myopic":
        return MyopicDefender()
    if name in ("minimax-roa", "minimax-profit"):
        objective = name.removeprefix("minimax-")
        return FixedDefender(
            lambda view: minimax_proactive_defense(view, objective).allocation,
            {"policy": "minimax", "objective": objective},
        )
    if name == "mincut":
        if not arg:
            raise ValueError("mincut defender needs a target: mincut:<vertex>")
        return FixedDefender(
            lambda view: mincut_perimeter_defense(view, arg),
            {"policy": "mincut", "target": arg},
        )
    if name == "fixed":
        if not arg:
            raise ValueError("fixed defender needs a file: fixed:<alloc.json>")
        allocation = load_fixed_allocation(arg, system.budget)
        return FixedDefender(lambda view: allocation, {"policy": "fixed"})
    raise ValueError(f"unknown defender {spec!r}; known: {DEFENDER_SPECS}")


def build_attacker(spec: str) -> Attacker:
    """Construct an attacker from a policy spec string."""
    name, _, arg = spec.partition(":")
    if name == "best-roa":
        return BestResponseAttacker("roa")
    if name == "best-profit":
        return BestResponseAttacker("profit")
    if name == "random":
        return RandomPathAttacker()
    if name == "replay":
        if not arg:
            raise ValueError("replay attacker needs a file: replay:<trace.csv>")
        return FixedSequenceAttacker.from_trace_csv(arg)
    if name in ("oblivious-roa", "oblivious-profit"):
        if not arg:
            raise ValueError(f"{name} needs edge ids: {name}:<e1,e2,...>")
        objective = name.removeprefix("oblivious-")
        return ObliviousAttacker(arg.split(","), objective)
    if name == "multi":
        if not arg:
            raise ValueError("multi attacker needs members: multi:<spec>+<spec>")
        return MultiAttacker([build_attacker(member) for member in arg.split("+")])
    raise ValueError(f"unknown attacker {spec!r}; known: {ATTACKER_SPECS}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args: argparse.Namespace) -> int:
    system = _require_graph(resolve_system(args.system), "simulate")
    defender = build_defender(args.defender, system)
    attacker = build_attacker(args.attacker)
    trace = run_game(system, defender, attacker, rounds=args.rounds, seed=args.seed)
    paths = write_trace(trace, _out_dir(args.out))
    costs = trace.costs()
    payoffs = trace.payoffs()
    print(f"rounds {trace.rounds}")
    print(f"total cost {_fmt(sum(costs))}")
    print(f"total payoff {_fmt(sum(payoffs))}")
    for key in ("trace", "allocations", "summary"):
        print(f"wrote {paths[key]}")
    return 0


def _cmd_minimax(args: argparse.Namespace) -> int:
    system = _require_graph(resolve_system(args.system), "minimax")
    result = minimax_proactive_defense(system, args.objective, limit=args.limit)
    print(f"objective {args.objective}")
    print(f"value {_fmt(result.value)}")
    for edge in system.edges:
        amount = result.allocation.get(edge.id)
        if amount > 0:
            print(f"d {edge.id} {_fmt(amount)}")
    return 0


def _cmd_mincut(args: argparse.Namespace) -> int:
    system = _require_graph(resolve_system(args.system), "mincut")
    allocation = mincut_perimeter_defense(system, args.target)
    print(f"target {args.target}")
    for edge in system.edges:
        amount = allocation.get(edge.id)
        if amount > 0:
            print(f"d {edge.id} {_fmt(amount)}")
    return 0


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    system = _require_graph(resolve_system(config.system), "verify-bounds")
    defender = build_defender(config.defender, system)
    attacker = build_attacker(config.attacker)
    trace = run_game(
        system, defender, attacker, rounds=config.rounds, seed=config.seed
    )
    reports = []
    for check in config.checks:
        if check == "profit_regret":
            reports.append(profit_regret(trace))
        else:
            reports.append(roa_ratio(trace, config.alpha))
    if args.out:
        out = Path(_out_dir(args.out))
        write_trace(trace, out)
        bounds_path = out / "bounds.json"
        bounds_path.write_text(
            json.dumps({"reports": [r.as_dict() for r in reports]}, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {bounds_path}")
    for report in reports:
        status = "PASS" if report.satisfied else "FAIL"
        print(
            f"{status} {report.name} measured={_fmt(report.measured)} "
            f"bound={_fmt(report.bound_rhs)}"
        )
    return 0 if all(r.satisfied for r in reports) else 3


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    if args.seeds == "exhaustive":
        gap = exact_two_edge_gap(args.rounds)
        print(f"rounds {args.rounds}")
        print(f"exact expected gap {_fmt(gap)}")
        return 0
    try:
        num_seeds = int(args.seeds)
    except ValueError:
        raise ValueError(
            f"--seeds takes a count or 'exhaustive', got {args.seeds!r}"
        ) from None
    stats = lower_bound_experiment(args.rounds, num_seeds, base_seed=args.base_seed)
    print(f"rounds {stats.rounds}")
    print(f"seeds {stats.num_seeds}")
    print(f"mean played cost {_fmt(stats.mean_played_cost)}")
    print(f"mean hindsight cost {_fmt(stats.mean_hindsight_cost)}")
    print(f"mean gap {_fmt(stats.mean_gap)}")
    print(f"gap per sqrt round {_fmt(stats.gap_per_sqrt_rounds)}")
    return 0


def _cmd_fixtures(args: argparse.Namespace) -> int:
    if args.emit is None:
        for name in sorted(FIXTURES):
            print(name)
        return 0
    out = Path(args.emit)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FileFormatError("E-IO", f"cannot create {out}: {exc}") from exc
    for name in sorted(FIXTURES):
        path = out / f"{name}.yaml"
        save_system(fixture(name), path, name=name, header=f"built-in fixture {name}")
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reactive-defense",
        description="Repeated attack-defense games with a learning reactive defender.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="play a repeated game and record the trace")
    p.add_argument("--system", required=True, help="fixture name or system file")
    p.add_argument("--defender", default="reactive", help=DEFENDER_SPECS)
    p.add_argument("--attacker", default="best-roa", help=ATTACKER_SPECS)
    p.add_argument("-T", "--rounds", type=int, required=True, help="number of rounds")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument(
        "--out", default=None, help="output directory (default $REACTIVE_DEFENSE_OUT or ./out)"
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("minimax", help="one-shot allocation optimizing the worst case")
    p.add_argument("--system", required=True, help="fixture name or system file")
    p.add_argument("--objective", choices=("roa", "profit"), default="roa")
    p.add_argument("--limit", type=int, default=10_000, help="path enumeration cap")
    p.set_defaults(func=_cmd_minimax)

    p = sub.add_parser("mincut", help="perimeter defense from a minimum cut")
    p.add_argument("--system", required=True, help="fixture name or system file")
    p.add_argument("--target", required=True, help="vertex to cut off from the start")
    p.set_defaults(func=_cmd_mincut)

    p = sub.add_parser("verify-bounds", help="check guarantee ceilings on a played game")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", default=None, help="also write trace and bounds.json here")
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("lower-bound", help="two-route regret gap experiment")
    p.add_argument("-T", "--rounds", type=int, required=True, help="rounds per run")
    p.add_argument(
        "--seeds",
        default="100",
        help="number of runs, or 'exhaustive' to enumerate all attack sequences",
    )
    p.add_argument("--base-seed", type=int, default=0)
    p.set_defaults(func=_cmd_lower_bound)

    p = sub.add_parser("fixtures", help="list built-in systems, or emit them as YAML")
    p.add_argument("--emit", default=None, metavar="DIR", help="write every fixture here")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (FileFormatError, ValidationError, InvalidAttackError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
