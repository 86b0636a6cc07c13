"""Benchmark of reactive-defense: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload br-game --seed 26 --seconds 20 --trace 0

Each pass runs in fresh processes, one at a time, and passes repeat
until ``--seconds`` have gone by (at least three, or four when traced).
With ``--trace 0`` the end-to-end metrics come from the untraced passes:
set-up time and peak RSS as medians, and the timed work as the sum of
each stage piece's fastest time over the passes (see ``end_to_end``).
With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics are the medians over the traced ones.  Every output
check counts as an operation; the last line of standard output is the
JSON result, and the exit code is 1 when any check failed.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

from proc import run_child
from spans import import_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("br-game", "wide-game", "lower-bound", "cli-cold")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "rounds/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_networkx_s": "s",
    "cli.cold_simulate_s": "s",
    "cli.cold_minimax_s": "s",
    "cli.cold_verify_s": "s",
    "cli.import_pct_of_cold_simulate": "%",
    "io.resolve_system_s": "s",
    "io.write_trace_s": "s",
    "io.trace_bytes": "bytes",
    "io.write_trace_pct_of_wall": "%",
    "paths.enumerate_s": "s",
    "paths.count": "count",
    "attackers.attack_us.p50": "us",
    "attackers.attack_us.p99": "us",
    "attackers.calls": "count",
    "attackers.pct_of_run_game": "%",
    "defenders.commit_us.p50": "us",
    "defenders.commit_us.p99": "us",
    "defenders.observe_us.p50": "us",
    "defenders.observe_us.p99": "us",
    "defenders.start_s": "s",
    "engine.round_us.p50": "us",
    "engine.round_us.p99": "us",
    "engine.self_us_per_round": "us",
    "engine.rounds": "count",
    "engine.self_plus_defenders_pct_of_run_game": "%",
    "analysis.step_us.p50": "us",
    "analysis.step_us.p99": "us",
    "analysis.loop_self_us_per_round": "us",
    "analysis.profit_regret_s": "s",
    "trace.overhead_s": "s",
}

# Passes stop being started after LAST_PASS_START_S, and a child still
# running at KILL_AFTER_S is killed, so a run ends inside 180 s.
LAST_PASS_START_S = 120.0
KILL_AFTER_S = 165.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def game_pass(args, k: int, traced: bool, extra: bool, scratch: Path, spans_dir: Path,
              deadline: float) -> dict:
    pass_dir = scratch / f"pass-{k}"
    pass_dir.mkdir()
    result_path = pass_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced)),
           "--extra", str(int(extra)), "--tmp", str(pass_dir), "--result", str(result_path)]
    if traced:
        cmd += ["--spans", str(spans_dir / f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant_fault:
        cmd.append("--plant-fault")
    child = run_child(cmd, ROOT, scratch, deadline)
    if child.stderr:
        print(child.stderr, end="", file=sys.stderr)
    if child.returncode != 0 or not result_path.exists():
        shutil.rmtree(pass_dir)
        return {"traced": traced, "attempted": 1, "failed": 1, "digests": [],
                "problems": [f"pass {k}: worker exited {child.returncode}"]}
    r = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(pass_dir)
    result = {"traced": traced, "attempted": r["attempted"], "failed": r["failed"],
              "problems": r["problems"], "digests": r.get("digests", [])}
    # An untraced pass whose timed stages all failed gives no sample.
    if "wall_s" in r and r["play_s"] > 0 and (traced or r["play"]):
        result["sample"] = {key: r[key] for key in
                            ("setup_s", "wall_s", "peak_rss_mb", "rounds", "stages", "play")}
    if traced and "layers" in r:
        # A separate probe gives the scipy and networkx import times, so
        # that -X importtime does not slow the timed worker's own import.
        probe = run_child([sys.executable, "-X", "importtime", "-c", "import reactive_defense.cli"],
                          ROOT, scratch, deadline)
        result["attempted"] += 1
        if probe.returncode != 0:
            result["failed"] += 1
            result["problems"].append(f"pass {k}: import probe exited {probe.returncode}")
        result["layers"] = {**r["layers"], **import_times(probe.stderr.splitlines()),
                            "cli.import_s": r["import_s"]}
    return result


def run_passes(args, started: float, scratch: Path, spans_dir: Path) -> list[dict]:
    deadline = started + KILL_AFTER_S
    cli = None
    if args.workload == "cli-cold":
        from clicold import CliCold

        cli = CliCold(ROOT, args.seed, args.tiny, scratch, spans_dir, deadline)
    minimum = 4 if args.trace else 3
    durations: list[float] = []
    results: list[dict] = []
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        t = time.perf_counter()
        if cli is not None:
            results.append(cli.run_pass(traced))
        else:
            results.append(game_pass(args, k, traced, k == 0, scratch, spans_dir, deadline))
        durations.append(time.perf_counter() - t)
        k += 1
        elapsed = time.perf_counter() - started
        if elapsed > LAST_PASS_START_S or (
            k >= minimum and elapsed + statistics.median(durations) > args.seconds
        ):
            return results


def fastest(samples: list[dict], stage: str) -> float:
    """A stage's time: each of its pieces at its fastest over the passes.

    Every pass plays the same inputs, so piece ``i`` of a stage is the
    same work in every pass.  The shared machine only ever adds time to
    a piece, and its slow spells last seconds, so the fastest of a short
    piece is a steadier estimate of the work than any whole-pass time.
    """
    pieces = [s["stages"][stage] for s in samples if stage in s["stages"]]
    if not pieces:
        return 0.0
    return sum(min(p[i] for p in pieces) for i in range(min(map(len, pieces))))


def end_to_end(samples: list[dict]) -> dict[str, float]:
    """End-to-end metrics over the untraced passes of a run.

    ``wall_s`` is a pass's wall time with each stage at its fastest:
    the fastest set-up, every stage's ``fastest`` time, and the fastest
    remainder (checks and bookkeeping between stages).  ``rounds_per_s``
    divides the rounds of a pass by the ``fastest`` time of its play
    stages.  ``setup_s`` is the median set-up time and ``peak_rss_mb``
    the median peak RSS.
    """
    stages = samples[0]["stages"]
    best = {stage: fastest(samples, stage) for stage in stages}
    rest = min(s["wall_s"] - s["setup_s"] - sum(map(sum, s["stages"].values())) for s in samples)
    play = sum(best[stage] for stage in samples[0]["play"])
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "wall_s": min(s["setup_s"] for s in samples) + sum(best.values()) + rest,
        "rounds_per_s": samples[0]["rounds"] / play,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def summarise(args, results: list[dict]) -> tuple[dict, int, int, list[str]]:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    # Every pass plays the same inputs, so every pass, traced or not,
    # must produce the same outputs as the first.
    reference = results[0]["digests"]
    for k, r in enumerate(results[1:], start=1):
        attempted += 1
        if r["digests"] != reference:
            failed += 1
            kind = "traced" if r["traced"] else "untraced"
            problems.append(f"pass {k} ({kind}): outputs differ from pass 0")
    untraced = [r["sample"] for r in results if not r["traced"] and "sample" in r]
    traced = [r for r in results if r["traced"] and "layers" in r]
    metrics: dict[str, float] = {}
    if not untraced or (args.trace and not traced):
        return metrics, attempted, max(failed, 1), problems + ["no complete pass"]
    if not args.trace:
        return end_to_end(untraced), attempted, failed, problems
    for name in PER_LAYER:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        metrics[name] = statistics.median(values) if values else 0
    for command in ("simulate", "minimax", "verify"):
        metrics[f"cli.cold_{command}_s"] = fastest(untraced, command)
    if metrics["cli.cold_simulate_s"]:
        metrics["cli.import_pct_of_cold_simulate"] = 100.0 * metrics["cli.import_s"] / metrics["cli.cold_simulate_s"]
    metrics["trace.overhead_s"] = statistics.median(
        r["sample"]["wall_s"] for r in traced if "sample" in r
    ) - statistics.median(s["wall_s"] for s in untraced)
    return metrics, attempted, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--plant-fault", action="store_true",
                        help="br-game: the attacker misplays one round (self-test)")
    args = parser.parse_args()
    started = time.perf_counter()

    src = ROOT / "src"
    if not (src / "reactive_defense" / "__init__.py").is_file():
        print(f"error: no program sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench"
    scratch = work / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans_dir = work / "spans"
    scratch.mkdir(parents=True, exist_ok=True)
    spans_dir.mkdir(exist_ok=True)
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = str(src)
    os.environ["PYTHONHASHSEED"] = "0"
    os.environ["TMPDIR"] = str(scratch)
    sys.path.insert(0, str(src))
    # Compiled modules are cached once, as an installed package's are.
    compileall.compile_dir(str(src), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    try:
        results = run_passes(args, started, scratch, spans_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics, attempted, failed, problems = summarise(args, results)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "passes": len(results)}))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"fail_ratio {failed / attempted!r} ({failed} failed of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
