"""The cli-cold workload: each command in a fresh interpreter.

A pass is a cold ``import reactive_defense.cli`` (the set-up sample)
followed by three commands, each timed from spawn to exit:

- ``simulate --system fig2 -T 1000 --out <tmp>``;
- ``minimax --system <br-game system as YAML> --objective roa``;
- ``verify-bounds --config <appendix_b, best-roa, 200 rounds, both checks>``.

Traced passes run the same commands through cli_traced.py, and the
import under ``-X importtime`` for the scipy and networkx import times.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import inputs
import spans
from checks import minimax_problems
from proc import run_child
from reactive_defense.io import load_system
from reactive_defense.paths import PathSet

HERE = Path(__file__).resolve().parent


class CliCold:
    def __init__(self, root: Path, seed: int, tiny: bool, scratch: Path, spans_dir: Path,
                 deadline: float):
        self.root = root
        self.spans_prefix = spans_dir / f"cli-cold-seed{seed}"
        self.deadline = deadline
        self.scratch = scratch
        self.files = inputs.write_cli_inputs(seed, tiny, scratch)
        self.pathset = PathSet.enumerate(load_system(self.files["system"]))
        self.simulate_rounds = inputs.size("cli-cold", "simulate_rounds", tiny)
        self.verify_rounds = inputs.size("cli-cold", "verify_rounds", tiny)
        self.out = scratch / "simulate"
        self.commands = {
            "simulate": ["simulate", "--system", "fig2", "-T", str(self.simulate_rounds),
                         "--seed", str(seed), "--out", str(self.out)],
            "minimax": ["minimax", "--system", self.files["system"], "--objective", "roa"],
            "verify": ["verify-bounds", "--config", self.files["config"]],
        }

    def _run(self, cmd):
        return run_child([sys.executable, *cmd], self.root, self.scratch, self.deadline)

    def run_pass(self, traced: bool) -> dict:
        attempted = failed = 0
        problems: list[str] = []

        def op(name: str, found: list[str]) -> None:
            nonlocal attempted, failed
            attempted += 1
            if found:
                failed += 1
                problems.extend(f"{name}: {p}" for p in found)

        shutil.rmtree(self.out, ignore_errors=True)
        started = time.perf_counter()
        span_files = {}
        if traced:
            span_files = {name: Path(f"{self.spans_prefix}-{name}.json") for name in self.commands}
            for path in span_files.values():
                path.unlink(missing_ok=True)
        probe = self._run([*(["-X", "importtime"] if traced else []), "-c", "import reactive_defense.cli"])
        op("cold import", [] if probe.returncode == 0 else [f"exit {probe.returncode}: {probe.stderr[-500:]}"])
        done = {}
        for name, argv in self.commands.items():
            if traced:
                cmd = [str(HERE / "cli_traced.py"), "--spans", str(span_files[name]), "--", *argv]
            else:
                cmd = ["-m", "reactive_defense.cli", *argv]
            child = self._run(cmd)
            done[name] = child
            op(name, [] if child.returncode == 0 else [f"exit {child.returncode}: {child.stderr[-500:]}"])
        verify = done["verify"].stdout
        for check in ("profit-regret", "roa-ratio"):
            op(f"verify-bounds {check}", [] if f"PASS {check} " in verify else [f"no PASS line in {verify!r}"])
        op("minimax worst case", minimax_problems(done["minimax"].stdout, self.pathset))
        trace_csv = self.out / "trace.csv"
        rows = len(trace_csv.read_text(encoding="utf-8").splitlines()) - 1 if trace_csv.exists() else -1
        op("simulate trace.csv", [] if rows == self.simulate_rounds else [f"{rows} rounds written"])
        wall = time.perf_counter() - started
        sample = {
            "setup_s": probe.elapsed_s,
            "wall_s": wall,
            "peak_rss_mb": max(c.peak_rss_mb for c in (probe, *done.values())),
            "rounds": self.simulate_rounds + self.verify_rounds,
            "stages": {name: [c.elapsed_s] for name, c in done.items()},
            "play": ["simulate", "verify"],
        }
        digest = hashlib.sha256()
        for child in done.values():
            digest.update(child.stdout.encode())
        if trace_csv.exists():
            digest.update(trace_csv.read_bytes())
        result = {
            "traced": traced,
            "sample": sample,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "digests": [digest.hexdigest()],
        }
        if traced:
            result["layers"] = self._layers(span_files, probe, wall)
        return result

    def _layers(self, span_files: dict, probe, wall: float) -> dict:
        commands = [json.loads(path.read_text(encoding="utf-8")) for path in span_files.values() if path.exists()]
        layers = spans.layer_metrics(commands, wall)
        layers.update(spans.import_times(probe.stderr.splitlines()))
        layers["cli.import_s"] = statistics.median(doc["import_s"] for doc in commands) if commands else 0.0
        return layers
