"""Self-test of the benchmark at tiny sizes.  Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload prints every metric named in
BENCHMARK.json with its unit, traced and untraced; that a planted
fault (the br-game attacker misplays one round) fails the run; and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)
            print(f"FAIL {message}")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload} --trace {trace}"
            code, lines = bench("--workload", workload, "--seed", "7", "--trace", trace, "--tiny")
            expect(code == 0, f"{label}: exit {code}")
            if not lines:
                expect(False, f"{label}: no output")
                continue
            result = json.loads(lines[-1])
            expect(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: {result['failed']} of {result['attempted']} operations failed")
            metrics = result["metrics"]
            for metric in spec[group]:
                name, unit = metric["name"], metric["unit"]
                got = metrics.get(name)
                expect(got is not None and got["unit"] == unit, f"{label}: {name} missing or not in {unit}")
                expect(any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines),
                       f"{label}: {name} not printed with its unit")
                if group == "end_to_end" and got is not None:
                    expect(got["value"] > 0, f"{label}: {name} is {got['value']}")
            expect(set(metrics) == {m["name"] for m in spec[group]}, f"{label}: extra metrics")
            print(f"ok {label}")

    code, lines = bench("--workload", "br-game", "--seed", "7", "--trace", "0", "--tiny", "--plant-fault")
    result = json.loads(lines[-1]) if lines else {}
    expect(code != 0 and result.get("correct") is False and result.get("failed", 0) > 0,
           f"planted fault passed: exit {code}, result {result}")
    print("ok planted fault fails")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--workload", "br-game", "--seed", "7", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and not any(line.startswith("{\"correct\"") for line in lines),
           f"ran without sources: exit {code}")
    print("ok refuses to run without sources")

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
