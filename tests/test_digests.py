"""Exact output bits: sha256 digests of games and commands.

The reference checks in ``perfbench/golden.py`` compare costs only to a
relative tolerance; these digests pin every byte.  ``GAMES`` pins the
files ``write_trace`` makes for four short games on generated systems.
``digests.json`` pins one digest per command run: a grid of
``simulate`` runs over every fixture, defender kind and attacker kind,
``minimax`` on three br-game systems, and the README's ``verify-bounds``
run.  Each covers the exit code, stdout (with the output directory
written as ``<out>``), stderr and every output file.  A change that
moves any output bit fails here.  Record the digests again only on
purpose, with ``PYTHONPATH=src python tests/test_digests.py --write``,
and name every changed run and its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest

from reactive_defense import fixture
from reactive_defense.cli import build_attacker, build_defender, main
from reactive_defense.engine import run_game
from reactive_defense.fixtures import FIXTURES
from reactive_defense.generators import random_system
from reactive_defense.io import save_system, write_trace

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).with_name("digests.json")


def _br_system():
    # The br-game default system of perfbench: 20 edges, 3727 attacks.
    return random_system(random.Random(26), 30, 10)


GAMES = {
    "reactive-best-roa": (
        _br_system,
        "reactive",
        "best-roa",
        300,
        {
            "trace": "c5f4a0125aa0c1d6480136459411f0782870f4caf80b96fdfa8250da6728374c",
            "allocations": "2ab98075ff4f830190a198332314de7bbcee76e5d3461df9781543abdf1137ad",
            "summary": "6a1849524d7124ab9cb3a6b2ffcfcb0ed7d0c4d49f84301b1fb2b35dd0ca1e2b",
        },
    ),
    "reactive-best-profit": (
        _br_system,
        "reactive",
        "best-profit",
        300,
        {
            "trace": "8ae77db528b57566c883f2192da768ac99596b1df868d50050264167ff6c6abc",
            "allocations": "ceff396cd19b4e155acafef53bb289d3054bf6e2b8045f7ee4fbd544e4073a81",
            "summary": "85b9ce33a2fa6324f928da1665073fb509552d3e715c09d2930f35a580c3cdcf",
        },
    ),
    "minimax-roa-best-roa": (
        # The minimax LP reads its allocation off the simplex tableau, with
        # no BLAS or LAPACK call, so these bits hold on every kernel.
        _br_system,
        "minimax-roa",
        "best-roa",
        300,
        {
            "trace": "f960d2f7635ddc0883a39d9d57d85ed3e032ec5fc1559d338d9542a51d81f8f1",
            "allocations": "fe5c721be5bcac346b6658a6e3c721c732c2460cb5eddc825912fd147e4da0c9",
            "summary": "05ef39325dcb9738ac10822572dec6b3c452868af00261f3c3dc1d7ae11c6c8d",
        },
    ),
    "known-multi-random": (
        # 13 edges, 187 attacks.
        lambda: random_system(random.Random(4)),
        "known",
        "multi:random+random+random+random",
        300,
        {
            "trace": "802d05b62eef697e29bf7e067fc3d7c7b225ef7bfae8a83f3827b416b8d50fce",
            "allocations": "12644dc41e227a11a0369a26713b6aac1ae36ae1ee1bb8635de82e9e8555eb7c",
            "summary": "22c0c0696d67e4fd8675460ef4a9c00e5309791149d1168f84d9b0d6499ef602",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GAMES))
def test_trace_files_match_recorded_digests(name, tmp_path):
    make_system, defender, attacker, rounds, digests = GAMES[name]
    system = make_system()
    trace = run_game(
        system, build_defender(defender, system), build_attacker(attacker), rounds, seed=5
    )
    paths = write_trace(trace, tmp_path)
    found = {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()}
    assert found == digests


# ---------------------------------------------------------------------------
# command runs

GRID_DEFENDERS = ("reactive", "known", "uniform", "myopic", "minimax-roa", "minimax-profit", "mincut")
GRID_ATTACKERS = ("best-roa", "best-profit", "random", "multi:best-roa+random")
BR_SEEDS = (26, 7, 101)


def _perfbench_br_system(seed: int):
    # perfbench's br-game systems: seed 26 as drawn, other seeds relabelled.
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench/inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.br_system(seed)


def _readme_config() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (config,) = re.findall(r"^cat > experiment\.yaml <<'EOF'\n(.*?)^EOF$", readme, re.M | re.S)
    return config


def _simulate(system: str, defender: str, attacker: str):
    if defender == "mincut":
        rewards = fixture(system).rewards
        defender = "mincut:" + max(sorted(rewards), key=rewards.get)
    return lambda tmp: [
        "simulate", "--system", system, "--defender", defender, "--attacker", attacker,
        "-T", "300", "--seed", "3", "--out", str(tmp / "out"),
    ]


def _minimax(seed: int, objective: str):
    def argv(tmp):
        save_system(_perfbench_br_system(seed), tmp / "br-system.yaml")
        return ["minimax", "--system", str(tmp / "br-system.yaml"), "--objective", objective]

    return argv


def _verify_bounds(tmp):
    (tmp / "experiment.yaml").write_text(_readme_config(), encoding="utf-8")
    return ["verify-bounds", "--config", str(tmp / "experiment.yaml"), "--out", str(tmp / "out")]


RUNS = {
    **{
        f"simulate/{system}/{defender}/{attacker}": _simulate(system, defender, attacker)
        for system in sorted(FIXTURES)
        for defender in GRID_DEFENDERS
        for attacker in GRID_ATTACKERS
    },
    **{
        f"minimax/br{seed}/{objective}": _minimax(seed, objective)
        for seed in BR_SEEDS
        for objective in ("roa", "profit")
    },
    "verify-bounds/readme": _verify_bounds,
}


def run_digest(key: str, tmp: Path) -> str:
    """sha256 of one run's exit code, stdout, stderr and output files."""
    argv = RUNS[key](tmp)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out = tmp / "out"
    files = sorted(out.iterdir()) if out.exists() else []
    parts = [
        str(code).encode(),
        stdout.getvalue().replace(str(out), "<out>").encode(),
        stderr.getvalue().encode(),
        *(path.name.encode() + b"\0" + path.read_bytes() for path in files),
    ]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


def test_recorded_runs_are_the_runs():
    assert sorted(json.loads(RECORDED.read_text(encoding="utf-8"))) == sorted(RUNS)


@pytest.mark.parametrize("key", sorted(RUNS))
def test_run_matches_recorded_digest(key, tmp_path):
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    assert run_digest(key, tmp_path) == recorded[key], f"{key}: output bits changed"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_digests.py --write")
    digests = {}
    for key in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            digests[key] = run_digest(key, Path(tmp))
    RECORDED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {RECORDED}")
