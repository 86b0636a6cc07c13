"""Command-line interface, end to end through main()."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import reactive_defense
from reactive_defense import fixture
from reactive_defense.io import load_system
from reactive_defense.cli import build_attacker, build_defender, main
from reactive_defense.attackers import (
    BestResponseAttacker,
    FixedSequenceAttacker,
    MultiAttacker,
    ObliviousAttacker,
    RandomPathAttacker,
)
from reactive_defense.defenders import (
    FixedDefender,
    KnownEdgesDefender,
    MyopicDefender,
    ReactiveDefender,
)
from reactive_defense.fixtures import FIXTURES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_writes_trace(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        capsys,
        "simulate",
        "--system",
        "fig2",
        "-T",
        "5",
        "--seed",
        "0",
        "--out",
        str(out),
    )
    assert code == 0
    assert "rounds 5" in stdout
    assert "total cost" in stdout
    assert (out / "trace.csv").exists()
    assert (out / "allocations.json").exists()
    assert (out / "summary.json").exists()


def test_simulate_rounds_alias(tmp_path, capsys):
    short = tmp_path / "short"
    long = tmp_path / "long"
    code_a, _, _ = run_cli(
        capsys, "simulate", "--system", "fig2", "-T", "4", "--out", str(short)
    )
    code_b, _, _ = run_cli(
        capsys, "simulate", "--system", "fig2", "--rounds", "4", "--out", str(long)
    )
    assert code_a == code_b == 0
    assert (short / "trace.csv").read_bytes() == (long / "trace.csv").read_bytes()


def test_simulate_reruns_are_byte_identical(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--system",
            "fig3_n4",
            "--attacker",
            "random",
            "-T",
            "30",
            "--seed",
            "11",
            "--out",
            str(d),
        )
        assert code == 0
    for name in ("trace.csv", "allocations.json", "summary.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_simulate_replay_reproduces_attacks(tmp_path, capsys):
    first = tmp_path / "first"
    code, _, _ = run_cli(
        capsys, "simulate", "--system", "fig2", "-T", "6", "--out", str(first)
    )
    assert code == 0
    second = tmp_path / "second"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--system",
        "fig2",
        "--attacker",
        f"replay:{first / 'trace.csv'}",
        "-T",
        "6",
        "--out",
        str(second),
    )
    assert code == 0
    # the replayed moves match the best responses they were recorded from,
    # so the whole trace reproduces
    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()


def test_simulate_env_var_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REACTIVE_DEFENSE_OUT", str(tmp_path / "from-env"))
    code, _, _ = run_cli(capsys, "simulate", "--system", "appendix_b", "-T", "2")
    assert code == 0
    assert (tmp_path / "from-env" / "trace.csv").exists()


def test_simulate_input_errors(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--system", "no-such", "-T", "3", "--out", str(tmp_path)
    )
    assert code == 2
    assert "neither a fixture" in err

    code, _, err = run_cli(
        capsys, "simulate", "--system", "fig2", "-T", "0", "--out", str(tmp_path)
    )
    assert code == 2
    assert "at least one round" in err

    code, _, err = run_cli(
        capsys,
        "simulate",
        "--system",
        "fig2",
        "--defender",
        "teleport",
        "-T",
        "3",
        "--out",
        str(tmp_path),
    )
    assert code == 2
    assert "unknown defender" in err

    code, _, err = run_cli(
        capsys,
        "simulate",
        "--system",
        "horn_chain",
        "-T",
        "3",
        "--out",
        str(tmp_path),
    )
    assert code == 2
    assert "Horn-clause" in err


def test_simulate_rejects_nan_fixed_allocation(tmp_path, capsys):
    alloc = tmp_path / "nan.json"
    alloc.write_text('{"left": NaN}')
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--system",
        "fig2",
        "--defender",
        f"fixed:{alloc}",
        "-T",
        "3",
        "--out",
        str(tmp_path / "run"),
    )
    assert code == 2
    assert "NaN" in err
    assert not (tmp_path / "run").exists()


def test_simulate_rejects_oversize_integer_fixed_allocation(tmp_path, capsys):
    alloc = tmp_path / "big.json"
    alloc.write_text('{"left": 1%s}' % ("0" * 400))
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--system",
        "fig2",
        "--defender",
        f"fixed:{alloc}",
        "-T",
        "2",
        "--out",
        str(tmp_path / "run"),
    )
    assert code == 2
    assert "E-SCHEMA" in err and "'edge left' must be a finite number" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "text, fragment",
    [
        (
            "start: s\nbudget: 1%s\nrewards: {a: 1.0}\n"
            "edges: [{id: e, src: s, dst: a, surface: 1.0}]\n" % ("0" * 400),
            "'budget' must be a finite number",
        ),
        (
            "start: s\nbudget: 1.0\nrewards: {a: 1.0e+308, b: 1.0e+308}\n"
            "edges: [{id: e, src: s, dst: a, surface: 1.0},"
            " {id: f, src: a, dst: b, surface: 1.0}]\n",
            "E-REWARD",
        ),
        (
            "budget: 1.0\nrewards: {p: 1.0e+308, q: 1.0e+308}\n"
            "clauses: [{id: c1, consequent: p, surface: 1.0},"
            " {id: c2, antecedents: [p], consequent: q, surface: 1.0}]\n",
            "E-REWARD",
        ),
    ],
)
def test_simulate_rejects_numbers_out_of_float_range(tmp_path, capsys, text, fragment):
    path = tmp_path / "big.yaml"
    path.write_text("format_version: 1\n" + text)
    code, _, err = run_cli(
        capsys, "simulate", "--system", str(path), "-T", "2", "--out", str(tmp_path / "run")
    )
    assert code == 2
    assert fragment in err
    assert not (tmp_path / "run").exists()


def test_simulate_rejects_deeply_nested_fixed_allocation(tmp_path, capsys):
    alloc = tmp_path / "deep.json"
    alloc.write_text("[" * 100_000)
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--system",
        "fig2",
        "--defender",
        f"fixed:{alloc}",
        "-T",
        "2",
        "--out",
        str(tmp_path / "run"),
    )
    assert code == 2
    assert "E-SYNTAX" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("where", ["system", "config", "fixed"])
def test_integers_past_the_digit_limit_are_syntax_errors(tmp_path, capsys, where):
    # 5001 digits: past Python's int-string limit, so the parser itself fails
    big = "1" + "0" * 5000
    if where == "system":
        path = tmp_path / "big.yaml"
        path.write_text(
            f"format_version: 1\nstart: s\nbudget: {big}\n"
            "edges: [{id: e, src: s, dst: a, surface: 1.0}]\n"
        )
        argv = ["simulate", "--system", str(path), "-T", "2"]
    elif where == "config":
        path = _write_config(tmp_path)
        with path.open("a") as fh:
            fh.write(f"seed: {big}\n")
        argv = ["verify-bounds", "--config", str(path)]
    else:
        path = tmp_path / "big.json"
        path.write_text('{"left": %s}' % big)
        argv = ["simulate", "--system", "fig2", "--defender", f"fixed:{path}", "-T", "2"]
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "run"))
    assert code == 2
    assert "[E-SYNTAX]" in err
    assert not (tmp_path / "run").exists()


def test_simulate_rejects_replay_trace_with_nul_byte(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,attack,cost,payoff,revealed,beta\n1,le\x00ft,0.0,0.0,,\n")
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--system",
        "fig2",
        "--attacker",
        f"replay:{trace}",
        "-T",
        "2",
        "--out",
        str(tmp_path / "run"),
    )
    assert code == 2
    assert "[E-SYNTAX]" in err
    assert not (tmp_path / "run").exists()


def test_simulate_on_chain_deeper_than_recursion_limit(tmp_path, capsys):
    depth = sys.getrecursionlimit() + 200
    doc = {
        "format_version": 1,
        "start": "v0",
        "budget": 1.0,
        "rewards": {f"v{depth}": 1.0},
        "edges": [
            {"id": f"e{i}", "src": f"v{i}", "dst": f"v{i + 1}", "surface": 1.0}
            for i in range(depth)
        ],
    }
    chain = tmp_path / "chain.yaml"
    chain.write_text(yaml.safe_dump(doc))
    code, stdout, err = run_cli(
        capsys,
        "simulate",
        "--system",
        str(chain),
        "--attacker",
        "random",
        "-T",
        "2",
        "--out",
        str(tmp_path / "run"),
    )
    assert code == 0, err
    assert "rounds 2" in stdout


def test_minimax_command(capsys):
    code, stdout, _ = run_cli(
        capsys, "minimax", "--system", "fig2", "--objective", "roa"
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "objective roa"
    assert lines[1] == "value 1"
    assert "d left 5" in lines
    assert "d right 5" in lines

    code, stdout, _ = run_cli(
        capsys, "minimax", "--system", "fig4", "--objective", "profit"
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[1] == "value 1"
    assert "d right 9" in lines
    assert not any(line.startswith("d left") for line in lines)


def test_mincut_command(capsys):
    code, stdout, _ = run_cli(capsys, "mincut", "--system", "fig2", "--target", "db")
    assert code == 0
    assert "target db" in stdout
    assert "d right 10" in stdout

    code, _, err = run_cli(capsys, "mincut", "--system", "fig2", "--target", "ghost")
    assert code == 2
    assert "unknown vertex" in err


def test_cli_import_does_not_load_networkx():
    probe = "import sys, reactive_defense.cli; print('networkx' in sys.modules)"
    src = str(Path(reactive_defense.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"


def test_cli_import_does_not_load_scipy():
    probe = "import sys, reactive_defense.cli; print('scipy' in sys.modules)"
    src = str(Path(reactive_defense.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"


def test_simulate_rejects_surface_with_infinite_reciprocal(tmp_path, capsys):
    path = tmp_path / "tiny.yaml"
    path.write_text(
        "format_version: 1\n"
        "start: s\n"
        "budget: 1.0\n"
        "rewards: {x: 1.0, y: 2.0}\n"
        "edges:\n"
        "  - {id: a, src: s, dst: x, surface: 1.0e-310}\n"
        "  - {id: b, src: s, dst: y, surface: 1.0}\n"
        "  - {id: c, src: x, dst: y, surface: 1.0}\n"
    )
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--system",
        str(path),
        "--attacker",
        "best-profit",
        "-T",
        "3",
        "--out",
        str(tmp_path / "run"),
    )
    assert code == 2
    assert "E-SURFACE" in err and "finite 1/surface" in err
    assert not (tmp_path / "run").exists()


def test_lower_bound_command(capsys):
    code, stdout, _ = run_cli(
        capsys, "lower-bound", "-T", "2", "--seeds", "exhaustive"
    )
    assert code == 0
    assert "exact expected gap 0.5" in stdout

    code, stdout, _ = run_cli(
        capsys, "lower-bound", "-T", "16", "--seeds", "20", "--base-seed", "3"
    )
    assert code == 0
    assert "seeds 20" in stdout
    assert "mean gap" in stdout

    code, _, err = run_cli(capsys, "lower-bound", "-T", "2", "--seeds", "many")
    assert code == 2
    assert "exhaustive" in err


def test_fixtures_listing(capsys):
    code, stdout, _ = run_cli(capsys, "fixtures")
    assert code == 0
    assert stdout.split() == sorted(FIXTURES)


def test_fixtures_emit(tmp_path, capsys):
    out = tmp_path / "fixtures"
    code, stdout, _ = run_cli(capsys, "fixtures", "--emit", str(out))
    assert code == 0
    for name in FIXTURES:
        path = out / f"{name}.yaml"
        assert path.exists()
        assert load_system(path) == fixture(name)
        assert path.read_text().startswith(f"# built-in fixture {name}\n")


def _write_config(tmp_path, **overrides):
    doc = {
        "format_version": 1,
        "system": "appendix_b",
        "defender": "reactive",
        "attacker": "best-roa",
        "rounds": 60,
        "checks": ["profit_regret", "roa_ratio"],
        "alpha": 1.0,
    }
    doc.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_verify_bounds_pass(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "bounds-out"
    code, stdout, _ = run_cli(
        capsys, "verify-bounds", "--config", str(config), "--out", str(out)
    )
    assert code == 0
    assert "PASS profit-regret" in stdout
    assert "PASS roa-ratio" in stdout
    doc = json.loads((out / "bounds.json").read_text())
    assert len(doc["reports"]) == 2
    assert all(report["satisfied"] for report in doc["reports"])
    assert (out / "trace.csv").exists()


def test_verify_bounds_violation_exits_3(tmp_path, capsys):
    # an empty fixed allocation never charges anything, so the played
    # return ratio is undefined and the ceiling check fails
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    config = _write_config(
        tmp_path,
        defender=f"fixed:{empty}",
        checks=["roa_ratio"],
        rounds=5,
    )
    code, stdout, _ = run_cli(capsys, "verify-bounds", "--config", str(config))
    assert code == 3
    assert "FAIL roa-ratio" in stdout


def test_verify_bounds_rejects_nan_alpha(tmp_path, capsys):
    config = _write_config(tmp_path, alpha=math.nan, checks=["roa_ratio"])
    code, stdout, err = run_cli(capsys, "verify-bounds", "--config", str(config))
    assert code == 2
    assert "[E-CONFIG]" in err and "alpha must be positive" in err
    assert "roa-ratio" not in stdout


def test_verify_bounds_config_errors(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "verify-bounds", "--config", str(tmp_path / "missing.yaml")
    )
    assert code == 2
    assert "E-IO" in err

    config = _write_config(tmp_path, rounds=0)
    code, _, err = run_cli(capsys, "verify-bounds", "--config", str(config))
    assert code == 2
    assert "E-CONFIG" in err


def test_verify_bounds_rejects_deeply_nested_config(tmp_path, capsys):
    config = _write_config(tmp_path)
    depth = 3000
    with config.open("a") as fh:
        fh.write("name: " + "[" * depth + "x" + "]" * depth + "\n")
    code, _, err = run_cli(capsys, "verify-bounds", "--config", str(config))
    assert code == 2
    assert "E-SYNTAX" in err


@pytest.mark.parametrize(
    "field, spec", [("defender", "fixed:a\0b.json"), ("attacker", "replay:a\0b.csv")]
)
def test_verify_bounds_rejects_policy_path_with_nul_byte(tmp_path, capsys, field, spec):
    config = _write_config(tmp_path, **{field: spec})
    code, _, err = run_cli(capsys, "verify-bounds", "--config", str(config))
    assert code == 2
    assert "[E-IO]" in err


_SPEC_TEXT = st.text(alphabet="ab0.,:+\0\"' -", max_size=8)
_PREFIXES = ["", "fixed:", "replay:", "known:", "mincut:", "multi:", "oblivious-roa:"]


def _spec(names):
    return st.sampled_from(names) | st.builds(
        str.__add__, st.sampled_from(_PREFIXES + names), _SPEC_TEXT
    )


@given(
    _spec(["fig2", "appendix_b", "horn_chain"]),
    _spec(["reactive", "known", "uniform", "myopic", "mincut:db"]),
    _spec(["best-roa", "best-profit", "random", "multi:random+best-roa"]),
)
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:ceilings assume surfaces")
def test_verify_bounds_policy_specs_never_exit_1(system, defender, attacker):
    doc = {
        "format_version": 1,
        "system": system,
        "defender": defender,
        "attacker": attacker,
        "rounds": 3,
    }
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ) as err:
            code = main(["verify-bounds", "--config", str(config)])
    assert code != 1, err.getvalue()


def test_build_defender_specs(tmp_path):
    system = fixture("fig2")
    assert isinstance(build_defender("reactive", system), ReactiveDefender)
    assert isinstance(build_defender("known", system), KnownEdgesDefender)
    known = build_defender("known:0.5", system)
    assert known.describe()["beta"] == 0.5
    uniform = build_defender("uniform", system)
    assert isinstance(uniform, FixedDefender)
    assert uniform.describe() == {"policy": "uniform"}
    assert isinstance(build_defender("myopic", system), MyopicDefender)
    assert build_defender("minimax-roa", system).describe() == {
        "policy": "minimax",
        "objective": "roa",
    }
    assert build_defender("minimax-profit", system).describe() == {
        "policy": "minimax",
        "objective": "profit",
    }
    mincut = build_defender("mincut:db", system)
    assert isinstance(mincut, FixedDefender)
    assert mincut.describe() == {"policy": "mincut", "target": "db"}
    mincut.start(system, horizon=1)
    assert mincut.commit(1).alloc == {"right": 10.0}

    alloc = tmp_path / "alloc.json"
    alloc.write_text('{"left": 4.0, "right": 6.0}')
    fixed = build_defender(f"fixed:{alloc}", system)
    assert isinstance(fixed, FixedDefender)
    assert fixed.describe() == {"policy": "fixed"}
    fixed.start(system, horizon=1)
    assert fixed.commit(1).get("left") == 4.0

    with pytest.raises(ValueError, match="unknown defender"):
        build_defender("teleport", system)
    with pytest.raises(ValueError, match="numeric beta"):
        build_defender("known:fast", system)
    with pytest.raises(ValueError, match="needs a target"):
        build_defender("mincut:", system)


def test_build_defender_rejects_bad_allocation_files(tmp_path):
    system = fixture("fig2")
    overdrawn = tmp_path / "over.json"
    overdrawn.write_text('{"left": 100.0}')
    with pytest.raises(ValueError, match="exceeds budget"):
        build_defender(f"fixed:{overdrawn}", system)

    not_numbers = tmp_path / "bool.json"
    not_numbers.write_text('{"left": true}')
    from reactive_defense.io import FileFormatError

    with pytest.raises(FileFormatError, match="must be a number"):
        build_defender(f"fixed:{not_numbers}", system)


def test_build_attacker_specs():
    assert isinstance(build_attacker("best-roa"), BestResponseAttacker)
    assert build_attacker("best-profit").describe()["policy"] == "profit-best-response"
    assert isinstance(build_attacker("random"), RandomPathAttacker)
    oblivious = build_attacker("oblivious-roa:left,right")
    assert isinstance(oblivious, ObliviousAttacker)
    assert oblivious.describe()["visible"] == ["left", "right"]
    population = build_attacker("multi:best-roa+random")
    assert isinstance(population, MultiAttacker)
    assert len(population.describe()["members"]) == 2

    with pytest.raises(ValueError, match="unknown attacker"):
        build_attacker("sneaky")
    with pytest.raises(ValueError, match="needs a file"):
        build_attacker("replay:")
    with pytest.raises(ValueError, match="needs members"):
        build_attacker("multi:")


def test_replay_attacker_from_cli_spec(tmp_path, capsys):
    out = tmp_path / "seed-run"
    code, _, _ = run_cli(
        capsys, "simulate", "--system", "fig2", "-T", "3", "--out", str(out)
    )
    assert code == 0
    replay = build_attacker(f"replay:{out / 'trace.csv'}")
    assert isinstance(replay, FixedSequenceAttacker)
    assert replay.describe() == {"policy": "fixed-sequence", "length": 3}
