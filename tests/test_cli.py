"""Command-line interface, end to end through main()."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import reactive_defense
from conftest import brute_force_worst_case
from reactive_defense import fixture
from reactive_defense.generators import random_system
from reactive_defense.io import load_system, save_system
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
from reactive_defense.paths import EnumerationLimitError, PathSet


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


# Horn systems exist only in memory: a system file in the Horn layout is
# refused like any other file with unknown keys.
_CLAUSE_SYSTEM = (
    "format_version: 1\nbudget: 2.0\nrewards: {data: 5.0}\n"
    "clauses: [{id: boot, antecedents: [], consequent: data, surface: 2.0}]\n"
)


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

    horn = tmp_path / "horn.yaml"
    horn.write_text(_CLAUSE_SYSTEM)
    code, _, err = run_cli(
        capsys, "simulate", "--system", str(horn), "-T", "3", "--out", str(tmp_path / "run")
    )
    assert code == 2
    assert "[E-SCHEMA]" in err and "unknown keys ['clauses']" in err
    assert not (tmp_path / "run").exists()


def test_clause_system_files_exit_2_from_every_command(tmp_path, capsys):
    horn = tmp_path / "horn.yaml"
    horn.write_text(_CLAUSE_SYSTEM)
    config = _write_config(tmp_path, system=str(horn))
    for argv in (
        ["simulate", "--system", str(horn), "-T", "3", "--out", str(tmp_path / "run")],
        ["minimax", "--system", str(horn)],
        ["mincut", "--system", str(horn), "--target", "data"],
        ["verify-bounds", "--config", str(config)],
    ):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "unknown keys ['clauses']" in err, argv
        assert stdout == "", argv


_TWO_EDGE_SYSTEM = (
    "format_version: 1\nstart: s\nbudget: 1.0\nrewards: {r: 1.0}\nedges:\n"
    "  - &base {id: e1, src: s, dst: r, surface: 1.0}\n"
)


def test_minimax_merge_keys_may_be_overridden(tmp_path, capsys):
    path = tmp_path / "merge.yaml"
    path.write_text(_TWO_EDGE_SYSTEM + "  - {<<: *base, id: e2, surface: 2.0}\n")
    code, stdout, err = run_cli(capsys, "minimax", "--system", str(path))
    assert code == 0, err
    assert stdout == "objective roa\nvalue 3\nd e1 0.333333333333\nd e2 0.666666666667\n"


_DUPLICATE_CONFIG = (
    "format_version: 1\nsystem: fig2\nsystem: appendix_b\n"
    "defender: reactive\nattacker: best-roa\nrounds: 5\n"
)


@pytest.mark.parametrize(
    "name, text, argv, key",
    [
        (
            "edges.yaml",
            _TWO_EDGE_SYSTEM + "edges: [{id: e2, src: s, dst: r, surface: 2.0}]\n",
            ["minimax", "--system"],
            "edges",
        ),
        (
            "rewards.yaml",
            _TWO_EDGE_SYSTEM.replace("{r: 1.0}", "{r: 1.0, r: 5.0}"),
            ["minimax", "--system"],
            "r",
        ),
        (
            "edge.yaml",
            _TWO_EDGE_SYSTEM.replace("surface: 1.0}", "surface: 1.0, surface: 3.0}"),
            ["minimax", "--system"],
            "surface",
        ),
        (
            "quoted.yaml",
            _TWO_EDGE_SYSTEM.replace("{id: e1,", "{id: e1, 'id': e2,"),
            ["minimax", "--system"],
            "id",
        ),
        ("config.yaml", _DUPLICATE_CONFIG, ["verify-bounds", "--config"], "system"),
        (
            "alloc.json",
            '{"left": 4.0, "left": 6.0}',
            ["simulate", "--system", "fig2", "-T", "3", "--defender"],
            "left",
        ),
    ],
)
def test_duplicate_keys_exit_2(tmp_path, capsys, monkeypatch, name, text, argv, key):
    monkeypatch.setenv("REACTIVE_DEFENSE_OUT", str(tmp_path / "out"))
    path = tmp_path / name
    path.write_text(text)
    if name.endswith(".json"):
        path = f"fixed:{path}"
    code, stdout, err = run_cli(capsys, *argv, str(path))
    assert code == 2, err
    assert "[E-SYNTAX]" in err and f"duplicate key '{key}'" in err
    assert stdout == ""


@pytest.mark.parametrize(
    "name, text, mark",
    [
        (
            "dup_edges.yaml",
            _TWO_EDGE_SYSTEM + "edges: [{id: e2, src: s, dst: r, surface: 2.0}]\n",
            "found duplicate key 'edges'\n  in \"dup_edges.yaml\", line 7, column 1:",
        ),
        # Found while the loader is built, before it is given the name.
        ("bell.yaml", _TWO_EDGE_SYSTEM + "# \a\n", "not allowed\n  in \"bell.yaml\", position 115)"),
    ],
)
def test_yaml_error_marks_name_the_file(tmp_path, capsys, monkeypatch, name, text, mark):
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(text)
    code, stdout, err = run_cli(capsys, "minimax", "--system", name)
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: [E-SYNTAX] {name}: not parseable YAML (")
    assert mark in err and "<unicode string>" not in err


@pytest.mark.parametrize("label", ["name: [1, 2]", "description: {a: 1}"])
def test_minimax_refuses_malformed_labels(tmp_path, capsys, label):
    path = tmp_path / "labelled.yaml"
    path.write_text(f"{label}\n{_TWO_EDGE_SYSTEM}")
    code, stdout, err = run_cli(capsys, "minimax", "--system", str(path))
    assert code == 2
    assert "[E-SCHEMA]" in err and "must be a non-empty string" in err
    assert stdout == ""


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


def test_simulate_rejects_fixed_allocation_on_unknown_edges(tmp_path, capsys):
    alloc = tmp_path / "typo.json"
    alloc.write_text('{"lfet": 10.0}')
    code, stdout, err = run_cli(
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
    assert "[E-SCHEMA]" in err and "unknown keys ['lfet']" in err
    assert stdout == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("where", ["edge", "vertex"])
def test_simulate_rejects_ids_ending_in_newline(tmp_path, capsys, where):
    edge, vertex = ("e1\n", "r") if where == "edge" else ("e1", "r\n")
    doc = {
        "format_version": 1,
        "start": "s",
        "budget": 1.0,
        "rewards": {vertex: 1.0},
        "edges": [{"id": edge, "src": "s", "dst": vertex, "surface": 1.0}],
    }
    path = tmp_path / "newline.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "run"
    code, stdout, err = run_cli(
        capsys, "simulate", "--system", str(path), "-T", "2", "--out", str(out)
    )
    assert code == 2
    assert "E-ID" in err and f"{where} id {(edge if where == 'edge' else vertex)!r}" in err
    assert stdout == ""
    assert not out.exists()


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


# Every fixture's full ``minimax`` output, recorded before the LP was
# restricted to the frontier: the reduction may move a degenerate LP to
# another optimal vertex, but no fixture's allocation or value may change.
MINIMAX_STDOUT = {
    ("fig2", "roa"): "objective roa\nvalue 1\nd left 5\nd right 5\n",
    ("fig2", "profit"): "objective profit\nvalue 2.22044604925e-16\nd left 5\nd right 5\n",
    ("fig3_n2", "roa"): "objective roa\nvalue 10\nd b0 1\n",
    ("fig3_n2", "profit"): "objective profit\nvalue 9\nd b0 1\n",
    ("fig3_n4", "roa"): "objective roa\nvalue 10\nd b0 1\n",
    ("fig3_n4", "profit"): "objective profit\nvalue 9\nd b0 1\n",
    ("fig3_n8", "roa"): "objective roa\nvalue 10\nd b0 1\n",
    ("fig3_n8", "profit"): "objective profit\nvalue 9\nd b0 1\n",
    ("fig4", "roa"): (
        "objective roa\nvalue 1.22222222222\nd left 0.818181818182\nd right 8.18181818182\n"
    ),
    ("fig4", "profit"): "objective profit\nvalue 1\nd right 9\n",
    ("appendix_b", "roa"): "objective roa\nvalue 2\nd e1 0.5\nd e2 0.5\n",
    ("appendix_b", "profit"): "objective profit\nvalue 0.5\nd e1 0.5\nd e2 0.5\n",
}


@pytest.mark.parametrize("objective", ["roa", "profit"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_minimax_command(capsys, name, objective):
    code, stdout, err = run_cli(
        capsys, "minimax", "--system", name, "--objective", objective
    )
    assert code == 0, err
    assert stdout == MINIMAX_STDOUT[name, objective]


def test_mincut_command(capsys):
    code, stdout, _ = run_cli(capsys, "mincut", "--system", "fig2", "--target", "db")
    assert code == 0
    assert "target db" in stdout
    assert "d right 10" in stdout

    code, _, err = run_cli(capsys, "mincut", "--system", "fig2", "--target", "ghost")
    assert code == 2
    assert "unknown vertex" in err


def _fresh_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run by a new interpreter on this package."""
    src = str(Path(reactive_defense.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return result.stdout


@pytest.mark.parametrize(
    "heavy", ["networkx", "scipy", "numpy", "yaml", "dataclasses", "statistics"]
)
@pytest.mark.parametrize("package", ["reactive_defense", "reactive_defense.cli"])
def test_import_does_not_load(package, heavy):
    # numpy loads with the first enumeration or minimax solve, PyYAML with
    # the first YAML file; networkx and scipy are not runtime dependencies,
    # and no package module imports dataclasses or statistics.
    probe = f"import sys, {package}; print({heavy!r} in sys.modules)"
    assert _fresh_python(probe).strip() == "False"


# Blocks the modules named in argv[1], then runs the commands in argv[2].
_BLOCKED_RUN = """
import contextlib, io, json, sys
for name in json.loads(sys.argv[1]):
    sys.modules[name] = None
from reactive_defense.cli import main
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


def test_commands_without_numpy_yaml_dataclasses_or_statistics_match_loaded_runs(
    tmp_path, capsys
):
    # Any attempt to import a blocked module raises ImportError, which the
    # CLI reports as an unexpected error with exit 1.
    played = tmp_path / "played"
    assert run_cli(capsys, "simulate", "--system", "fig2", "-T", "40", "--out", str(played))[0] == 0
    replay = tmp_path / "replay"
    commands = [
        ["lower-bound", "-T", "200", "--seeds", "3"],
        ["fixtures"],
        ["mincut", "--system", "fig2", "--target", "db"],
        [
            "simulate", "--system", "fig2", "--defender", "reactive",
            "--attacker", f"replay:{played / 'trace.csv'}", "-T", "40", "--out", str(replay),
        ],
    ]
    names = ("trace.csv", "allocations.json", "summary.json")
    loaded = [list(run_cli(capsys, *argv)[:2]) for argv in commands]
    loaded_files = [(replay / name).read_bytes() for name in names]
    blocked = json.loads(
        _fresh_python(
            _BLOCKED_RUN, '["numpy", "yaml", "dataclasses", "statistics"]', json.dumps(commands)
        )
    )
    assert [code for code, _ in blocked] == [0, 0, 0, 0]
    assert blocked == loaded
    assert [(replay / name).read_bytes() for name in names] == loaded_files


def test_commands_without_dataclasses_or_statistics_match_loaded_runs(tmp_path, capsys):
    # The commands that load numpy and PyYAML too: a game with
    # enumerating best responses, the minimax LP, and the README's
    # verify-bounds with its bounds file.
    system = tmp_path / "br.yaml"
    save_system(random_system(random.Random(26), 30, 10), system)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (config,) = re.findall(r"^cat > experiment\.yaml <<'EOF'\n(.*?)^EOF$", readme, re.M | re.S)
    (tmp_path / "experiment.yaml").write_text(config, encoding="utf-8")
    played, verified = tmp_path / "played", tmp_path / "verified"
    commands = [
        ["simulate", "--system", "fig2", "-T", "100", "--out", str(played)],
        ["minimax", "--system", str(system)],
        ["minimax", "--system", "fig4", "--objective", "profit"],
        ["verify-bounds", "--config", str(tmp_path / "experiment.yaml"), "--out", str(verified)],
    ]
    names = ("trace.csv", "allocations.json", "summary.json")
    files = [played / name for name in names] + [verified / name for name in (*names, "bounds.json")]
    loaded = [list(run_cli(capsys, *argv)[:2]) for argv in commands]
    loaded_files = [path.read_bytes() for path in files]
    blocked = json.loads(
        _fresh_python(_BLOCKED_RUN, '["dataclasses", "statistics"]', json.dumps(commands))
    )
    assert [code for code, _ in blocked] == [0, 0, 0, 0]
    assert blocked == loaded
    assert [path.read_bytes() for path in files] == loaded_files


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
    assert stdout == (
        "rounds 16\n"
        "seeds 20\n"
        "mean played cost 7.62601497659\n"
        "mean hindsight cost 9.55\n"
        "mean gap 1.92398502341\n"
        "gap per sqrt round 0.480996255852\n"
    )

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


def test_verify_bounds_unwritable_bounds_file_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "bounds-out"
    (out / "bounds.json").mkdir(parents=True)
    code, stdout, err = run_cli(
        capsys, "verify-bounds", "--config", str(config), "--out", str(out)
    )
    assert code == 2
    assert "[E-IO]" in err and "bounds.json" in err
    assert "PASS" not in stdout


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
    # An infinite alpha would pass every roa check vacuously.
    for alpha in (math.nan, math.inf):
        config = _write_config(tmp_path, alpha=alpha, checks=["roa_ratio"])
        code, stdout, err = run_cli(capsys, "verify-bounds", "--config", str(config))
        assert code == 2
        assert "[E-CONFIG]" in err and "alpha must be positive" in err
        assert "roa-ratio" not in stdout


def test_verify_bounds_rejects_empty_checks(tmp_path, capsys):
    # An empty list would pass with nothing checked.
    config = _write_config(tmp_path, checks=[])
    code, stdout, err = run_cli(capsys, "verify-bounds", "--config", str(config))
    assert code == 2
    assert "[E-CONFIG]" in err and "checks must name at least one check" in err
    assert stdout == ""


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
    _spec(["fig2", "appendix_b", "fig4"]),
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


@given(
    _spec(sorted(FIXTURES)),
    _spec(["reactive", "known", "uniform", "myopic", "minimax-roa", "mincut:db"]),
    _spec(["best-roa", "best-profit", "random", "multi:random+best-roa"]),
    st.integers(-1, 3),
    st.integers(),
)
@settings(max_examples=300, deadline=None)
def test_simulate_flags_never_exit_1(system, defender, attacker, rounds, seed):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            "simulate",
            f"--system={system}",
            f"--defender={defender}",
            f"--attacker={attacker}",
            f"--rounds={rounds}",
            f"--seed={seed}",
            f"--out={tmp}",
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ) as err:
            code = main(argv)
    assert code != 1, (argv, err.getvalue())


# Each subcommand's single-value options, with values that make a valid run.
_SINGLE_VALUE_OPTIONS = {
    "simulate": {
        "--system": "fig2",
        "--defender": "reactive",
        "--attacker": "best-roa",
        "--rounds": "2",
        "--seed": "0",
        "--out": "played",
    },
    "minimax": {"--system": "fig2", "--objective": "roa"},
    "mincut": {"--system": "fig2", "--target": "db"},
    "verify-bounds": {"--config": "config.yaml", "--out": "checked"},
    "lower-bound": {"--rounds": "2", "--seeds": "1", "--base-seed": "0"},
    "fixtures": {"--emit": "systems"},
}


@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, options in _SINGLE_VALUE_OPTIONS.items() for option in options],
)
def test_options_given_as_double_dash_exit_2(tmp_path, monkeypatch, capsys, command, option):
    # Before Python 3.13, argparse parses ``--option=--`` as an empty list.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REACTIVE_DEFENSE_OUT", raising=False)
    _write_config(tmp_path, rounds=2)
    flags = {**_SINGLE_VALUE_OPTIONS[command], option: "--"}
    try:
        code = main([command, *(f"{name}={value}" for name, value in flags.items())])
    except SystemExit as stop:  # Python 3.13 keeps "--", which int() rejects
        code = stop.code
    err = capsys.readouterr().err
    assert code != 1, err
    if sys.version_info < (3, 13):
        assert code == 2
        assert f"argument {option}: expected one argument" in err
    assert not (tmp_path / "out").exists()


_MAGNITUDE = st.floats(1e-3, 1e3)


@st.composite
def _minimax_system_docs(draw):
    """Valid graph systems: up to 6 vertices and 8 edges, the first edge
    leaving the start, surfaces, rewards and budget in [1e-3, 1e3]."""
    vertices = [f"v{i}" for i in range(draw(st.integers(2, 6)))]
    edges = []
    for i in range(draw(st.integers(1, 8))):
        src = "v0" if i == 0 else draw(st.sampled_from(vertices))
        dst = draw(st.sampled_from(vertices[1:] if i == 0 else vertices))
        edges.append({"id": f"e{i}", "src": src, "dst": dst, "surface": draw(_MAGNITUDE)})
    return {
        "format_version": 1,
        "start": "v0",
        "budget": draw(_MAGNITUDE),
        "rewards": {v: draw(st.just(0.0) | _MAGNITUDE) for v in vertices[1:]},
        "vertices": vertices,
        "edges": edges,
    }


def _run_minimax_on_text(text: str, objective: str) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.yaml"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(
            io.StringIO()
        ) as err:
            code = main(["minimax", "--system", str(path), "--objective", objective])
    return code, out.getvalue(), err.getvalue()


@given(_minimax_system_docs(), st.sampled_from(["roa", "profit"]))
@settings(max_examples=100, deadline=None)
def test_minimax_system_files_print_their_worst_case(doc, objective):
    code, stdout, err = _run_minimax_on_text(yaml.safe_dump(doc), objective)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        system = load_system(path)
    try:
        pathset = PathSet.enumerate(system)
    except EnumerationLimitError:
        assert code == 2, err
        return
    assert code == 0, err
    value = None
    amounts: dict[str, float] = {}
    for line in stdout.splitlines():
        key, *rest = line.split()
        if key == "value":
            value = float(rest[0])
        elif key == "d":
            amounts[rest[0]] = float(rest[1])
    worst = brute_force_worst_case(system, objective, amounts)
    # twelve printed digits; profit values may cancel down to zero
    scale = float(pathset.payoffs.max())
    assert math.isclose(worst, value, rel_tol=1e-6, abs_tol=1e-9 * scale), (worst, value)


_CORRUPTIONS = {
    "no edges": lambda d: d.pop("edges"),
    "edges not a list": lambda d: d.update(edges={"e0": 1}),
    "negative surface": lambda d: d["edges"][0].update(surface=-1.0),
    "zero surface": lambda d: d["edges"][0].update(surface=0.0),
    "subnormal surface": lambda d: d["edges"][0].update(surface=1e-310),
    "text surface": lambda d: d["edges"][0].update(surface="wide"),
    "nan surface": lambda d: d["edges"][0].update(surface=math.nan),
    "edge without source": lambda d: d["edges"][0].pop("src"),
    "edge source a list": lambda d: d["edges"][0].update(src=["v0"]),
    "duplicate edge": lambda d: d["edges"].append(dict(d["edges"][0])),
    "bad edge id": lambda d: d["edges"][0].update(id="e 0"),
    "negative reward": lambda d: d["rewards"].update(v1=-1.0),
    "infinite reward": lambda d: d["rewards"].update(v1=math.inf),
    "start reward": lambda d: d["rewards"].update(v0=1.0),
    "zero budget": lambda d: d.update(budget=0.0),
    "infinite budget": lambda d: d.update(budget=math.inf),
    "undeclared start": lambda d: d.update(start="ghost"),
    "unknown version": lambda d: d.update(format_version=99),
    "huge integer": lambda d: d.update(budget=10**400),
    "no start edge": lambda d: d.update(edges=[dict(d["edges"][0], src="v1", dst="v1")]),
}


@given(
    _minimax_system_docs(),
    st.sampled_from(sorted(_CORRUPTIONS)),
    st.sampled_from(["roa", "profit"]),
)
@settings(max_examples=100, deadline=None)
def test_minimax_malformed_system_files_exit_2(doc, corruption, objective):
    _CORRUPTIONS[corruption](doc)
    code, _, err = _run_minimax_on_text(yaml.safe_dump(doc), objective)
    assert code == 2, (corruption, err)


@given(st.text(max_size=60), st.sampled_from(["roa", "profit"]))
@settings(max_examples=100, deadline=None)
def test_minimax_arbitrary_text_never_exits_1(text, objective):
    code, _, err = _run_minimax_on_text(text, objective)
    assert code == 2, err


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
    assert mincut.commit(1).alloc == {"right": 10.0}

    alloc = tmp_path / "alloc.json"
    alloc.write_text('{"left": 4.0, "right": 6.0}')
    fixed = build_defender(f"fixed:{alloc}", system)
    assert isinstance(fixed, FixedDefender)
    assert fixed.describe() == {"policy": "fixed"}
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
