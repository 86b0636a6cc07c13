"""File formats: system YAML, trace outputs, experiment configs."""

from __future__ import annotations

import builtins
import csv
import json
import math
import os
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from random import Random

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from reactive_defense import BestResponseAttacker, ReactiveDefender, fixture, run_game
from reactive_defense.attackers import (
    FixedSequenceAttacker,
    MultiAttacker,
    RandomPathAttacker,
)
from reactive_defense.cli import main
from reactive_defense.defenders import FixedDefender, KnownEdgesDefender, MyopicDefender
from reactive_defense.engine import GameTrace, RoundRecord
from reactive_defense.generators import random_system
from reactive_defense.io import (
    TRACE_COLUMNS,
    FileFormatError,
    emit_fixtures,
    load_attack_sequence,
    load_config,
    load_fixed_allocation,
    load_system,
    resolve_system,
    save_system,
    system_from_doc,
    system_to_doc,
    write_bounds,
    write_trace,
)
from reactive_defense.model import (
    Attack,
    DefenseAllocation,
    System,
    ValidationError,
    zero_allocation,
)
from reactive_defense.fixtures import FIXTURES


def test_every_fixture_round_trips(tmp_path):
    for name in FIXTURES:
        path = tmp_path / f"{name}.yaml"
        save_system(fixture(name), path)
        assert load_system(path) == fixture(name)


def test_save_system_header_and_name(tmp_path):
    path = tmp_path / "sys.yaml"
    save_system(fixture("fig2"), path, name="chain", header="first\nsecond")
    text = path.read_text()
    assert text.startswith("# first\n# second\n")
    reloaded = load_system(path)
    assert reloaded == fixture("fig2")
    doc = system_to_doc(fixture("fig2"), name="chain")
    assert doc["name"] == "chain"
    assert doc["format_version"] == 1


def test_doc_round_trip_preserves_floats():
    system = fixture("fig2")
    doc = system_to_doc(system)
    again = system_from_doc(doc)
    assert again.surface("right") == 5.0 / 9.0
    assert again == system


def test_graph_doc_unions_extra_vertices():
    doc = {
        "format_version": 1,
        "start": "s",
        "budget": 1.0,
        "rewards": {},
        "vertices": ["s", "a", "island"],
        "edges": [{"id": "e", "src": "s", "dst": "a", "surface": 1.0}],
    }
    system = system_from_doc(doc)
    assert "island" in system.vertices


def test_load_system_semantic_errors(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "format_version: 1\n"
        "start: s\n"
        "budget: 1.0\n"
        "rewards: {a: 1.0}\n"
        "edges:\n"
        "  - {id: e, src: s, dst: a, surface: -3.0}\n"
    )
    with pytest.raises(ValidationError) as err:
        load_system(path)
    assert "E-SURFACE" in err.value.codes


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"format_version": 2, "edges": []}, "format_version"),
        ({"format_version": 1, "start": "s", "budget": 1}, "'edges' must be a list, got None"),
        ({"format_version": 1, "edges": [], "clauses": []}, r"unknown keys \['clauses'\]"),
        (
            {"format_version": 1, "edges": [], "start": "s", "budget": 1, "extra": 1},
            "unknown keys",
        ),
        ({"format_version": 1, "edges": [], "budget": 1}, "'start'"),
        (
            {"format_version": 1, "edges": [], "start": "s", "budget": True},
            "'budget' must be a number",
        ),
        (
            {
                "format_version": 1,
                "start": "s",
                "budget": 1,
                "edges": [{"id": "e", "src": "s", "dst": "a"}],
            },
            "surface",
        ),
        (
            {
                "format_version": 1,
                "start": "s",
                "budget": 1,
                "edges": [{"id": "e", "src": "s", "dst": "a", "surface": 1, "w": 2}],
            },
            "unknown keys",
        ),
        (
            {
                "format_version": 1,
                "start": "s",
                "budget": 1,
                "rewards": {5: 1.0},
                "edges": [],
            },
            "quote it",
        ),
        ([1, 2], "mapping at top level"),
        ({"format_version": 1, "start": "s", "budget": 1, "edges": {}}, "'edges' must be a list"),
        (
            {
                "format_version": 1,
                "start": "s",
                "budget": 1,
                "edges": [{"id": "e", "src": "s", "dst": "a", "surface": 1, "w": 2}],
            },
            r"edges\[0\]: unknown keys \['w'\]",
        ),
        (
            {"format_version": 1, "start": "s", "budget": 1, "vertices": "a", "edges": []},
            r"'vertices' must be a list of strings",
        ),
        (
            {"format_version": 1, "start": "s", "budget": 1, "edges": [{"id": "e", "surface": 1}]},
            r"'edges\[0\]\.src' must be a non-empty string",
        ),
        (
            {"format_version": 1, "start": "s", "budget": 1, "edges": [], "propositions": []},
            r"unknown keys \['propositions'\]",
        ),
        ({"format_version": True, "edges": []}, "'format_version' must be an integer"),
        ({"format_version": 1.0, "edges": []}, "'format_version' must be an integer"),
        (
            {"format_version": 1, "name": 5, "start": "s", "budget": 1, "edges": []},
            "'name' must be a non-empty string, got 5",
        ),
        (
            {"format_version": 1, "description": [1], "start": "s", "budget": 1, "edges": []},
            r"'description' must be a non-empty string, got \[1\]",
        ),
        (
            {"format_version": 1, "start": "s", "budget": 1, "edges": [["e", "s", "a", 1]]},
            r"expected a mapping at edges\[0\], got list",
        ),
        ({"format_version": 2, "edges": [], "extra": 1}, "format_version must be 1, got 2"),
    ],
)
def test_system_from_doc_schema_errors(doc, fragment):
    with pytest.raises(FileFormatError, match=fragment) as err:
        system_from_doc(doc)
    assert err.value.code == "E-SCHEMA"
    assert str(err.value).startswith("[E-SCHEMA]")


_NAMES = st.sampled_from(["s", "a", "b", "bad id", ""])
_NUMBERS = st.one_of(
    st.integers(),
    # unbounded, around the edge of the float range (about 1.8e308)
    st.builds(lambda m, e: m * 10**e, st.integers(), st.integers(300, 400)),
    st.floats(),
)
_LEAVES = st.one_of(st.none(), st.booleans(), _NUMBERS, _NAMES, st.text(max_size=3))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_LEAVES, inner, max_size=3),
    max_leaves=8,
)


# Each key gets a value of its own type about half the time, so that
# documents get past the early shape checks, and anything at all otherwise.
_KEY_VALUES = {
    str: _NAMES,
    float: _NUMBERS,
    list: st.lists(_NAMES, max_size=3),
    dict: st.dictionaries(_NAMES, _NUMBERS, max_size=3),
}


def _system_docs(rows_key, fields, top_keys):
    def values(kind):
        return _KEY_VALUES[kind] | _VALUES

    row = st.fixed_dictionaries({key: values(kind) for key, kind in fields.items()})
    return st.fixed_dictionaries(
        {"format_version": st.just(1), "budget": values(float), rows_key: st.lists(row, max_size=3)}
        | {key: values(kind) for key, kind in top_keys.items()},
        optional={"rewards": values(dict), "name": values(str), "extra": _VALUES},
    )


@given(
    _system_docs(
        "edges",
        {"id": str, "src": str, "dst": str, "surface": float},
        {"start": str, "vertices": list},
    )
    | _VALUES
)
@settings(max_examples=200, deadline=None)
def test_system_from_doc_raises_only_format_or_validation_errors(doc):
    try:
        system_from_doc(doc)
    except (FileFormatError, ValidationError):
        pass


@given(
    _system_docs(
        "clauses",
        {"id": str, "antecedents": list, "consequent": str, "surface": float},
        {"propositions": list},
    )
)
@settings(max_examples=100, deadline=None)
def test_system_from_doc_refuses_clause_documents(doc):
    # Horn systems exist only in memory, built from graph systems.
    with pytest.raises(FileFormatError, match="unknown keys"):
        system_from_doc(doc)


def test_load_system_syntax_and_io_errors(tmp_path):
    mangled = tmp_path / "mangled.yaml"
    mangled.write_text("edges: [unclosed\n  nope")
    with pytest.raises(FileFormatError) as err:
        load_system(mangled)
    assert err.value.code == "E-SYNTAX"

    with pytest.raises(FileFormatError) as err:
        load_system(tmp_path / "missing.yaml")
    assert err.value.code == "E-IO"


def test_resolve_system(tmp_path):
    assert resolve_system("fig2") == fixture("fig2")
    path = tmp_path / "sys.yaml"
    save_system(fixture("appendix_b"), path)
    assert resolve_system(str(path)) == fixture("appendix_b")
    with pytest.raises(FileFormatError) as err:
        resolve_system("no-such-system")
    assert err.value.code == "E-IO"
    assert "fig2" in str(err.value)


# ---------------------------------------------------------------------------
# traces


def _play(rounds=5):
    return run_game(
        fixture("fig2"),
        ReactiveDefender(),
        BestResponseAttacker("roa"),
        rounds=rounds,
        seed=0,
    )


# Each output file, and a call that writes it.
_WRITERS = {
    "trace.csv": lambda out: write_trace(_play(), out),
    "allocations.json": lambda out: write_trace(_play(), out),
    "summary.json": lambda out: write_trace(_play(), out),
    "bounds.json": lambda out: write_bounds([], out),
    "fig4.yaml": lambda out: list(emit_fixtures(out)),
}


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_unwritable_outputs_are_io_errors(tmp_path, name):
    write = _WRITERS[name]
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    written = re.escape(str(out / name))
    with pytest.raises(FileFormatError, match=f"cannot write {written}:") as err:
        write(out)
    assert err.value.code == "E-IO"

    # a regular file where the output directory should be
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    inside = re.escape(str(blocker) + os.sep)
    with pytest.raises(FileFormatError, match=f"cannot write {inside}") as err:
        write(blocker)
    assert err.value.code == "E-IO"


def test_write_trace_files(tmp_path):
    trace = _play()
    paths = write_trace(trace, tmp_path / "out")
    assert set(paths) == {"trace", "allocations", "summary"}
    for path in paths.values():
        assert path.exists()

    with open(paths["trace"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "attack", "cost", "payoff", "revealed", "beta"]
    assert len(rows) == 1 + trace.rounds
    # round 1: no defense committed yet, so no learning rate either
    assert rows[1][5] == ""
    assert rows[1][4] == "left"
    # repr-formatted floats parse back bit for bit
    for row, record in zip(rows[1:], trace.records):
        assert int(row[0]) == record.round_index
        assert float(row[2]) == record.cost
        assert float(row[3]) == record.payoff
        if row[5]:
            assert float(row[5]) == record.beta


def test_trace_allocations_round_trip(tmp_path):
    trace = _play()
    paths = write_trace(trace, tmp_path)
    allocations = json.loads(paths["allocations"].read_text())
    assert list(allocations) == [str(t) for t in range(1, trace.rounds + 1)]
    for record in trace.records:
        assert allocations[str(record.round_index)] == dict(record.allocation.alloc)


def _indent2_allocations(trace: GameTrace) -> str:
    """allocations.json as the whole-document pure-Python encoder writes it."""
    allocations = {
        str(r.round_index): dict(sorted(r.allocation.alloc.items()))
        for r in trace.records
    }
    return json.dumps(allocations, indent=2) + "\n"


def _hand_trace(allocs: list[dict]) -> GameTrace:
    system = fixture("fig2")
    records = tuple(
        RoundRecord(t, DefenseAllocation(alloc, 1e30), (Attack(("left",)),), 0.0, 1.0, (), None)
        for t, alloc in enumerate(allocs, start=1)
    )
    return GameTrace(system, records, {"policy": "hand"}, {"policy": "hand"}, 0)


def _wide_known_game(rounds: int) -> GameTrace:
    system = random_system(Random(29), 80, 40)
    assert len(system.edges) == 77
    attacker = MultiAttacker([RandomPathAttacker() for _ in range(4)])
    return run_game(system, KnownEdgesDefender(), attacker, rounds, seed=29)


@pytest.mark.parametrize(
    "allocs",
    [
        [{}],
        [{"e1": 0.25}],
        [{}, {"e1": 1, "e2": True, "e3": False, "e4": 0}, {}],
        [{'q"uote': 0.5, "back\\slash": 1e-300, "caf\u00e9": 2.5, "\u2603\n": 1e22}],
        [{"e9": 0.1, "e10": 0.2, "e1": 0.3, "e100": 1 / 3}] * 11,
    ],
    ids=["empty-round", "one-record", "int-bool", "escaped-keys", "e10-before-e9"],
)
def test_allocations_match_indent2_encoder(tmp_path, allocs):
    trace = _hand_trace(allocs)
    written = write_trace(trace, tmp_path)["allocations"].read_text(encoding="utf-8")
    assert written == _indent2_allocations(trace)


def test_allocations_of_zero_records_match_indent2_encoder(tmp_path):
    # summary.json's cumulative return ratio is undefined without a round,
    # so the trace is refused before any file is written
    with pytest.raises(ValueError, match="no rounds"):
        write_trace(_hand_trace([]), tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_wide_known_game_allocations_match_indent2_encoder(tmp_path):
    trace = _wide_known_game(40)
    written = write_trace(trace, tmp_path)["allocations"].read_text(encoding="utf-8")
    assert written == _indent2_allocations(trace)


def test_write_trace_memory_stays_below_file_size(tmp_path):
    trace = _wide_known_game(500)
    tracemalloc.start()
    try:
        paths = write_trace(trace, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = paths["allocations"].stat().st_size
    assert size >= 1_000_000
    assert peak < size / 2, (peak, size)


def test_trace_summary_round_trip(tmp_path):
    trace = _play()
    paths = write_trace(trace, tmp_path)
    summary = json.loads(paths["summary"].read_text())
    assert summary["trace_format_version"] == 1
    assert summary["seed"] == 0
    assert summary["rounds"] == trace.rounds
    assert summary["defender"] == {"policy": "reactive-hidden", "schedule": "round-adaptive"}
    assert summary["attacker"] == {"policy": "roa-best-response"}
    assert summary["system"] == system_to_doc(trace.system)
    assert summary["totals"]["cost"] == sum(trace.costs())
    assert summary["totals"]["payoff"] == sum(trace.payoffs())


def test_attack_sequence_round_trip(tmp_path):
    trace = _play()
    paths = write_trace(trace, tmp_path)
    moves = load_attack_sequence(paths["trace"])
    assert moves == tuple(r.attacks for r in trace.records)


def test_population_trace_round_trip(tmp_path, capsys):
    system = fixture("appendix_b")
    populations = {
        "three": [BestResponseAttacker("roa"), RandomPathAttacker(), RandomPathAttacker()],
        "one": [RandomPathAttacker()],
    }
    for name, members in populations.items():
        trace = run_game(system, ReactiveDefender(), MultiAttacker(members), rounds=8, seed=5)
        played = write_trace(trace, tmp_path / name)["trace"]
        moves = load_attack_sequence(played)
        # every row reads back as its round's attacks, a lone attack as a one-tuple
        assert moves == tuple(r.attacks for r in trace.records)
        assert {len(move) for move in moves} == {len(members)}
        replayed = tmp_path / f"{name}-replay"
        argv = ["simulate", "--system", "appendix_b", "--attacker", f"replay:{played}"]
        assert main([*argv, "-T", "8", "--out", str(replayed)]) == 0
        assert (replayed / "trace.csv").read_bytes() == played.read_bytes()
    capsys.readouterr()

    round_ = (Attack(("e1",)), Attack(("e2",)), Attack(("e1",)))
    trace = run_game(
        system,
        FixedDefender(zero_allocation(1.0), {"policy": "noop"}),
        FixedSequenceAttacker([round_]),
        rounds=1,
    )
    paths = write_trace(trace, tmp_path / "fixed")
    assert "e1|e2|e1" in paths["trace"].read_text()
    assert load_attack_sequence(paths["trace"]) == (round_,)
    # an all-zero defense concedes infinite cumulative return
    summary = json.loads(paths["summary"].read_text())
    assert math.isinf(summary["totals"]["cumulative_roa"])


def test_trace_writes_are_deterministic(tmp_path):
    first = write_trace(_play(), tmp_path / "a")
    second = write_trace(_play(), tmp_path / "b")
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes()


def _compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as Python 3.12 computes a float sum: Neumaier's
    compensated summation, the compensation added once at the end."""
    items = list(iterable)
    if not items or not all(type(x) is float for x in items):
        return builtins.sum(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def _written_games(out: Path) -> dict[str, bytes]:
    small = random_system(Random(3), max_extra_edges=12, max_vertices=6)
    traces = {
        "profit": run_game(small, ReactiveDefender(), BestResponseAttacker("profit"), 300, seed=3),
        "wide": _wide_known_game(300),
        "myopic": run_game(fixture("fig2"), MyopicDefender(), RandomPathAttacker(), 300, seed=3),
    }
    return {
        f"{name}/{path.name}": path.read_bytes()
        for name, trace in traces.items()
        for path in write_trace(trace, out / name).values()
    }


def test_traces_do_not_depend_on_the_python_sum(tmp_path, monkeypatch):
    # Python 3.12 made float sum() compensated; outputs must not change
    plain = _written_games(tmp_path / "plain")
    for name, module in list(sys.modules.items()):
        if name == "reactive_defense" or name.startswith("reactive_defense."):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    compensated = _written_games(tmp_path / "compensated")
    assert len(plain) == 9
    for key, content in plain.items():
        assert compensated[key] == content, key


def test_compensated_sum_emulation():
    assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert _compensated_sum([0.1] * 10) == 1.0
    assert _compensated_sum([1, 2, 3]) == 6
    assert _compensated_sum([]) == 0


def test_load_attack_sequence_schema_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("time,attack\n1,e1\n")
    with pytest.raises(FileFormatError, match="unexpected columns") as err:
        load_attack_sequence(bad_header)
    assert err.value.code == "E-SCHEMA"

    empty_attack = tmp_path / "e.csv"
    empty_attack.write_text("t,attack,cost,payoff,revealed,beta\n1,,0.0,0.0,,\n")
    with pytest.raises(FileFormatError, match="empty attack"):
        load_attack_sequence(empty_attack)

    for attack in ("left;;right", ";left", "left;"):
        empty_step = tmp_path / "s.csv"
        empty_step.write_text(f"t,attack,cost,payoff,revealed,beta\n1,{attack},0.0,0.0,,\n")
        message = f"line 2: empty step in attack '{attack}'"
        with pytest.raises(FileFormatError, match=message) as err:
            load_attack_sequence(empty_step)
        assert err.value.code == "E-SCHEMA"

    no_rounds = tmp_path / "n.csv"
    no_rounds.write_text("t,attack,cost,payoff,revealed,beta\n")
    with pytest.raises(FileFormatError, match="no rounds"):
        load_attack_sequence(no_rounds)


@pytest.mark.parametrize(
    "row",
    [
        "1,e\x001,0.0,0.0,,",
        # one field past csv's default field size limit
        "1," + "e" * (csv.field_size_limit() + 1) + ",0.0,0.0,,",
    ],
    ids=["nul", "field-limit"],
)
def test_load_attack_sequence_syntax_errors(tmp_path, row):
    path = tmp_path / "t.csv"
    path.write_text("t,attack,cost,payoff,revealed,beta\n" + row + "\n")
    with pytest.raises(FileFormatError) as err:
        load_attack_sequence(path)
    assert err.value.code == "E-SYNTAX"


# ---------------------------------------------------------------------------
# experiment configs


def _write_config(tmp_path, **overrides):
    doc = {
        "format_version": 1,
        "system": "appendix_b",
        "defender": "reactive",
        "attacker": "best-roa",
        "rounds": 50,
    }
    doc.update(overrides)
    doc = {k: v for k, v in doc.items() if v is not None}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_load_config_defaults(tmp_path):
    config = load_config(_write_config(tmp_path))
    assert config.system == "appendix_b"
    assert config.rounds == 50
    assert config.seed == 0
    assert config.checks == ("profit_regret",)
    assert config.alpha is None


def test_load_config_full(tmp_path):
    config = load_config(
        _write_config(
            tmp_path,
            name="exp-1",
            seed=9,
            alpha=0.5,
            checks=["profit_regret", "roa_ratio"],
        )
    )
    assert config.seed == 9
    assert config.alpha == 0.5
    assert config.checks == ("profit_regret", "roa_ratio")


@pytest.mark.parametrize(
    "overrides, code, fragment",
    [
        ({"rounds": 0}, "E-CONFIG", "rounds must be at least 1"),
        ({"checks": ["speed"]}, "E-CONFIG", "unknown check"),
        ({"checks": ["roa_ratio"]}, "E-CONFIG", "needs a positive alpha"),
        ({"alpha": -2.0}, "E-CONFIG", "alpha must be positive"),
        ({"surprise": 1}, "E-SCHEMA", "unknown keys"),
        ({"attacker": None}, "E-SCHEMA", "'attacker'"),
        ({"format_version": 7}, "E-SCHEMA", "format_version"),
        ({"rounds": True}, "E-SCHEMA", "must be an integer"),
        ({"format_version": True}, "E-SCHEMA", "'format_version' must be an integer"),
        ({"format_version": 1.0}, "E-SCHEMA", "'format_version' must be an integer"),
        ({"alpha": math.nan}, "E-CONFIG", "alpha must be positive"),
        ({"name": 5}, "E-SCHEMA", "'name' must be a non-empty string"),
        ({"alpha": math.inf}, "E-CONFIG", "alpha must be positive"),
        ({"checks": []}, "E-CONFIG", "checks must name at least one check"),
        ({"format_version": 7, "surprise": 1}, "E-SCHEMA", "format_version must be 1, got 7"),
    ],
)
def test_load_config_errors(tmp_path, overrides, code, fragment):
    with pytest.raises(FileFormatError, match=fragment) as err:
        load_config(_write_config(tmp_path, **overrides))
    assert err.value.code == code


# ---------------------------------------------------------------------------
# fuzzed files: each reader raises FileFormatError and nothing else


def _read_fuzzed(reader, data: str | bytes) -> None:
    """Call ``reader`` on a file holding ``data``; a ``FileFormatError``
    is the expected outcome for malformed input."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed"
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        try:
            reader(path)
        except FileFormatError:
            pass


_RAW = st.text(max_size=40) | st.binary(max_size=40)
# Scalars that the YAML and JSON parsers turn into ValueError: integers
# past Python's int-string digit limit and impossible dates.
_BAD_SCALARS = st.integers(4290, 4310).map(lambda n: "1" + "0" * n) | st.from_regex(
    r"\A[0-9]{4}-[0-9]{1,2}-[0-9]{1,2}\Z"
)
_CONFIG_DOCS = st.fixed_dictionaries(
    {
        "format_version": st.just(1) | _VALUES,
        "system": _NAMES | _VALUES,
        "defender": _NAMES | _VALUES,
        "attacker": _NAMES | _VALUES,
        "rounds": st.integers() | _VALUES,
    },
    optional={
        "seed": st.integers() | _VALUES,
        "alpha": _NUMBERS | _VALUES,
        "checks": st.lists(st.sampled_from(["profit_regret", "roa_ratio", "x"])) | _VALUES,
        "name": _NAMES | _VALUES,
        "extra": _VALUES,
    },
)
_CSV_ROWS = st.lists(
    st.lists(st.text(alphabet="ab;|,\"\r\n\x00 ", max_size=5), max_size=7), max_size=4
)


@given(
    _CONFIG_DOCS.map(yaml.safe_dump)
    | st.builds("{}: {}\n".format, st.sampled_from(["rounds", "seed", "alpha"]), _BAD_SCALARS)
    | _RAW
)
@settings(max_examples=200, deadline=None)
def test_load_config_raises_only_format_errors(text):
    _read_fuzzed(load_config, text)


@given(st.booleans(), _CSV_ROWS | _RAW)
@settings(max_examples=200, deadline=None)
def test_load_attack_sequence_raises_only_format_errors(with_header, body):
    if isinstance(body, list):
        body = "\n".join(",".join(row) for row in body)
    if with_header and isinstance(body, str):
        body = ",".join(TRACE_COLUMNS) + "\n" + body
    _read_fuzzed(load_attack_sequence, body)


def test_load_fixed_allocation_rejects_unknown_edges(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text('{"lfet": 10.0, "left": 1.0, "zz": 0.0}')
    with pytest.raises(FileFormatError, match=r"\[E-SCHEMA\] .*unknown keys \['lfet', 'zz'\]"):
        load_fixed_allocation(path, fixture("fig2"))
    path.write_text('{"left": 4.0, "right": 6.0}')
    assert dict(load_fixed_allocation(path, fixture("fig2")).alloc) == {
        "left": 4.0,
        "right": 6.0,
    }


@given(
    st.dictionaries(_NAMES, _VALUES, max_size=3).map(json.dumps)
    | _VALUES.map(json.dumps)
    | _BAD_SCALARS.map('{{"e": {}}}'.format)
    | _RAW
)
@settings(max_examples=200, deadline=None)
def test_load_fixed_allocation_raises_only_format_or_feasibility_errors(text):
    # Edges named by the strategies above, so feasibility checks are reached.
    system = System.build(edges=[(eid, "s", "r", 1.0) for eid in ("a", "b", "e")])
    try:
        _read_fuzzed(lambda path: load_fixed_allocation(path, system), text)
    except ValueError as exc:
        # DefenseAllocation's own checks on well-formed amounts
        assert re.search("negative or NaN allocation|exceeds budget", str(exc)), exc
