"""File formats: system YAML, trace outputs, experiment configs."""

from __future__ import annotations

import csv
import json
import math

import pytest

from reactive_defense import BestResponseAttacker, ReactiveDefender, fixture, run_game
from reactive_defense.attackers import FixedSequenceAttacker, MultiAttackRound
from reactive_defense.defenders import FixedDefender
from reactive_defense.io import (
    FileFormatError,
    load_allocations,
    load_attack_sequence,
    load_config,
    load_summary,
    load_system,
    resolve_system,
    save_system,
    system_from_doc,
    system_to_doc,
    write_trace,
)
from reactive_defense.model import Attack, ValidationError, zero_allocation
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


def test_horn_doc_round_trip():
    system = fixture("horn_chain")
    doc = system_to_doc(system)
    assert [c["id"] for c in doc["clauses"]] == ["boot", "escalate", "exfil"]
    assert doc["clauses"][2]["antecedents"] == ["admin", "foothold"]
    assert system_from_doc(doc) == system


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
        ({"format_version": 1}, "exactly one of"),
        ({"format_version": 1, "edges": [], "clauses": []}, "exactly one of"),
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
    ],
)
def test_system_from_doc_schema_errors(doc, fragment):
    with pytest.raises(FileFormatError, match=fragment) as err:
        system_from_doc(doc)
    assert err.value.code == "E-SCHEMA"
    assert str(err.value).startswith("[E-SCHEMA]")


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
    allocations = load_allocations(paths["allocations"])
    assert set(allocations) == set(range(1, trace.rounds + 1))
    for record in trace.records:
        assert allocations[record.round_index] == dict(record.allocation.alloc)


def test_trace_summary_round_trip(tmp_path):
    trace = _play()
    paths = write_trace(trace, tmp_path)
    summary = load_summary(paths["summary"])
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
    assert moves == tuple(r.attacks[0] for r in trace.records)


def test_population_trace_round_trip(tmp_path):
    system = fixture("appendix_b")
    round_ = MultiAttackRound((Attack(("e1",)), Attack(("e2",)), Attack(("e1",))))
    trace = run_game(
        system,
        FixedDefender(lambda view: zero_allocation(1.0), {"policy": "noop"}),
        FixedSequenceAttacker([round_]),
        rounds=1,
    )
    paths = write_trace(trace, tmp_path)
    text = paths["trace"].read_text()
    assert "e1|e2|e1" in text
    (move,) = load_attack_sequence(paths["trace"])
    assert isinstance(move, MultiAttackRound)
    assert move == round_
    # an all-zero defense concedes infinite cumulative return
    summary = load_summary(paths["summary"])
    assert math.isinf(summary["totals"]["cumulative_roa"])


def test_trace_writes_are_deterministic(tmp_path):
    first = write_trace(_play(), tmp_path / "a")
    second = write_trace(_play(), tmp_path / "b")
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes()


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

    no_rounds = tmp_path / "n.csv"
    no_rounds.write_text("t,attack,cost,payoff,revealed,beta\n")
    with pytest.raises(FileFormatError, match="no rounds"):
        load_attack_sequence(no_rounds)


def test_load_summary_version_check(tmp_path):
    trace = _play(rounds=2)
    paths = write_trace(trace, tmp_path)
    doc = json.loads(paths["summary"].read_text())
    doc["trace_format_version"] = 99
    paths["summary"].write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match="trace_format_version"):
        load_summary(paths["summary"])

    not_json = tmp_path / "bad.json"
    not_json.write_text("{nope")
    with pytest.raises(FileFormatError) as err:
        load_summary(not_json)
    assert err.value.code == "E-SYNTAX"


def test_load_allocations_schema_errors(tmp_path):
    path = tmp_path / "alloc.json"
    path.write_text('{"не-int": {"e": 1.0}}')
    with pytest.raises(FileFormatError, match="not an integer"):
        load_allocations(path)
    path.write_text('{"1": {"e": true}}')
    with pytest.raises(FileFormatError, match="must be a number"):
        load_allocations(path)
    path.write_text('{"1": [1, 2]}')
    with pytest.raises(FileFormatError, match="mapping of edge amounts"):
        load_allocations(path)


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
    import yaml

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
    assert config.name is None


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
    assert config.name == "exp-1"
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
    ],
)
def test_load_config_errors(tmp_path, overrides, code, fragment):
    with pytest.raises(FileFormatError, match=fragment) as err:
        load_config(_write_config(tmp_path, **overrides))
    assert err.value.code == code
