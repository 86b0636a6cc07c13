"""File formats: YAML system files, trace outputs, experiment configs.

System files (format_version 1) describe either a graph system::

    format_version: 1
    name: two-routes          # optional
    start: s
    budget: 1.0
    rewards: {r: 1.0}         # omitted vertices pay zero
    vertices: [r, s]          # optional; unions with inferred endpoints
    edges:
      - {id: e1, src: s, dst: r, surface: 1.0}

or, with ``clauses`` in place of ``edges``, a Horn system::

    format_version: 1
    budget: 2.0
    rewards: {data: 5.0}
    clauses:
      - {id: boot, antecedents: [], consequent: foothold, surface: 2.0}

Unknown keys are rejected.  Structural problems raise
:class:`FileFormatError` with code E-IO (unreadable), E-SYNTAX (not
parseable) or E-SCHEMA (wrong shape); semantic problems surface as
:class:`~.model.ValidationError` with the model's own codes.

A recorded game becomes three files in one directory: ``trace.csv``
(columns t, attack, cost, payoff, revealed, beta; attack steps joined by
";", simultaneous attacks by "|"), ``allocations.json`` (round index to
edge amounts) and ``summary.json`` (format version, seed, policy
descriptors, the embedded system document and totals).  Floats are
written with ``repr`` so they round-trip binary64 exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from os import PathLike
from pathlib import Path
from typing import NoReturn

import yaml

from .attackers import MultiAttackRound
from .engine import GameTrace
from .fixtures import FIXTURES, fixture
from .horn import HornSystem
from .model import (
    Attack,
    DefenseAllocation,
    System,
    cumulative_roa,
    ensure_valid_system,
)

SYSTEM_FORMAT_VERSION = 1
TRACE_FORMAT_VERSION = 1
CONFIG_FORMAT_VERSION = 1

TRACE_COLUMNS = ("t", "attack", "cost", "payoff", "revealed", "beta")

KNOWN_CHECKS = ("profit_regret", "roa_ratio")

_GRAPH_KEYS = {
    "format_version",
    "name",
    "description",
    "start",
    "budget",
    "rewards",
    "vertices",
    "edges",
}
_HORN_KEYS = {
    "format_version",
    "name",
    "description",
    "budget",
    "rewards",
    "propositions",
    "clauses",
}
_EDGE_KEYS = {"id", "src", "dst", "surface"}
_CLAUSE_KEYS = {"id", "antecedents", "consequent", "surface"}
_CONFIG_KEYS = {
    "format_version",
    "name",
    "system",
    "defender",
    "attacker",
    "rounds",
    "seed",
    "alpha",
    "checks",
}


class FileFormatError(Exception):
    """A file that could not be read, parsed, or matched to its schema.

    ``code`` is one of E-IO, E-SYNTAX, E-SCHEMA, E-CONFIG.
    """

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"[{code}] {message}")


def _schema(source: str, message: str) -> NoReturn:
    raise FileFormatError("E-SCHEMA", f"{source}: {message}")


def _read_text(path: str | PathLike) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError("E-IO", f"cannot read {path}: {exc}") from exc


def _write_text(path: str | PathLike, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FileFormatError("E-IO", f"cannot write {path}: {exc}") from exc


def _parse_yaml(text: str, source: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise FileFormatError("E-SYNTAX", f"{source}: not parseable YAML ({exc})") from exc


def _reject_unknown(mapping: dict, allowed: set, source: str, where: str = "") -> None:
    unknown = sorted(str(k) for k in set(mapping) - allowed)
    if unknown:
        prefix = f"{where}: " if where else ""
        _schema(source, f"{prefix}unknown keys {unknown}")


def _string(mapping: dict, key: str, source: str, where: str = "") -> str:
    prefix = f"{where}." if where else ""
    value = mapping.get(key)
    if not isinstance(value, str) or not value:
        _schema(source, f"'{prefix}{key}' must be a non-empty string, got {value!r}")
    return value


def _number(value, what: str, source: str) -> float:
    # bool is an int subclass; a YAML "true" is never a valid quantity.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _schema(source, f"'{what}' must be a number, got {value!r}")
    return float(value)


def _integer(value, what: str, source: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _schema(source, f"'{what}' must be an integer, got {value!r}")
    return value


def _string_list(value, what: str, source: str) -> list[str]:
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        _schema(source, f"'{what}' must be a list of strings, got {value!r}")
    return value


def _reward_map(value, source: str) -> dict[str, float]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        _schema(source, f"'rewards' must be a mapping, got {value!r}")
    out: dict[str, float] = {}
    for key, amount in value.items():
        if not isinstance(key, str):
            _schema(source, f"reward key {key!r} must be a string (quote it)")
        out[key] = _number(amount, f"rewards.{key}", source)
    return out


# ---------------------------------------------------------------------------
# system files


def system_to_doc(system: System | HornSystem, name: str | None = None) -> dict:
    """JSON/YAML-ready document for a graph or Horn system."""
    doc: dict = {"format_version": SYSTEM_FORMAT_VERSION}
    if name is not None:
        doc["name"] = name
    if isinstance(system, HornSystem):
        doc["budget"] = float(system.budget)
        doc["rewards"] = {p: float(system.rewards[p]) for p in sorted(system.rewards)}
        doc["propositions"] = sorted(system.propositions)
        doc["clauses"] = [
            {
                "id": c.id,
                "antecedents": sorted(c.antecedents),
                "consequent": c.consequent,
                "surface": float(c.surface),
            }
            for c in system.clauses
        ]
        return doc
    doc["start"] = system.start
    doc["budget"] = float(system.budget)
    doc["rewards"] = {v: float(system.rewards[v]) for v in sorted(system.rewards)}
    doc["vertices"] = sorted(system.vertices)
    doc["edges"] = [
        {"id": e.id, "src": e.src, "dst": e.dst, "surface": float(e.surface)}
        for e in system.edges
    ]
    return doc


def system_from_doc(doc, source: str = "<doc>") -> System | HornSystem:
    """Parse and validate a system document.

    Shape problems raise :class:`FileFormatError` (E-SCHEMA); violations
    of model invariants raise ``ValidationError``.
    """
    if not isinstance(doc, dict):
        _schema(source, f"expected a mapping at top level, got {type(doc).__name__}")
    version = doc.get("format_version")
    if version != SYSTEM_FORMAT_VERSION:
        _schema(source, f"format_version must be {SYSTEM_FORMAT_VERSION}, got {version!r}")
    if ("edges" in doc) == ("clauses" in doc):
        _schema(source, "exactly one of 'edges' (graph) or 'clauses' (Horn) is required")
    if "clauses" in doc:
        system: System | HornSystem = _horn_from_doc(doc, source)
    else:
        system = _graph_from_doc(doc, source)
    ensure_valid_system(system)
    return system


def _graph_from_doc(doc: dict, source: str) -> System:
    _reject_unknown(doc, _GRAPH_KEYS, source)
    start = _string(doc, "start", source)
    budget = _number(doc.get("budget"), "budget", source)
    rewards = _reward_map(doc.get("rewards"), source)
    extra_vertices = set(_string_list(doc.get("vertices", []), "vertices", source))
    edges_field = doc.get("edges")
    if not isinstance(edges_field, list):
        _schema(source, f"'edges' must be a list, got {edges_field!r}")
    rows = []
    for i, entry in enumerate(edges_field):
        where = f"edges[{i}]"
        if not isinstance(entry, dict):
            _schema(source, f"{where} must be a mapping, got {entry!r}")
        _reject_unknown(entry, _EDGE_KEYS, source, where)
        rows.append(
            (
                _string(entry, "id", source, where),
                _string(entry, "src", source, where),
                _string(entry, "dst", source, where),
                _number(entry.get("surface"), f"{where}.surface", source),
            )
        )
    system = System.build(edges=rows, rewards=rewards, start=start, budget=budget)
    if extra_vertices - system.vertices:
        system = System(
            system.vertices | extra_vertices,
            system.edges,
            dict(system.rewards),
            start,
            budget,
        )
    return system


def _horn_from_doc(doc: dict, source: str) -> HornSystem:
    _reject_unknown(doc, _HORN_KEYS, source)
    budget = _number(doc.get("budget"), "budget", source)
    rewards = _reward_map(doc.get("rewards"), source)
    extra_props = set(_string_list(doc.get("propositions", []), "propositions", source))
    clauses_field = doc.get("clauses")
    if not isinstance(clauses_field, list):
        _schema(source, f"'clauses' must be a list, got {clauses_field!r}")
    rows = []
    for i, entry in enumerate(clauses_field):
        where = f"clauses[{i}]"
        if not isinstance(entry, dict):
            _schema(source, f"{where} must be a mapping, got {entry!r}")
        _reject_unknown(entry, _CLAUSE_KEYS, source, where)
        rows.append(
            (
                _string(entry, "id", source, where),
                _string_list(
                    entry.get("antecedents", []), f"{where}.antecedents", source
                ),
                _string(entry, "consequent", source, where),
                _number(entry.get("surface"), f"{where}.surface", source),
            )
        )
    system = HornSystem.build(clauses=rows, rewards=rewards, budget=budget)
    if extra_props - system.propositions:
        system = HornSystem(
            system.propositions | extra_props,
            system.clauses,
            dict(system.rewards),
            budget,
        )
    return system


def load_system(path: str | PathLike) -> System | HornSystem:
    """Read and validate a YAML system file."""
    text = _read_text(path)
    doc = _parse_yaml(text, str(path))
    return system_from_doc(doc, source=str(path))


def save_system(
    system: System | HornSystem,
    path: str | PathLike,
    name: str | None = None,
    header: str | None = None,
) -> None:
    """Write a YAML system file; ``header`` lines become leading comments."""
    doc = system_to_doc(system, name=name)
    text = yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
    if header:
        comments = "".join(f"# {line}".rstrip() + "\n" for line in header.splitlines())
        text = comments + text
    _write_text(path, text)


def resolve_system(spec: str) -> System | HornSystem:
    """Resolve a fixture name or a system file path."""
    if spec in FIXTURES:
        return fixture(spec)
    if Path(spec).exists():
        return load_system(spec)
    names = ", ".join(sorted(FIXTURES))
    raise FileFormatError(
        "E-IO", f"{spec!r} is neither a fixture ({names}) nor an existing file"
    )


# ---------------------------------------------------------------------------
# traces


def _format_attacks(attacks: tuple[Attack, ...]) -> str:
    return "|".join(";".join(a.path) for a in attacks)


def write_trace(trace: GameTrace, out_dir: str | PathLike) -> dict[str, Path]:
    """Write trace.csv, allocations.json and summary.json into ``out_dir``.

    Returns the three paths keyed as "trace", "allocations", "summary".
    ``cumulative_roa`` in the summary may serialize as the JSON extensions
    ``Infinity`` or ``NaN``, which Python's reader accepts back.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FileFormatError("E-IO", f"cannot create {out}: {exc}") from exc

    trace_path = out / "trace.csv"
    try:
        with open(trace_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for record in trace.records:
                writer.writerow(
                    [
                        record.round_index,
                        _format_attacks(record.attacks),
                        repr(record.cost),
                        repr(record.payoff),
                        ";".join(record.newly_revealed),
                        "" if record.beta is None else repr(record.beta),
                    ]
                )
    except OSError as exc:
        raise FileFormatError("E-IO", f"cannot write {trace_path}: {exc}") from exc

    allocations = {
        str(r.round_index): dict(sorted(r.allocation.alloc.items()))
        for r in trace.records
    }
    alloc_path = out / "allocations.json"
    _write_text(alloc_path, json.dumps(allocations, indent=2) + "\n")

    costs = trace.costs()
    payoffs = trace.payoffs()
    summary = {
        "trace_format_version": TRACE_FORMAT_VERSION,
        "seed": trace.seed,
        "rounds": trace.rounds,
        "defender": dict(trace.defender),
        "attacker": dict(trace.attacker),
        "system": system_to_doc(trace.system),
        "totals": {
            "cost": sum(costs),
            "payoff": sum(payoffs),
            "cumulative_roa": cumulative_roa(payoffs, costs),
        },
    }
    summary_path = out / "summary.json"
    _write_text(summary_path, json.dumps(summary, indent=2) + "\n")
    return {"trace": trace_path, "allocations": alloc_path, "summary": summary_path}


def load_attack_sequence(path: str | PathLike) -> tuple[Attack | MultiAttackRound, ...]:
    """Replayable per-round moves from a trace.csv file."""
    text = _read_text(path)
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if header is None:
        _schema(str(path), "empty trace file")
    if tuple(header) != TRACE_COLUMNS:
        _schema(str(path), f"unexpected columns {header!r}, want {list(TRACE_COLUMNS)}")
    moves: list[Attack | MultiAttackRound] = []
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(TRACE_COLUMNS):
            _schema(str(path), f"line {line_number}: expected {len(TRACE_COLUMNS)} fields")
        attacks = []
        for group in row[1].split("|"):
            steps = tuple(step for step in group.split(";") if step)
            if not steps:
                _schema(str(path), f"line {line_number}: empty attack")
            attacks.append(Attack(steps))
        moves.append(attacks[0] if len(attacks) == 1 else MultiAttackRound(tuple(attacks)))
    if not moves:
        _schema(str(path), "no rounds recorded")
    return tuple(moves)


def _load_json_mapping(path: str | PathLike) -> dict:
    """Top-level mapping of a JSON file: E-IO if unreadable, E-SYNTAX if
    not JSON, E-SCHEMA if not a mapping."""
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError("E-SYNTAX", f"{path}: not parseable JSON ({exc})") from exc
    if not isinstance(doc, dict):
        _schema(str(path), "expected a mapping at top level")
    return doc


def load_summary(path: str | PathLike) -> dict:
    """Summary document, after checking its trace format version."""
    doc = _load_json_mapping(path)
    version = doc.get("trace_format_version")
    if version != TRACE_FORMAT_VERSION:
        _schema(
            str(path),
            f"trace_format_version must be {TRACE_FORMAT_VERSION}, got {version!r}",
        )
    return doc


def load_allocations(path: str | PathLike) -> dict[int, dict[str, float]]:
    """Per-round allocations from an allocations.json file."""
    doc = _load_json_mapping(path)
    out: dict[int, dict[str, float]] = {}
    for key, mapping in doc.items():
        try:
            round_index = int(key)
        except ValueError:
            _schema(str(path), f"round key {key!r} is not an integer")
        if not isinstance(mapping, dict):
            _schema(str(path), f"round {key}: expected a mapping of edge amounts")
        out[round_index] = {
            unit: _number(amount, f"round {key}, edge {unit}", str(path))
            for unit, amount in mapping.items()
        }
    return out


def load_fixed_allocation(path: str | PathLike, budget: float) -> DefenseAllocation:
    """One allocation from an edge-to-amount JSON file, checked against
    ``budget`` (infeasible or NaN amounts raise ``ValueError``)."""
    doc = _load_json_mapping(path)
    return DefenseAllocation(
        {unit: _number(amount, f"edge {unit}", str(path)) for unit, amount in doc.items()},
        budget,
    )


# ---------------------------------------------------------------------------
# experiment configs


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulate-and-verify run, as read from a config file.

    ``system`` is a fixture name or file path (resolve with
    :func:`resolve_system`); ``defender`` and ``attacker`` are policy
    specs interpreted by the command-line layer.
    """

    system: str
    defender: str
    attacker: str
    rounds: int
    seed: int
    checks: tuple[str, ...]
    alpha: float | None
    name: str | None = None


def load_config(path: str | PathLike) -> ExperimentConfig:
    """Read an experiment config; semantic problems report code E-CONFIG."""
    source = str(path)
    text = _read_text(path)
    doc = _parse_yaml(text, source)
    if not isinstance(doc, dict):
        _schema(source, f"expected a mapping at top level, got {type(doc).__name__}")
    _reject_unknown(doc, _CONFIG_KEYS, source)
    version = doc.get("format_version")
    if version != CONFIG_FORMAT_VERSION:
        _schema(source, f"format_version must be {CONFIG_FORMAT_VERSION}, got {version!r}")

    def bad(message: str) -> NoReturn:
        raise FileFormatError("E-CONFIG", f"{source}: {message}")

    system = _string(doc, "system", source)
    defender = _string(doc, "defender", source)
    attacker = _string(doc, "attacker", source)
    rounds = _integer(doc.get("rounds"), "rounds", source)
    if rounds < 1:
        bad(f"rounds must be at least 1, got {rounds}")
    seed = _integer(doc.get("seed", 0), "seed", source)
    checks_field = doc.get("checks", ["profit_regret"])
    checks = tuple(_string_list(checks_field, "checks", source))
    for check in checks:
        if check not in KNOWN_CHECKS:
            bad(f"unknown check {check!r}, known: {', '.join(KNOWN_CHECKS)}")
    alpha = None
    if doc.get("alpha") is not None:
        alpha = _number(doc["alpha"], "alpha", source)
        if alpha <= 0:
            bad(f"alpha must be positive, got {alpha}")
    if "roa_ratio" in checks and alpha is None:
        bad("the roa_ratio check needs a positive alpha")
    name = None
    if doc.get("name") is not None:
        name = _string(doc, "name", source)
    return ExperimentConfig(
        system=system,
        defender=defender,
        attacker=attacker,
        rounds=rounds,
        seed=seed,
        checks=checks,
        alpha=alpha,
        name=name,
    )
