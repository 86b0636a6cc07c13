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

Both kinds are read and written from one table of row fields, and
:func:`~.model.validate_system` checks both.  Unknown keys are rejected.
Structural problems raise :class:`FileFormatError` with code E-IO
(unreadable), E-SYNTAX (not UTF-8, or not parseable, which includes an
integer past Python's int-string digit limit) or E-SCHEMA (wrong shape,
or a number beyond the float range); semantic problems surface as
:class:`~.model.ValidationError` with the model's own codes.

A recorded game becomes three files in one directory: ``trace.csv``
(columns t, attack, cost, payoff, revealed, beta; attack steps joined by
";", simultaneous attacks by "|"), ``allocations.json`` (round index to
edge amounts, ids sorted, laid out as ``json.dumps(..., indent=2)``) and
``summary.json`` (format version, seed, policy descriptors, the embedded
system document and totals).  The first two are streamed a round at a
time, so writing them takes memory independent of the game's length.
Floats are written with ``repr`` so they round-trip binary64 exactly.
Only ``trace.csv`` is read back, as the move list of a replay.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
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

# One round of allocations.json: with indent None the C encoder runs, and
# write_trace wraps its output in the layout of json.dumps(..., indent=2).
_ROUND_ENCODER = json.JSONEncoder(separators=(",\n    ", ": "), sort_keys=True)

_COMMON_KEYS = {"format_version", "name", "description", "budget", "rewards"}
# Per back end, keyed by its rows key: the key of its extra names and the
# fields of a row in constructor order, each with its type (str, a list of
# str, or a number).  Keys double as the attribute names of the system and
# of its edges or clauses.
_ROW_KINDS = {
    "edges": ("vertices", {"id": str, "src": str, "dst": str, "surface": float}),
    "clauses": (
        "propositions",
        {"id": str, "antecedents": list, "consequent": str, "surface": float},
    ),
}
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
    except UnicodeDecodeError as exc:
        raise FileFormatError("E-SYNTAX", f"{path}: not UTF-8 text ({exc})") from exc
    except ValueError as exc:  # a path with a NUL byte
        raise FileFormatError("E-IO", f"cannot read {str(path)!r}: {exc}") from exc


def _write_text(path: str | PathLike, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FileFormatError("E-IO", f"cannot write {path}: {exc}") from exc


def _parse_yaml(text: str, source: str):
    try:
        return yaml.safe_load(text)
    # ValueError: integers past Python's digit limit, impossible dates.
    except (yaml.YAMLError, RecursionError, ValueError) as exc:
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
    try:
        return float(value)
    except OverflowError:
        # An integer beyond the float range; its digits are not echoed.
        _schema(source, f"'{what}' must be a finite number")


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
    horn = isinstance(system, HornSystem)
    doc: dict = {"format_version": SYSTEM_FORMAT_VERSION}
    if name is not None:
        doc["name"] = name
    if not horn:
        doc["start"] = system.start
    doc["budget"] = float(system.budget)
    doc["rewards"] = {v: float(system.rewards[v]) for v in sorted(system.rewards)}
    rows_key = "clauses" if horn else "edges"
    names_key, fields = _ROW_KINDS[rows_key]
    doc[names_key] = sorted(getattr(system, names_key))
    doc[rows_key] = [
        {
            key: sorted(getattr(u, key)) if kind is list else kind(getattr(u, key))
            for key, kind in fields.items()
        }
        for u in getattr(system, rows_key)
    ]
    return doc


def system_from_doc(doc, source: str = "<doc>") -> System | HornSystem:
    """Parse and validate a system document.

    Shape problems raise :class:`FileFormatError` (E-SCHEMA); violations
    of model invariants raise ``ValidationError``.
    """
    if not isinstance(doc, dict):
        _schema(source, f"expected a mapping at top level, got {type(doc).__name__}")
    version = _integer(doc.get("format_version"), "format_version", source)
    if version != SYSTEM_FORMAT_VERSION:
        _schema(source, f"format_version must be {SYSTEM_FORMAT_VERSION}, got {version!r}")
    if ("edges" in doc) == ("clauses" in doc):
        _schema(source, "exactly one of 'edges' (graph) or 'clauses' (Horn) is required")
    horn = "clauses" in doc
    rows_key = "clauses" if horn else "edges"
    names_key, fields = _ROW_KINDS[rows_key]
    allowed = _COMMON_KEYS | {names_key, rows_key} | (set() if horn else {"start"})
    _reject_unknown(doc, allowed, source)
    start = None if horn else _string(doc, "start", source)
    budget = _number(doc.get("budget"), "budget", source)
    rewards = _reward_map(doc.get("rewards"), source)
    extra_names = set(_string_list(doc.get(names_key, []), names_key, source))
    rows = _rows(doc.get(rows_key), rows_key, fields, source)
    if horn:
        system: System | HornSystem = HornSystem.build(rows, rewards, budget)
    else:
        system = System.build(rows, rewards, start, budget)
    declared = getattr(system, names_key)
    if extra_names - declared:
        system = replace(system, **{names_key: declared | extra_names})
    ensure_valid_system(system)
    return system


def _rows(value, key: str, fields: dict, source: str) -> list[tuple]:
    """Rows of ``fields`` values, one per mapping in the list ``value``."""
    if not isinstance(value, list):
        _schema(source, f"'{key}' must be a list, got {value!r}")
    allowed, rows = set(fields), []
    for i, entry in enumerate(value):
        where = f"{key}[{i}]"
        if not isinstance(entry, dict):
            _schema(source, f"{where} must be a mapping, got {entry!r}")
        _reject_unknown(entry, allowed, source, where)
        row = []
        for field, kind in fields.items():
            if kind is str:
                row.append(_string(entry, field, source, where))
            elif kind is list:
                row.append(_string_list(entry.get(field, []), f"{where}.{field}", source))
            else:
                row.append(_number(entry.get(field), f"{where}.{field}", source))
        rows.append(tuple(row))
    return rows


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

    alloc_path = out / "allocations.json"
    try:
        with open(alloc_path, "w", encoding="utf-8") as fh:
            sep = "{\n"
            for r in trace.records:
                body = _ROUND_ENCODER.encode(dict(r.allocation.alloc))[1:-1]
                amounts = f"{{\n    {body}\n  }}" if body else "{}"
                fh.write(f'{sep}  "{r.round_index}": {amounts}')
                sep = ",\n"
            fh.write("\n}\n" if trace.records else "{}\n")
    except OSError as exc:
        raise FileFormatError("E-IO", f"cannot write {alloc_path}: {exc}") from exc

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
    # csv rejects NUL on Python 3.10 only; ids are plain tokens, so refuse it everywhere.
    if "\0" in text:
        raise FileFormatError("E-SYNTAX", f"{path}: NUL byte in trace")
    try:
        rows = list(csv.reader(text.splitlines()))
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise FileFormatError("E-SYNTAX", f"{path}: not parseable CSV ({exc})") from exc
    if not rows:
        _schema(str(path), "empty trace file")
    header = rows[0]
    if tuple(header) != TRACE_COLUMNS:
        _schema(str(path), f"unexpected columns {header!r}, want {list(TRACE_COLUMNS)}")
    moves: list[Attack | MultiAttackRound] = []
    for line_number, row in enumerate(rows[1:], start=2):
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
    # JSONDecodeError is a ValueError, as is an integer past the digit limit.
    except (ValueError, RecursionError) as exc:
        raise FileFormatError("E-SYNTAX", f"{path}: not parseable JSON ({exc})") from exc
    if not isinstance(doc, dict):
        _schema(str(path), "expected a mapping at top level")
    return doc


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
    version = _integer(doc.get("format_version"), "format_version", source)
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
        if not alpha > 0:
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
