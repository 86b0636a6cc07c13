"""File formats: YAML system files, trace and bounds outputs, experiment configs.

System files (format_version 1) describe a graph system::

    format_version: 1
    name: two-routes          # optional
    start: s
    budget: 1.0
    rewards: {r: 1.0}         # omitted vertices pay zero
    vertices: [r, s]          # optional; unions with inferred endpoints
    edges:
      - {id: e1, src: s, dst: r, surface: 1.0}

Unknown keys are rejected.  Structural problems raise
:class:`FileFormatError` with code E-IO (unreadable), E-SYNTAX (not
UTF-8, or not parseable, which includes an integer past Python's
int-string digit limit) or E-SCHEMA (wrong shape, or a number beyond the
float range); semantic problems surface as
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

Every output file is written here, its directory created first; one
that cannot be made raises :class:`FileFormatError` with code E-IO.
PyYAML is imported by the two functions that parse and dump YAML, so a
command that reads and writes no YAML never loads it.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from os import PathLike
from pathlib import Path
from typing import NoReturn

from .analysis import BoundReport
from .attackers import MultiAttackRound
from .engine import GameTrace
from .fixtures import FIXTURES, fixture
from .model import (
    Attack,
    DefenseAllocation,
    System,
    cumulative_roa,
    ensure_valid_system,
    ordered_sum,
)

SYSTEM_FORMAT_VERSION = 1
TRACE_FORMAT_VERSION = 1
CONFIG_FORMAT_VERSION = 1

TRACE_COLUMNS = ("t", "attack", "cost", "payoff", "revealed", "beta")

KNOWN_CHECKS = ("profit_regret", "roa_ratio")

# One round of allocations.json: with indent None the C encoder runs, and
# write_trace wraps its output in the layout of json.dumps(..., indent=2).
_ROUND_ENCODER = json.JSONEncoder(separators=(",\n    ", ": "), sort_keys=True)

_SYSTEM_KEYS = {
    "format_version",
    "name",
    "description",
    "start",
    "budget",
    "rewards",
    "vertices",
    "edges",
}
_EDGE_KEYS = {"id", "src", "dst", "surface"}
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


def _output_dir(path: str | PathLike) -> Path:
    """``path`` as a directory, created with its parents if missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FileFormatError("E-IO", f"cannot create {out}: {exc}") from exc
    return out


def _write_text(path: str | PathLike, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FileFormatError("E-IO", f"cannot write {path}: {exc}") from exc


def _parse_yaml(text: str, source: str):
    import yaml

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


def system_to_doc(system: System, name: str | None = None) -> dict:
    """JSON/YAML-ready document for a system."""
    doc: dict = {"format_version": SYSTEM_FORMAT_VERSION}
    if name is not None:
        doc["name"] = name
    doc["start"] = system.start
    doc["budget"] = float(system.budget)
    doc["rewards"] = {v: float(system.rewards[v]) for v in sorted(system.rewards)}
    doc["vertices"] = sorted(system.vertices)
    doc["edges"] = [
        {"id": e.id, "src": e.src, "dst": e.dst, "surface": float(e.surface)}
        for e in system.edges
    ]
    return doc


def system_from_doc(doc, source: str = "<doc>") -> System:
    """Parse and validate a system document.

    Shape problems raise :class:`FileFormatError` (E-SCHEMA); violations
    of model invariants raise ``ValidationError``.
    """
    if not isinstance(doc, dict):
        _schema(source, f"expected a mapping at top level, got {type(doc).__name__}")
    version = _integer(doc.get("format_version"), "format_version", source)
    if version != SYSTEM_FORMAT_VERSION:
        _schema(source, f"format_version must be {SYSTEM_FORMAT_VERSION}, got {version!r}")
    _reject_unknown(doc, _SYSTEM_KEYS, source)
    start = _string(doc, "start", source)
    budget = _number(doc.get("budget"), "budget", source)
    rewards = _reward_map(doc.get("rewards"), source)
    extra_vertices = set(_string_list(doc.get("vertices", []), "vertices", source))
    system = System.build(_edge_rows(doc.get("edges"), source), rewards, start, budget)
    if extra_vertices - system.vertices:
        system = replace(system, vertices=system.vertices | extra_vertices)
    ensure_valid_system(system)
    return system


def _edge_rows(value, source: str) -> list[tuple]:
    """``(id, src, dst, surface)`` rows, one per mapping in the list ``value``."""
    if not isinstance(value, list):
        _schema(source, f"'edges' must be a list, got {value!r}")
    rows = []
    for i, entry in enumerate(value):
        where = f"edges[{i}]"
        if not isinstance(entry, dict):
            _schema(source, f"{where} must be a mapping, got {entry!r}")
        _reject_unknown(entry, _EDGE_KEYS, source, where)
        rows.append(
            (
                *(_string(entry, key, source, where) for key in ("id", "src", "dst")),
                _number(entry.get("surface"), f"{where}.surface", source),
            )
        )
    return rows


def load_system(path: str | PathLike) -> System:
    """Read and validate a YAML system file."""
    text = _read_text(path)
    doc = _parse_yaml(text, str(path))
    return system_from_doc(doc, source=str(path))


def save_system(
    system: System,
    path: str | PathLike,
    name: str | None = None,
    header: str | None = None,
) -> None:
    """Write a YAML system file; ``header`` lines become leading comments."""
    import yaml

    doc = system_to_doc(system, name=name)
    text = yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
    if header:
        comments = "".join(f"# {line}".rstrip() + "\n" for line in header.splitlines())
        text = comments + text
    _write_text(path, text)


def emit_fixtures(out_dir: str | PathLike) -> Iterator[Path]:
    """Write every built-in fixture as ``<name>.yaml`` into ``out_dir``,
    yielding each path once it is written."""
    out = _output_dir(out_dir)
    for name in sorted(FIXTURES):
        path = out / f"{name}.yaml"
        save_system(fixture(name), path, name=name, header=f"built-in fixture {name}")
        yield path


def resolve_system(spec: str) -> System:
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
    ``Infinity`` or ``NaN``, which Python's reader accepts back.  A trace
    without rounds is refused with ``ValueError`` before any file is made.
    """
    if not trace.records:
        raise ValueError("cannot write a trace with no rounds")
    out = _output_dir(out_dir)

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
            fh.write("\n}\n")
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
            "cost": ordered_sum(costs),
            "payoff": ordered_sum(payoffs),
            "cumulative_roa": cumulative_roa(payoffs, costs),
        },
    }
    summary_path = out / "summary.json"
    _write_text(summary_path, json.dumps(summary, indent=2) + "\n")
    return {"trace": trace_path, "allocations": alloc_path, "summary": summary_path}


def write_bounds(reports: Iterable[BoundReport], out_dir: str | PathLike) -> Path:
    """Write ``bounds.json`` (the reports' ``as_dict`` forms) into
    ``out_dir`` and return its path."""
    path = _output_dir(out_dir) / "bounds.json"
    doc = {"reports": [r.as_dict() for r in reports]}
    _write_text(path, json.dumps(doc, indent=2) + "\n")
    return path


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


def load_fixed_allocation(path: str | PathLike, system: System) -> DefenseAllocation:
    """One allocation from an edge-to-amount JSON file for ``system``.

    E-IO if unreadable, E-SYNTAX if not JSON, E-SCHEMA if not a mapping
    or keyed by edges the system lacks; amounts infeasible under its
    budget or NaN raise ``ValueError``.
    """
    text = _read_text(path)
    try:
        doc = json.loads(text)
    # JSONDecodeError is a ValueError, as is an integer past the digit limit.
    except (ValueError, RecursionError) as exc:
        raise FileFormatError("E-SYNTAX", f"{path}: not parseable JSON ({exc})") from exc
    if not isinstance(doc, dict):
        _schema(str(path), "expected a mapping at top level")
    _reject_unknown(doc, set(system.edge_ids), str(path))
    return DefenseAllocation(
        {edge: _number(amount, f"edge {edge}", str(path)) for edge, amount in doc.items()},
        system.budget,
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
        if not 0 < alpha < math.inf:
            bad(f"alpha must be positive and finite, got {alpha}")
    if "roa_ratio" in checks and alpha is None:
        bad("the roa_ratio check needs a positive alpha")
    # The name only labels the file, but a malformed one is still refused.
    if doc.get("name") is not None:
        _string(doc, "name", source)
    return ExperimentConfig(
        system=system,
        defender=defender,
        attacker=attacker,
        rounds=rounds,
        seed=seed,
        checks=checks,
        alpha=alpha,
    )
