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
UTF-8, or not parseable, which includes a key given twice in one
mapping and an integer past Python's int-string digit limit) or
E-SCHEMA (wrong shape, or a number beyond the float range); semantic
problems surface as :class:`~.model.ValidationError` with the model's
own codes.

A recorded game becomes three files in one directory: ``trace.csv``
(columns t, attack, cost, payoff, revealed, beta; attack steps joined by
";", the attacks of a population round by "|"), ``allocations.json``
(round index to edge amounts, ids sorted, laid out as
``json.dumps(..., indent=2)``) and ``summary.json`` (format version,
seed, policy descriptors, the embedded system document and totals).  The
first two are streamed a round at a time, so writing them takes memory
independent of the game's length.  Floats are written with ``repr`` so
they round-trip binary64 exactly.  Only ``trace.csv`` is read back, each
row as its round's tuple of attacks, to be replayed.

Every output file is written here through one opener that creates its
directory first; a file that cannot be written raises
:class:`FileFormatError` with code E-IO, naming that file.
PyYAML is imported by the two functions that parse and dump YAML, so a
command that reads and writes no YAML never loads it.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from os import PathLike
from pathlib import Path
from typing import NamedTuple, NoReturn, TextIO

from .analysis import BoundReport
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


@contextmanager
def _create(path: Path) -> Iterator[TextIO]:
    """``path`` open for UTF-8 writing, its directory created first."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise FileFormatError("E-IO", f"cannot write {path}: {exc}") from exc


def _parse_yaml(text: str, source: str):
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        # Keys are compared as composed, before any "<<" merge is expanded,
        # so an explicit key may still override a merged one.
        def compose_mapping_node(self, anchor):
            node = super().compose_mapping_node(anchor)
            seen = set()
            for key, _ in node.value:
                if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                    if (key.tag, key.value) in seen:
                        problem = f"found duplicate key {key.value!r}"
                        raise yaml.composer.ComposerError(None, None, problem, key.start_mark)
                    seen.add((key.tag, key.value))
            return node

    try:
        loader = UniqueKeyLoader(text)
        # Error marks name the file, not "<unicode string>".
        loader.name = source
        try:
            return loader.get_single_data()
        finally:
            loader.dispose()
    # ValueError: integers past Python's digit limit, impossible dates.
    except (yaml.YAMLError, RecursionError, ValueError) as exc:
        if isinstance(exc, yaml.reader.ReaderError):
            # A non-printable character is found while the loader is built.
            exc.name = source
        raise FileFormatError("E-SYNTAX", f"{source}: not parseable YAML ({exc})") from exc


def _unique_pairs(pairs: list[tuple]) -> dict:
    """A JSON object as a dict, refused if a key repeats."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _mapping(value, allowed: set, source: str, where: str = "") -> dict:
    """``value``, which must be a mapping with no keys outside ``allowed``."""
    if not isinstance(value, dict):
        got = type(value).__name__
        _schema(source, f"expected a mapping at {where or 'top level'}, got {got}")
    unknown = sorted(str(k) for k in set(value) - allowed)
    if unknown:
        prefix = f"{where}: " if where else ""
        _schema(source, f"{prefix}unknown keys {unknown}")
    return value


def _document(doc, version: int, allowed: set, source: str) -> dict:
    """A system file or config checked in order: a mapping, its
    ``format_version``, its keys, and its optional labels."""
    if isinstance(doc, dict):
        found = _integer(doc.get("format_version"), "format_version", source)
        if found != version:
            _schema(source, f"format_version must be {version}, got {found!r}")
    _mapping(doc, allowed, source)
    for label in ("name", "description"):
        if doc.get(label) is not None:
            _string(doc, label, source)
    return doc


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
    _document(doc, SYSTEM_FORMAT_VERSION, _SYSTEM_KEYS, source)
    start = _string(doc, "start", source)
    budget = _number(doc.get("budget"), "budget", source)
    rewards = _reward_map(doc.get("rewards"), source)
    extra_vertices = set(_string_list(doc.get("vertices", []), "vertices", source))
    system = System.build(_edge_rows(doc.get("edges"), source), rewards, start, budget)
    if extra_vertices - system.vertices:
        system = System(system.vertices | extra_vertices, system.edges, system.rewards, start, budget)
    ensure_valid_system(system)
    return system


def _edge_rows(value, source: str) -> list[tuple]:
    """``(id, src, dst, surface)`` rows, one per mapping in the list ``value``."""
    if not isinstance(value, list):
        _schema(source, f"'edges' must be a list, got {value!r}")
    rows = []
    for i, entry in enumerate(value):
        where = f"edges[{i}]"
        _mapping(entry, _EDGE_KEYS, source, where)
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
    with _create(Path(path)) as fh:
        fh.write(text)


def emit_fixtures(out_dir: str | PathLike) -> Iterator[Path]:
    """Write every built-in fixture as ``<name>.yaml`` into ``out_dir``,
    yielding each path once it is written."""
    for name in sorted(FIXTURES):
        path = Path(out_dir) / f"{name}.yaml"
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
    out = Path(out_dir)

    trace_path = out / "trace.csv"
    with _create(trace_path) as fh:
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

    alloc_path = out / "allocations.json"
    with _create(alloc_path) as fh:
        sep = "{\n"
        for r in trace.records:
            body = _ROUND_ENCODER.encode(dict(r.allocation.alloc.items()))[1:-1]
            amounts = f"{{\n    {body}\n  }}" if body else "{}"
            fh.write(f'{sep}  "{r.round_index}": {amounts}')
            sep = ",\n"
        fh.write("\n}\n")

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
    with _create(summary_path) as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    return {"trace": trace_path, "allocations": alloc_path, "summary": summary_path}


def write_bounds(reports: Iterable[BoundReport], out_dir: str | PathLike) -> Path:
    """Write ``bounds.json`` (the reports' ``_asdict`` forms) into
    ``out_dir`` and return its path."""
    path = Path(out_dir) / "bounds.json"
    doc = {"reports": [r._asdict() for r in reports]}
    with _create(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return path


def load_attack_sequence(path: str | PathLike) -> tuple[tuple[Attack, ...], ...]:
    """Each recorded round's attacks from a trace.csv file, a tuple per round."""
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
    moves: list[tuple[Attack, ...]] = []
    for line_number, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(TRACE_COLUMNS):
            _schema(str(path), f"line {line_number}: expected {len(TRACE_COLUMNS)} fields")
        attacks = []
        for group in row[1].split("|"):
            if not group:
                _schema(str(path), f"line {line_number}: empty attack")
            steps = group.split(";")
            if "" in steps:
                _schema(str(path), f"line {line_number}: empty step in attack {group!r}")
            attacks.append(Attack(steps))
        moves.append(tuple(attacks))
    if not moves:
        _schema(str(path), "no rounds recorded")
    return tuple(moves)


def load_fixed_allocation(path: str | PathLike, system: System) -> DefenseAllocation:
    """One allocation from an edge-to-amount JSON file for ``system``.

    E-IO if unreadable, E-SYNTAX if not JSON or a key repeats, E-SCHEMA
    if not a mapping or keyed by edges the system lacks; amounts
    infeasible under its budget or NaN raise ``ValueError``.
    """
    text = _read_text(path)
    try:
        doc = json.loads(text, object_pairs_hook=_unique_pairs)
    # JSONDecodeError is a ValueError, as is an integer past the digit limit.
    except (ValueError, RecursionError) as exc:
        raise FileFormatError("E-SYNTAX", f"{path}: not parseable JSON ({exc})") from exc
    _mapping(doc, set(system.edge_ids), str(path))
    return DefenseAllocation(
        {edge: _number(amount, f"edge {edge}", str(path)) for edge, amount in doc.items()},
        system.budget,
    )


# ---------------------------------------------------------------------------
# experiment configs


class ExperimentConfig(NamedTuple):
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
    doc = _document(_parse_yaml(text, source), CONFIG_FORMAT_VERSION, _CONFIG_KEYS, source)

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
    if not checks:
        bad("checks must name at least one check")
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
    return ExperimentConfig(
        system=system,
        defender=defender,
        attacker=attacker,
        rounds=rounds,
        seed=seed,
        checks=checks,
        alpha=alpha,
    )
