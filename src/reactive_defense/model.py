"""Core model for budgeted attack-defense games on weighted directed graphs.

A system is a directed graph whose edges carry a positive attack surface
and whose vertices carry nonnegative rewards.  A defender divides a fixed
budget across edges; an attacker walks edge-simple paths rooted at the
start vertex.  Four functionals evaluate an exchange: ``payoff`` (rewards
of distinct visited vertices), ``cost`` (allocated defense divided by
surface, summed over the path), ``profit`` (payoff minus cost) and ``roa``
(return on attack, payoff over cost).

Return-on-attack uses extended-real conventions: positive payoff at zero
cost is ``math.inf``; zero payoff at positive cost is ``0.0``; the 0/0
case is a distinguished undefined marker (``math.nan``, test with
``math.isnan``).

``System`` construction is deliberately lenient so that malformed inputs
can be inspected; :func:`validate_system` reports every violated invariant
with a machine-readable code.  Game operations assume a validated system.
"""

from __future__ import annotations

import math
import re
from array import array
from collections.abc import ItemsView, Iterable, Mapping, Sequence
from types import MappingProxyType
from typing import NamedTuple

# Allocations may exceed the budget by at most this relative slack.
FEASIBILITY_RTOL = 1e-9

# Marker returned by roa/cumulative_roa for the 0/0 case.
ROA_UNDEFINED = math.nan

# The functionals a best-responding attacker maximizes.
OBJECTIVES = ("roa", "profit")

_ID_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


class Violation(NamedTuple):
    """One violated model invariant, with a stable machine-readable code."""

    code: str
    message: str


class ValidationError(ValueError):
    """Raised when a model object violates its invariants."""

    def __init__(self, violations: Iterable[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(f"[{v.code}] {v.message}" for v in self.violations))

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


class InvalidAttackError(ValueError):
    """Raised for paths that are not valid attacks on the given system."""


class EnumerationLimitError(RuntimeError):
    """Raised when a system admits more attacks than the caller allowed."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"more than {limit} edge-simple attacks")


class Edge(NamedTuple):
    """Directed edge with a positive attack surface."""

    id: str
    src: str
    dst: str
    surface: float


class Immutable:
    """Base of the value classes that normalise their fields on
    construction.  The public names in ``__slots__`` are the fields: they
    give ``==``, the hash and the repr, and ``__init__`` sets them once
    with ``object.__setattr__``.  Underscored slots hold indexes derived
    from the fields.  Any later assignment raises ``AttributeError``, so
    ``copy`` and ``pickle`` rebuild a value through its constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class System(Immutable):
    """Attack graph: vertices with rewards, surfaced edges, start, budget.

    Instances are immutable value objects; helper accessors (``edge``,
    ``out_edges``, ``reward``) are backed by indexes built once at
    construction.  Duplicate edge ids and other invariant violations are
    tolerated here and reported by :func:`validate_system`.
    """

    __slots__ = ("vertices", "edges", "rewards", "start", "budget", "_edge_map", "_out")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[Edge],
        rewards: Mapping[str, float],
        start: str,
        budget: float,
    ):
        edges = tuple(edges)
        out: dict[str, list[Edge]] = {}
        for e in sorted(edges, key=lambda e: e.id):
            out.setdefault(e.src, []).append(e)
        set_field = object.__setattr__
        set_field(self, "vertices", frozenset(vertices))
        set_field(self, "edges", edges)
        set_field(self, "rewards", MappingProxyType(dict(rewards)))
        set_field(self, "start", start)
        set_field(self, "budget", budget)
        set_field(self, "_edge_map", {e.id: e for e in edges})
        set_field(self, "_out", {v: tuple(es) for v, es in out.items()})

    @classmethod
    def build(
        cls,
        edges: Iterable[tuple[str, str, str, float]],
        rewards: Mapping[str, float] | None = None,
        start: str = "s",
        budget: float = 1.0,
    ) -> "System":
        """Construct from ``(id, src, dst, surface)`` rows; vertices are inferred."""
        rows = tuple(Edge(*row) for row in edges)
        rewards = dict(rewards or {})
        vertices = {start} | set(rewards)
        for e in rows:
            vertices.add(e.src)
            vertices.add(e.dst)
        return cls(frozenset(vertices), rows, rewards, start, budget)

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._edge_map

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_map[edge_id]
        except KeyError:
            raise KeyError(f"unknown edge {edge_id!r}") from None

    def surface(self, edge_id: str) -> float:
        return self.edge(edge_id).surface

    def reward(self, vertex: str) -> float:
        return self.rewards.get(vertex, 0.0)

    def out_edges(self, vertex: str) -> tuple[Edge, ...]:
        """Edges leaving ``vertex``, ordered by edge id."""
        return self._out.get(vertex, ())

    def start_edges(self) -> tuple[Edge, ...]:
        """Edges leaving the start vertex (the attack perimeter)."""
        return self.out_edges(self.start)


class SystemView(NamedTuple):
    """What a reactive defender sees at start: the start vertex and the
    budget, never edges or rewards; edges arrive only as round feedback."""

    start: str
    budget: float


class Attack(Immutable):
    """Edge-simple path rooted at the start vertex; ``path`` is a tuple
    of edge ids."""

    __slots__ = ("path",)

    def __init__(self, path: Iterable[str]):
        object.__setattr__(self, "path", tuple(path))

    def __len__(self) -> int:
        return len(self.path)


class PackedAmounts(Mapping):
    """Read-only mapping of edge ids to amounts, stored packed: ``index``
    maps each edge id to its position in ``amounts``, an ``array('d')``,
    and lists the ids in position order.  Mappings may share one index,
    so neither field may change once a mapping is built on it: the Hedge
    learner replaces its index on a reveal instead of extending it.
    ``keys()`` is the index's own view, and ``items()`` zips the two
    fields at C speed.  Unhashable, as a ``dict`` is."""

    __slots__ = ("index", "amounts")

    def __init__(self, index: dict[str, int], amounts: array):
        if not (type(amounts) is array and amounts.typecode == "d"):
            raise TypeError("amounts must be an array('d')")
        if len(index) != len(amounts):
            raise ValueError(f"{len(index)} edge ids for {len(amounts)} amounts")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "amounts", amounts)

    def __getitem__(self, unit: str) -> float:
        return self.amounts[self.index[unit]]

    def get(self, unit: str, default=None):
        position = self.index.get(unit)
        return default if position is None else self.amounts[position]

    def __contains__(self, unit) -> bool:
        return unit in self.index

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.amounts)

    def keys(self):
        return self.index.keys()

    def items(self) -> ItemsView:
        return _PackedItems(self)

    def __repr__(self):
        return f"{type(self).__qualname__}({dict(self.items())!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.index, self.amounts)


class _PackedItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        packed = self._mapping
        return zip(packed.index, packed.amounts)


class DefenseAllocation(Immutable):
    """Nonnegative split of a finite positive budget across edges.

    Edges absent from ``alloc`` receive zero.  The total may exceed the
    budget only by ``FEASIBILITY_RTOL * budget``; the all-zero allocation
    is always feasible (a defender need not spend anything).  ``alloc``
    is a ``PackedAmounts``: a packed mapping is adopted as it is, so
    consecutive learner allocations share one edge index, and any other
    mapping is packed once, its amounts stored as floats.
    """

    __slots__ = ("alloc", "budget")

    def __init__(self, alloc: Mapping[str, float], budget: float):
        if type(alloc) is not PackedAmounts:
            amounts = dict(alloc)
            alloc = PackedAmounts(
                {unit: position for position, unit in enumerate(amounts)},
                array("d", amounts.values()),
            )
        # Finite too: an infinite budget admits infinite amounts, which
        # price as 0 * inf = NaN.
        if not 0 < budget < math.inf:
            raise ValueError(f"budget must be positive, got {budget}")
        total = 0.0
        for unit, amount in zip(alloc.index, alloc.amounts):
            if not amount >= 0:
                raise ValueError(f"negative or NaN allocation {amount} on {unit!r}")
            total += amount
        if total > budget * (1.0 + FEASIBILITY_RTOL):
            raise ValueError(
                f"allocation total {total} exceeds budget {budget}"
            )
        object.__setattr__(self, "alloc", alloc)
        object.__setattr__(self, "budget", budget)

    def get(self, unit: str) -> float:
        return self.alloc.get(unit, 0.0)

    def total(self) -> float:
        return ordered_sum(self.alloc.amounts)

    def support(self) -> tuple[str, ...]:
        """Units with strictly positive allocation, in insertion order."""
        return tuple(u for u, a in self.alloc.items() if a > 0)


def zero_allocation(budget: float) -> DefenseAllocation:
    return DefenseAllocation({}, budget)


# ---------------------------------------------------------------------------
# validation


def validate_system(system: System) -> list[Violation]:
    """Check every invariant of a ``System``.

    Returns all violations (empty list means the system is well formed),
    coded E-BUDGET, E-ID, E-START, E-START-REWARD, E-VERTEX, E-REWARD
    (also for rewards whose total overflows), E-EDGE-ID, E-ENDPOINT and
    E-SURFACE.
    """
    out: list[Violation] = []
    if not (math.isfinite(system.budget) and system.budget > 0):
        out.append(Violation("E-BUDGET", f"budget must be positive, got {system.budget}"))
    for v in sorted(system.vertices):
        if not _ID_PATTERN.fullmatch(v):
            out.append(Violation("E-ID", f"vertex id {v!r} is not a plain token"))
    if system.start not in system.vertices:
        out.append(Violation("E-START", f"start vertex {system.start!r} is not declared"))
    elif system.reward(system.start) != 0:
        out.append(
            Violation(
                "E-START-REWARD",
                f"start vertex must have zero reward, got {system.reward(system.start)}",
            )
        )
    total = 0.0
    for v, reward in system.rewards.items():
        if v not in system.vertices:
            out.append(Violation("E-VERTEX", f"reward names undeclared vertex {v!r}"))
        if math.isfinite(reward) and reward >= 0:
            total += reward
        else:
            out.append(Violation("E-REWARD", f"reward of {v!r} must be nonnegative, got {reward}"))
    # Payoffs sum rewards; an overflowing total would make them inf and
    # profits inf - inf = NaN.
    if not math.isfinite(total):
        out.append(Violation("E-REWARD", f"rewards must have a finite total, got {total}"))
    seen: set[str] = set()
    for e in system.edges:
        if not _ID_PATTERN.fullmatch(e.id):
            out.append(Violation("E-ID", f"edge id {e.id!r} is not a plain token"))
        if e.id in seen:
            out.append(Violation("E-EDGE-ID", f"duplicate edge id {e.id!r}"))
        seen.add(e.id)
        for ref in (e.src, e.dst):
            if ref not in system.vertices:
                out.append(
                    Violation("E-ENDPOINT", f"edge {e.id!r} references undeclared vertex {ref!r}")
                )
        # Pricing divides by the surface, and a subnormal one (1e-310)
        # would give inf * 0 = NaN costs: the reciprocal must be finite.
        if not (math.isfinite(e.surface) and e.surface > 0 and math.isfinite(1.0 / e.surface)):
            out.append(
                Violation("E-SURFACE", f"edge {e.id!r} must have positive surface with finite 1/surface, got {e.surface}")
            )
    return out


def ensure_valid_system(system: System) -> None:
    """Raise ``ValidationError`` if the system violates any invariant."""
    violations = validate_system(system)
    if violations:
        raise ValidationError(violations)


def validate_attack(system: System, attack: Attack) -> None:
    """Raise ``InvalidAttackError`` unless ``attack`` is a valid path.

    A valid attack starts at the start vertex, is connected, and uses no
    edge twice (vertices may repeat); the empty attack is valid.  The
    error names the first offending edge.
    """
    used: set[str] = set()
    position = system.start
    for index, edge_id in enumerate(attack.path):
        if not system.has_edge(edge_id):
            raise InvalidAttackError(f"attack step {index}: unknown edge {edge_id!r}")
        if edge_id in used:
            raise InvalidAttackError(f"attack step {index}: edge {edge_id!r} used twice")
        used.add(edge_id)
        e = system.edge(edge_id)
        if e.src != position:
            raise InvalidAttackError(
                f"attack step {index}: edge {edge_id!r} starts at {e.src!r}, "
                f"expected {position!r}"
            )
        position = e.dst


def attack_vertices(system: System, attack: Attack) -> tuple[str, ...]:
    """Distinct vertices visited, in first-visit order, start included."""
    seen = {system.start}
    ordered = [system.start]
    for edge_id in attack.path:
        dst = system.edge(edge_id).dst
        if dst not in seen:
            seen.add(dst)
            ordered.append(dst)
    return tuple(ordered)


# ---------------------------------------------------------------------------
# functionals


def payoff(system: System, attack: Attack) -> float:
    """Total reward over distinct visited vertices.

    Vertices revisited by a non-simple walk are counted once; the empty
    attack pays nothing.  Summation runs in first-visit order so results
    are reproducible across processes.
    """
    validate_attack(system, attack)
    return ordered_sum(system.reward(v) for v in attack_vertices(system, attack))


def cost(system: System, attack: Attack, allocation: DefenseAllocation) -> float:
    """Sum of allocated defense divided by surface along the path."""
    validate_attack(system, attack)
    return steps_cost(allocation.alloc, [(e, system.surface(e)) for e in attack.path])


def steps_cost(amounts: PackedAmounts, steps: Iterable[tuple[str, float]]) -> float:
    """Price of a path given as ``(edge id, surface)`` steps: amount over
    surface per step, added left to right from 0.0 as ``ordered_sum``
    does.  An edge without an amount adds nothing: a sum started at
    +0.0 is never -0.0, so adding 0.0 would leave its bits unchanged."""
    position = amounts.index.get
    values = amounts.amounts
    acc = 0.0
    for eid, surface in steps:
        j = position(eid)
        if j is not None:
            acc += values[j] / surface
    return acc


def ordered_sum(values: Iterable[float]) -> float:
    """Float sum strictly left to right from 0.0.  ``sum`` compensates
    rounding from Python 3.12 on, so every float sum in the package uses
    this instead, and traces are the same bits on every Python."""
    acc = 0.0
    for x in values:
        acc += x
    return acc


def profit(system: System, attack: Attack, allocation: DefenseAllocation) -> float:
    return payoff(system, attack) - cost(system, attack, allocation)


def roa(system: System, attack: Attack, allocation: DefenseAllocation) -> float:
    """Return on attack: payoff over cost, with extended-real conventions."""
    if not attack.path:
        raise ValueError("return on attack is not defined for the empty attack")
    p = payoff(system, attack)
    c = cost(system, attack, allocation)
    return _ratio(p, c)


def cumulative_roa(payoffs: Sequence[float], costs: Sequence[float]) -> float:
    """Ratio of summed payoffs to summed costs, same conventions as ``roa``."""
    if len(payoffs) != len(costs):
        raise ValueError(f"length mismatch: {len(payoffs)} payoffs, {len(costs)} costs")
    if not payoffs:
        raise ValueError("cumulative return on attack needs at least one round")
    for value in payoffs:
        if value < 0:
            raise ValueError(f"negative payoff {value}")
    for value in costs:
        if value < 0:
            raise ValueError(f"negative cost {value}")
    return _ratio(ordered_sum(payoffs), ordered_sum(costs))


def _ratio(p: float, c: float) -> float:
    if c > 0:
        return p / c
    if p > 0:
        return math.inf
    return ROA_UNDEFINED


def restrict_edges(system: System, edge_ids: Iterable[str]) -> System:
    """Induced subsystem keeping only the named edges (vertices unchanged)."""
    keep = set(edge_ids)
    unknown = keep - set(system.edge_ids)
    if unknown:
        raise KeyError(f"unknown edges {sorted(unknown)!r}")
    return System(
        vertices=system.vertices,
        edges=tuple(e for e in system.edges if e.id in keep),
        rewards=dict(system.rewards),
        start=system.start,
        budget=system.budget,
    )
