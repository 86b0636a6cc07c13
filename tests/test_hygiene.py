"""Source hygiene: no module imports a name it never uses; no package
module calls the builtin ``sum`` or reaches BLAS or LAPACK; numpy and
PyYAML load only where arrays or YAML are used, no package module imports
``dataclasses`` or ``statistics``, no per-round function runs an
import statement, only ``model.Immutable`` guards its attributes or
defines how it pickles, and no package module reads an attribute named
``path``: an attack is its own tuple of edge ids."""

from __future__ import annotations

import ast
from collections.abc import Iterable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _exported(tree: ast.Module) -> set[str]:
    """String entries of a module-level ``__all__`` list or tuple."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
    return names


def unused_imports(source: str, filename: str = "<source>") -> list[tuple[int, str]]:
    """(line, name) for every imported name the module never references.

    ``import a.b`` binds ``a``; ``__future__`` and star imports are skipped;
    names listed in ``__all__`` count as used.
    """
    tree = ast.parse(source, filename)
    bound: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [(line, name) for line, name in bound if name not in used]


def test_unused_import_scan_on_known_cases():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import inf, pi\n"
        "from typing import Any\n"
        "__all__ = ['pi']\n"
        "def f(x: Any) -> float:\n"
        "    return os.path.sep, inf\n"
    )
    assert unused_imports(source) == [(3, "js")]


def test_no_unused_imports_in_src_or_tests():
    found = []
    for folder in ("src", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for line, name in unused_imports(path.read_text(encoding="utf-8"), str(path)):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def builtin_sum_calls(source: str, filename: str = "<source>") -> list[int]:
    """Lines that call ``sum`` by its bare name."""
    tree = ast.parse(source, filename)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]


def test_builtin_sum_scan_on_known_cases():
    source = "total = sum(xs)\nvalue = np.sum(xs) + xs.sum() + ordered_sum(xs)\nn = sum(\n  ys)\n"
    assert builtin_sum_calls(source) == [1, 3]


def test_no_builtin_sum_in_src():
    # From Python 3.12 on, sum() of floats compensates rounding, so every
    # float sum in the package goes through model.ordered_sum instead.
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line in builtin_sum_calls(path.read_text(encoding="utf-8"), str(path)):
            found.append(f"{path.relative_to(ROOT)}:{line}")
    assert not found, "calls to the builtin sum:\n" + "\n".join(found)


BLAS_NAMES = {"linalg", "dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


def blas_uses(source: str, filename: str = "<source>") -> list[tuple[int, str]]:
    """(line, name) for every ``@`` and every attribute or numpy import
    named in ``BLAS_NAMES``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {*node.module.split("."), *(alias.name for alias in node.names)}
            found.extend((node.lineno, name) for name in sorted(names & BLAS_NAMES))
    return sorted(found)


def test_blas_scan_on_known_cases():
    source = (
        "y = a @ b\n"
        "z = np.linalg.solve(a, b) + a.dot(b)\n"
        "w = np.outer(a, b) * c + np.add.reduce(a) + inner\n"
        "x @= m\n"
        "from numpy.linalg import solve\n"
        "from numpy import einsum, exp2\n"
    )
    assert blas_uses(source) == [
        (1, "@"), (2, "dot"), (2, "linalg"), (4, "@"), (5, "linalg"), (6, "einsum")
    ]


def test_no_blas_or_lapack_in_src():
    # Matrix products and solves go through BLAS and LAPACK, whose kernels
    # round differently from machine to machine; the package's outputs
    # must have the same bits everywhere.
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line, name in blas_uses(path.read_text(encoding="utf-8"), str(path)):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "BLAS or LAPACK uses:\n" + "\n".join(found)


# Imported at package import time only by paths.py (numpy), and never (PyYAML).
HEAVY_MODULES = ("numpy", "yaml")

# Imported by no package module, not even inside a function: each costs
# more to load than the package's own modules (``dataclasses`` brings
# ``inspect``, ``ast``, ``dis`` and ``tokenize``).
UNUSED_STDLIB = ("dataclasses", "statistics")

# Functions that run every round of a game or of the lower-bound loop.
PER_ROUND_FUNCTIONS = {
    "paths.py": (
        "PathSet.allocation_vector",
        "PathSet.costs",
        "select_best_response",
        "_first_best",
        "_maximizers",
    ),
    "attackers.py": ("BestResponseAttacker.attack", "RandomPathAttacker.attack"),
    "defenders.py": ("HedgeLearner.shares", "HedgeLearner._add", "reactive_hidden_step"),
    "engine.py": ("run_game",),
    "model.py": ("steps_cost",),
}


def _imported(node: ast.AST) -> list[str]:
    """Top-level modules that ``node`` imports, if it is an absolute
    import statement."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module.split(".")[0]]
    return []


def heavy_imports(source: str, filename: str = "<source>") -> list[tuple[int, str]]:
    """(line, module) for every import of a ``HEAVY_MODULES`` module that
    runs when the module itself is imported: outside every function body
    and every ``if TYPE_CHECKING:`` branch."""
    found = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        found.extend((node.lineno, name) for name in _imported(node) if name in HEAVY_MODULES)
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            children = node.orelse
        else:
            children = list(ast.iter_child_nodes(node))
        for child in children:
            visit(child)

    visit(ast.parse(source, filename))
    return sorted(found)


def module_imports(
    source: str, modules: Iterable[str], filename: str = "<source>"
) -> list[tuple[int, str]]:
    """(line, module) for every import of one of ``modules``, wherever it
    runs: at module level, in a function or under ``TYPE_CHECKING``."""
    return sorted(
        (node.lineno, name)
        for node in ast.walk(ast.parse(source, filename))
        for name in _imported(node)
        if name in modules
    )


def imports_in(
    source: str, qualnames: Iterable[str], filename: str = "<source>"
) -> list[tuple[int, str]]:
    """(line, name) for every import statement inside the module-level
    functions and methods named ``function`` or ``Class.method``; a name
    with no definition is reported at line 0."""
    defs = {}
    for node in ast.parse(source, filename).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[f"{node.name}.{item.name}"] = item
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[node.name] = node
    found = []
    for name in qualnames:
        if name not in defs:
            found.append((0, name))
            continue
        found.extend(
            (inner.lineno, name)
            for inner in ast.walk(defs[name])
            if isinstance(inner, (ast.Import, ast.ImportFrom))
        )
    return sorted(found)


def test_import_scans_on_known_cases():
    source = (
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "import os, yaml.constructor\n"
        "from numpy.linalg import solve\n"
        "from .paths import PathSet\n"
        "if TYPE_CHECKING:\n"
        "    import numpy\n"
        "else:\n"
        "    import yaml\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    pass\n"
        "def f():\n"
        "    import numpy\n"
        "    return numpy\n"
        "class C:\n"
        "    import yaml\n"
        "    def step(self):\n"
        "        from . import paths\n"
        "        return [np.sum for _ in paths]\n"
        "    def start(self):\n"
        "        import numpy\n"
    )
    assert heavy_imports(source) == [
        (1, "numpy"), (3, "yaml"), (4, "numpy"), (9, "yaml"), (11, "numpy"), (18, "yaml")
    ]
    assert imports_in(source, ["C.step", "f", "C.gone", "start"]) == [
        (0, "C.gone"), (0, "start"), (15, "f"), (20, "C.step")
    ]
    assert module_imports(source, ["numpy", "os"]) == [
        (1, "numpy"), (3, "os"), (4, "numpy"), (7, "numpy"), (11, "numpy"), (15, "numpy"), (23, "numpy")
    ]


def test_numpy_and_yaml_load_only_where_used():
    # `import reactive_defense.cli` must load neither: the learning
    # defender, replays, min-cut and the lower-bound experiment use no
    # arrays, and only file commands read or write YAML.  The per-round
    # functions reach numpy through module globals, never by importing.
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        where = path.relative_to(ROOT)
        for line, module in heavy_imports(source, str(path)):
            if (path.name, module) != ("paths.py", "numpy"):
                found.append(f"{where}:{line}: module-level import of {module}")
        for line, name in imports_in(source, PER_ROUND_FUNCTIONS.get(path.name, ()), str(path)):
            problem = "no such function" if line == 0 else "import statement"
            found.append(f"{where}:{line}: {problem} in per-round {name}")
    assert not found, "\n".join(found)


def test_no_dataclasses_or_statistics_in_src():
    # Value types are named tuples or ``model.Immutable`` classes, and a
    # mean is ``math.fsum`` over the count.
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line, module in module_imports(path.read_text(encoding="utf-8"), UNUSED_STDLIB, str(path)):
            found.append(f"{path.relative_to(ROOT)}:{line}: import of {module}")
    assert not found, "\n".join(found)


# Methods through which a class refuses assignment or rebuilds itself on
# copy and pickle; ``model.Immutable`` is the one class that defines them.
GUARD_METHODS = ("__setattr__", "__delattr__", "__reduce__")


def guard_definitions(source: str, filename: str = "<source>") -> list[tuple[int, str]]:
    """(line, ``Class.method``) for every ``GUARD_METHODS`` method defined
    or assigned in a class body other than ``Immutable``'s."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ClassDef) or node.name == "Immutable":
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            found.extend((item.lineno, f"{node.name}.{name}") for name in names if name in GUARD_METHODS)
    return sorted(found)


def test_guard_scan_on_known_cases():
    source = (
        "class Immutable:\n"
        "    def __setattr__(self, name, value): ...\n"
        "    def __reduce__(self): ...\n"
        "class Packed(Mapping, Immutable):\n"
        "    def __setattr__(self, name, value): ...\n"
        "    def __getattr__(self, name): ...\n"
        "    __delattr__ = Immutable.__setattr__\n"
        "def f():\n"
        "    class Local:\n"
        "        def __reduce__(self): ...\n"
        "    def __setattr__(self, name, value): ...\n"
    )
    assert guard_definitions(source) == [
        (5, "Packed.__setattr__"), (7, "Packed.__delattr__"), (10, "Local.__reduce__")
    ]


def test_immutable_is_the_one_guard_base_in_src():
    # One class refuses assignment and pickles through its constructor,
    # so a value class gets those rules by subclassing it, not by copy.
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line, name in guard_definitions(path.read_text(encoding="utf-8"), str(path)):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "guard methods outside model.Immutable:\n" + "\n".join(found)


def path_reads(source: str, filename: str = "<source>") -> list[int]:
    """Lines that read an attribute named ``path``.  A definition named
    ``path``, such as ``model.Attack``'s property, is not a read, and
    neither is a plain name or an assignment to the attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Attribute) and node.attr == "path" and isinstance(node.ctx, ast.Load)
    )


def test_path_read_scan_on_known_cases():
    source = (
        "class Attack(tuple):\n"
        "    @property\n"
        "    def path(self):\n"
        "        return self\n"
        "def f(attack, path, record):\n"
        "    steps = attack.path\n"
        "    path.append(1)\n"
        "    record.attacks[0].path.count('e')\n"
        "    record.path = path\n"
        "    return os.path.sep\n"
    )
    assert path_reads(source) == [6, 8, 10]


def test_no_path_reads_in_src():
    # ``model.Attack`` keeps a ``path`` property that returns the attack
    # itself, for callers outside the package; the package reads the
    # attack directly.
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line in path_reads(path.read_text(encoding="utf-8"), str(path)):
            found.append(f"{path.relative_to(ROOT)}:{line}: reads .path")
    assert not found, "\n".join(found)
