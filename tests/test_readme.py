"""The README's library example runs, and the package root exports exactly
the names it imports."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import reactive_defense

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_runs_on_the_root_exports(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    exec(compile(example, str(README), "exec"), {})
    measured, _, bound, satisfied = capsys.readouterr().out.split()
    assert float(measured) <= float(bound)
    assert satisfied == "True"

    imported = [
        alias.name
        for node in ast.walk(ast.parse(example))
        if isinstance(node, ast.ImportFrom) and node.module == "reactive_defense"
        for alias in node.names
    ]
    assert sorted(reactive_defense.__all__) == sorted([*imported, "__version__"])
