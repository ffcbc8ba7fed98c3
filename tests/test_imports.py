"""Every name a module of the package imports is used in that module.

A static check on the syntax tree, in place of a linter: an imported
name counts as used when it is read anywhere in the module, or when the
module lists it in ``__all__`` (the package re-exports its API that way).
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src", "propsemiring")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names bound by the module's import statements, with the line
    of each (``from __future__`` imports bind no name)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    return {element.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for element in node.value.elts}


def unused_imports(source: str) -> list[str]:
    """``name (line k)`` for every imported name the source never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in _imported(tree).items()
            if name not in read | _exported(tree)]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as handle:
        assert unused_imports(handle.read()) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from json import dumps, loads as load\n"
              "from typing import Callable\n"
              "__all__ = ['dumps']\n"
              "def f(x: Callable) -> str:\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["load (line 3)"]
