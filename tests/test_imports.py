"""Every name a module of the package imports is used in that module,
and every private name the package defines is used in the package.

Static checks on the syntax tree, in place of a linter: an imported
name counts as used when it is read anywhere in the module, or when the
module lists it in ``__all__`` (the package re-exports its API that way).
A private (``_name``) function, class, method or module constant counts
as used when some module of the package names it outside its own
definition, so a helper that a refactor leaves behind fails the check.
In the same way every top-level function of the tests' ``helpers.py``
must be named by a test module, by ``golden/regenerate.py`` or by
another helper, so an oracle whose tests are gone fails the check too.
No two private module-level functions of the package have the same body,
compared as syntax trees without the docstring and with each argument
named by its position, so a helper is written once and imported.
``from propsemiring import *`` binds every name of ``__all__``, so a
name the package no longer defines cannot stay exported: plain
``import propsemiring`` would not notice it.
"""

import ast
import os
import sys
import types

import pytest

import propsemiring

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(TESTS, os.pardir, "src", "propsemiring")
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


def _sources(directory: str = PACKAGE, modules=MODULES) -> dict[str, str]:
    sources = {}
    for module in modules:
        with open(os.path.join(directory, module), encoding="utf-8") as handle:
            sources[module] = handle.read()
    return sources


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module):
    """(name, node) for each private function, class, method and module
    constant of the module, ``node`` being its definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if (isinstance(item, (ast.FunctionDef, ast.ClassDef))
                        and _private(item.name)):
                    yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _private(target.id):
                    yield target.id, node


def _references(tree: ast.Module):
    """(name, node) for each name the module reads, as a variable, an
    attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node


def _unreferenced(sources: dict[str, str], definitions) -> list[str]:
    """``module: name (line k)`` for every (name, node) that
    ``definitions(module, tree)`` yields and that no module of
    ``sources`` names outside the definition ``node`` itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = {}  # name: the nodes that name it
    for tree in trees.values():
        for name, node in _references(tree):
            references.setdefault(name, []).append(node)
    unused = []
    for module, tree in trees.items():
        for name, definition in definitions(module, tree):
            inside = set(map(id, ast.walk(definition)))
            if all(id(node) in inside for node in references.get(name, ())):
                unused.append(f"{module}: {name} (line {definition.lineno})")
    return unused


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name (line k)`` for every private definition that no
    module of ``sources`` names outside the definition itself."""
    return _unreferenced(sources, lambda module, tree: _private_definitions(
        tree))


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """``helpers.py: name (line k)`` for every top-level function of
    ``helpers.py`` that no module of ``sources`` names outside the
    function itself."""
    return _unreferenced(sources, lambda module, tree: (
        (node.name, node) for node in tree.body
        if module == "helpers.py" and isinstance(node, ast.FunctionDef)))


def test_every_private_name_is_used():
    assert unreferenced_private_names(_sources()) == []


def test_every_helper_is_used():
    modules = sorted(name for name in os.listdir(TESTS) if name.endswith(".py"))
    assert unreferenced_helpers(_sources(TESTS, modules + [
        os.path.join("golden", "regenerate.py")])) == []


def test_the_check_finds_an_unreferenced_helper():
    sources = {
        "helpers.py": ("def zmod(n):\n"
                       "    return list(range(n))\n"
                       "def oracle(n):\n"
                       "    return oracle(n - 1) if n else zmod(0)\n"
                       "def scan(n):\n"
                       "    return n\n"
                       "def used(n):\n"
                       "    return n\n"),
        "test_a.py": ("from helpers import used\n"
                      "def test_used():\n"
                      "    assert used(1)\n"),
        "regenerate.py": ("import helpers\n"
                          "print(helpers.scan(2))\n"),
    }
    assert unreferenced_helpers(sources) == ["helpers.py: oracle (line 3)"]


def test_the_check_finds_an_unreferenced_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n"
                 "_UNUSED: int = 4\n"
                 "def _helper(n):\n"
                 "    return _helper(n - 1) if n else _LIMIT\n"
                 "class _Kept:\n"
                 "    def _used(self):\n"
                 "        return self._orphan\n"
                 "    def _orphan(self):\n"
                 "        return self._orphan()\n"
                 "    def __repr__(self):\n"
                 "        return ''\n"),
        "b.py": ("from a import _Kept\n"
                 "def f(x):\n"
                 "    return x._used()\n"),
    }
    assert unreferenced_private_names(sources) == [
        "a.py: _UNUSED (line 2)", "a.py: _helper (line 3)"]


class _ByPosition(ast.NodeTransformer):
    """Renames each argument of a function to its position."""

    def __init__(self, arguments: ast.arguments):
        every = [*arguments.posonlyargs, *arguments.args, arguments.vararg,
                 *arguments.kwonlyargs, arguments.kwarg]
        self.positions = {a.arg: f"#{k}" for k, a in enumerate(every) if a}

    def visit_Name(self, node: ast.Name) -> ast.Name:
        node.id = self.positions.get(node.id, node.id)
        return node


def _body(function: ast.FunctionDef) -> str:
    body = function.body
    if ast.get_docstring(function) is not None:
        body = body[1:]
    rename = _ByPosition(function.args)
    return "\n".join(ast.dump(rename.visit(statement)) for statement in body)


def duplicated_helpers(sources: dict[str, str]) -> list[str]:
    """``module: name = module: name`` for each private module-level
    function whose body repeats that of an earlier one."""
    first, duplicates = {}, []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and _private(node.name):
                where = f"{module}: {node.name}"
                earlier = first.setdefault(_body(node), where)
                if earlier != where:
                    duplicates.append(f"{earlier} = {where}")
    return duplicates


def test_no_private_function_repeats_another():
    assert duplicated_helpers(_sources()) == []


def test_the_check_finds_a_duplicated_helper():
    sources = {
        "a.py": ("def _packed(row):\n"
                 "    \"\"\"A row as an int.\"\"\"\n"
                 "    return int.from_bytes(row, 'little')\n"
                 "def _shifted(x, *, by):\n"
                 "    return x << by\n"),
        "b.py": ("def _from_bytes(data: bytes) -> int:\n"
                 "    return int.from_bytes(data, \"little\")\n"
                 "def _step(x, *, by):\n"
                 "    return by << x\n"
                 "def _free(y, *, by):\n"
                 "    return x << by\n"),
    }
    assert duplicated_helpers(sources) == ["a.py: _packed = b.py: _from_bytes"]


def star_import(module: str) -> dict:
    """The names ``from <module> import *`` binds."""
    namespace = {}
    exec(f"from {module} import *", namespace)
    namespace.pop("__builtins__")
    return namespace


def test_star_import_binds_every_exported_name():
    assert sorted(star_import("propsemiring")) == sorted(propsemiring.__all__)


def test_the_check_finds_an_exported_name_that_is_gone(monkeypatch):
    module = types.ModuleType("stale")
    module.kept, module.__all__ = 1, ["kept", "gone"]
    monkeypatch.setitem(sys.modules, "stale", module)
    with pytest.raises(AttributeError, match="gone"):
        star_import("stale")
