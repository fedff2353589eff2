"""Every module under src/equilib uses each name it imports, and every
top-level function or class it defines is referenced somewhere.

The repository has no linter; these scans stand in for its unused-import
and dead-code rules.  A name counts as used when it appears as a name
anywhere in the module, annotations included; a definition counts as
referenced when its name appears as a name or attribute in some file
under src/, tests/ or perfbench/ outside its own body.
"""

import ast
import collections
import functools
import pathlib

import pytest

import equilib

MODULES = sorted(pathlib.Path(equilib.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "from typing import Optional, Sequence\nimport os.path\n\nx: Sequence = []\n"
    assert unused_imports(source) == ["line 1: Optional", "line 2: os"]


def references(tree: ast.AST) -> collections.Counter:
    """How often each name appears in ``tree`` as a name or an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


@functools.cache
def file_references(path: pathlib.Path) -> collections.Counter:
    return references(ast.parse(path.read_text()))


def unreferenced_definitions(module: str, elsewhere: collections.Counter) -> list[str]:
    """Top-level functions and classes of ``module`` that neither the rest of
    ``module`` nor the references ``elsewhere`` name."""
    tree = ast.parse(module)
    seen = references(tree) + elsewhere
    return [
        f"line {node.lineno}: {node.name}"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and seen[node.name] == references(node)[node.name]
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_only_what_is_referenced(path):
    elsewhere = sum((file_references(p) for p in SCANNED if p.resolve() != path.resolve()),
                    collections.Counter())
    assert unreferenced_definitions(path.read_text(), elsewhere) == []


def test_scan_finds_an_unreferenced_definition():
    module = (
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class Unused:\n    pass\n"
    )
    elsewhere = references(ast.parse("import m\nm.used()\n"))
    assert unreferenced_definitions(module, elsewhere) == ["line 4: recursive", "line 7: Unused"]
