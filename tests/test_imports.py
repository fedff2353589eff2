"""Every module under src/equilib uses each name it imports.

The repository has no linter; this scan stands in for its unused-import
rule.  A name counts as used when it appears as a name anywhere in the
module, annotations included.
"""

import ast
import pathlib

import pytest

import equilib

MODULES = sorted(pathlib.Path(equilib.__file__).parent.glob("*.py"))


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
