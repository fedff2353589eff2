"""Static checks over the source of src/equilib, on the stdlib ``ast`` module.

The repository has no linter; these scans stand in for its unused-import,
no-``assert`` and dead-code rules.

- A module uses every name it imports.  A name counts as used when it
  appears as a name anywhere in the module, annotations included.
- No module has an ``assert`` statement: the program's checks must still
  run under ``python -O``.
- No function imports ``from .m`` when its module already imports from
  ``.m`` at top level; an import under ``if TYPE_CHECKING:`` is not top
  level, so a lazy import of a module named there stays legal.
- Every top-level function and class, and every method, is reached from a
  root.  The roots are ``cli.main`` (the console script), the module-level
  statements of every module (they run at import), and every name that
  ``tests/test_acceptance.py`` or ``perfbench/*.py`` uses.  A reached body
  reaches the definitions its names resolve to, in its own module or
  through its module's relative imports.  A method is reached when its
  class is and some reached body uses the method's name as an attribute;
  dunder methods are reached with their class.  ``ALLOWLIST`` holds the
  entry points of the general construction, which no root reaches yet;
  an entry that a root reaches, or that no longer exists, fails the check.
"""

import ast
import pathlib

import pytest

import equilib

PACKAGE = pathlib.Path(equilib.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]
ROOT_FILES = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]

ALLOWLIST = {
    "perturb.hat_perturbation",
    "equivalence.build_hat_game",
    "equivalence.hat_marginal",
    "equivalence.check_equivalence",
    "perturb.oplus",
    "perturb.zero_bonus",
    "geometry.hyperplane_extension_subdivision",
    "geometry.generalized_barycentric_subdivision",
    "geometry.triangulate_without_new_vertices",
    "geometry.affine_below_except_marked",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def assert_statements(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    assert assert_statements(path.read_text()) == []


def test_scan_finds_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
    assert assert_statements(source) == [3]


def local_reimports(source: str) -> list[str]:
    """Imports ``from .m`` inside a function whose module imports from ``.m`` at top level."""
    tree = ast.parse(source)
    top = {
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }
    found = {
        node
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in top
    }
    return [f"line {node.lineno}: from .{node.module}" for node in sorted(found, key=lambda n: n.lineno)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_function_imports_no_module_imported_at_top_level(path):
    assert local_reimports(path.read_text()) == []


def test_scan_finds_a_local_reimport():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from .a import x\n"
        "if TYPE_CHECKING:\n    from .b import y\n\n\n"
        "def f():\n    from .b import w\n    from .c import v\n    return x, y, w, v\n\n\n"
        "class K:\n    def g(self):\n        def h():\n            from .a import z\n"
        "            return z\n        return h\n"
    )
    assert local_reimports(source) == ["line 16: from .a"]


def names_used(node: ast.AST) -> tuple[set[str], set[str]]:
    """The names and the attribute names that appear in ``node``."""
    names, attrs = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
    return names, attrs


def own_parts(node: ast.AST) -> list[ast.AST]:
    """What runs when ``node`` is reached: a class's body without its methods."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return node.bases + node.keywords + node.decorator_list + [
        stmt for stmt in node.body if not isinstance(stmt, DEFINITIONS)
    ]


def root_names(sources: list[str]) -> set[str]:
    """Every name, attribute name and imported name in the root files."""
    out = set()
    for source in sources:
        tree = ast.parse(source)
        names, attrs = names_used(tree)
        out |= names | attrs
        out |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    return out


def unreached(modules: dict[str, str], roots: set[str], allowlist: set[str]) -> list[str]:
    """Definitions of ``modules`` (name -> source) that no root reaches,
    and stale ``allowlist`` entries ("module.name")."""
    defs = {}  # "module.name" or "module.Class.method" -> (module, node)
    imports = {}  # (module, local name) -> "module.name"
    for mod, source in modules.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imports[(mod, alias.asname or alias.name)] = f"{node.module}.{alias.name}"
        defs[mod] = (mod, ast.Module([s for s in tree.body if not isinstance(s, DEFINITIONS)], []))
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                defs[f"{mod}.{node.name}"] = (mod, node)
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, DEFINITIONS):
                            defs[f"{mod}.{node.name}.{item.name}"] = (mod, item)
    top = {q for q in defs if q.count(".") == 1}

    def reach(start: set[str]) -> set[str]:
        reached, attrs, todo = set(), set(roots), set(start)
        while todo:
            reached |= todo
            found = set()
            for q in todo:
                mod, node = defs[q]
                for part in own_parts(node):
                    names, more = names_used(part)
                    attrs |= more
                    for name in names:
                        found.add(f"{mod}.{name}" if f"{mod}.{name}" in top else imports.get((mod, name)))
            found |= {
                q
                for q in defs
                if q.count(".") == 2
                and q.rsplit(".", 1)[0] in reached
                and (q.rsplit(".", 1)[1] in attrs or q.endswith("__"))
            }
            todo = (found & defs.keys()) - reached
        return reached

    start = set(modules) | {"cli.main"} | {q for q in top if q.split(".")[1] in roots}
    live = reach(start)
    stale = [f"{q}: allowlisted but reached" for q in sorted(allowlist) if q in live]
    stale += [f"{q}: allowlisted but not defined" for q in sorted(allowlist) if q not in top]
    live = reach(start | (allowlist & top))
    dead = [q for q in defs if q not in live and q not in modules]
    return stale + [f"{defs[q][0]}.py line {defs[q][1].lineno}: {q}" for q in dead]


def test_every_definition_is_reached():
    modules = {path.stem: path.read_text() for path in MODULES}
    roots = root_names([path.read_text() for path in ROOT_FILES])
    assert unreached(modules, roots, ALLOWLIST) == []


SYNTHETIC = {
    "cli": "from .lib import used\n\n\ndef main():\n    return used().go()\n",
    "lib": (
        "LIMIT = 3\n\n\n"
        "def used():\n    return Thing()\n\n\n"
        "def dead():\n    return helper()\n\n\n"
        "def helper():\n    return LIMIT\n\n\n"
        "def entry():\n    return 2\n\n\n"
        "class Thing:\n"
        "    def __init__(self):\n        self.n = 0\n\n"
        "    def go(self):\n        return self\n\n"
        "    def stop(self):\n        return None\n"
    ),
}


def test_reach_check_flags_a_dead_function_and_what_only_it_calls():
    assert unreached(SYNTHETIC, set(), {"lib.entry"}) == [
        "lib.py line 8: lib.dead",
        "lib.py line 12: lib.helper",
        "lib.py line 27: lib.Thing.stop",
    ]


def test_reach_check_flags_stale_allowlist_entries():
    assert unreached(SYNTHETIC, {"dead", "helper", "stop"}, {"lib.entry", "lib.used", "lib.gone"}) == [
        "lib.used: allowlisted but reached",
        "lib.gone: allowlisted but not defined",
    ]


def test_reach_check_passes_what_roots_and_attributes_reach():
    # `go` is reached only as an attribute, `__init__` with its class, and
    # `dead`, `stop` and `entry` through the root files' names
    assert unreached(SYNTHETIC, root_names(["from equilib.lib import dead\nx.stop()\n"]), {"lib.entry"}) == []
    assert unreached(SYNTHETIC, {"dead", "stop", "entry"}, set()) == []
