"""Every name a module of the package imports is used in that module, and
every name it defines at module level is used somewhere in the repository.

There is no linter in the toolchain, so these are the unused-import and
dead-name checks.  ``__init__`` is exempt from the first: its imports are
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fricke7"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where a module-level name may be used; perfbench wraps program names by string
USERS = sorted(p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    src = "from typing import List, Tuple\nimport os.path\n\nx: List[int] = []\n"
    assert unused_imports(src) == [(1, "Tuple"), (2, "os")]


def defined_names(source: str):
    """Module-level functions, classes and assigned names, with their lines."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node.lineno
    return out


def loaded_names(source: str):
    """Every name a source loads: by name, as an attribute, in an import, or
    as a string literal."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def dead_names(source: str, loaded):
    """Names `source` defines at module level that `loaded` lacks; dunders are exempt."""
    return sorted(
        (line, name)
        for name, line in defined_names(source).items()
        if name not in loaded and not (name.startswith("__") and name.endswith("__"))
    )


def test_no_dead_module_names():
    loaded = set().union(*(loaded_names(p.read_text()) for p in USERS))
    dead = {p.name: dead_names(p.read_text(), loaded) for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in dead.items() if v} == {}


def test_the_check_sees_a_dead_name():
    src = (
        "__version__ = '1'\n"
        "A, (B, C) = 1, (2, 3)\n"
        "D: int = 4\n"
        "def f():\n"
        "    return A\n"
        "class K:\n"
        "    pass\n"
        "def g():\n"
        "    pass\n"
    )
    user = "import m.K\nfrom m import D\nm.f()\nwrap(m, 'B')\n"
    assert dead_names(src, loaded_names(src) | loaded_names(user)) == [(2, "C"), (8, "g")]
