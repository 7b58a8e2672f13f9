"""Every name a module of the package imports is used in that module; every
name it defines at module level, and every method of a module-level class, is
used somewhere in the repository; every public function, class and method
is used by the program itself, its scripts or the benchmark, not by the tests
alone; and no module but `constants` spells the f_7 pieces, R_7's quadratic
factor or the h-product table, and none spells n, m or g(x, 0), which
`constants` computes.

There is no linter in the toolchain, so these are the unused-import,
dead-name and test-only-name checks.  ``__init__`` is exempt from the first:
its imports are re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fricke7 import constants as C

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fricke7"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where a module-level name may be used; perfbench wraps program names by string
USERS = sorted(p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))
# where a public name must be used for the program to need it
PROGRAM_USERS = [p for p in USERS if p.relative_to(ROOT).parts[0] != "tests"]
# public names that only tests load, by module, each with the reason it stays
TEST_ONLY_EXCEPTIONS: dict = {}


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
    """Module-level functions, classes and assigned names, and the methods of
    module-level classes (as class.method), with their lines."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out[f"{node.name}.{item.name}"] = item.lineno
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
    """Names `source` defines at module level, and methods, that `loaded`
    lacks (a method by its own name); dunders are exempt."""
    out = []
    for name, line in defined_names(source).items():
        own = name.rpartition(".")[2]
        if own not in loaded and not (own.startswith("__") and own.endswith("__")):
            out.append((line, name))
    return sorted(out)


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
        "    def __len__(self):\n"
        "        return 0\n"
        "    def used(self):\n"
        "        pass\n"
        "    def _unused(self):\n"
        "        pass\n"
        "def g():\n"
        "    pass\n"
    )
    user = "import m.K\nfrom m import D\nm.f()\nwrap(m, 'B')\nm.K().used()\n"
    assert dead_names(src, loaded_names(src) | loaded_names(user)) == [(2, "C"), (11, "K._unused"), (13, "g")]


def only_tested_names(source: str, loaded):
    """The dead names of `source` under `loaded` that are public functions,
    classes or methods; assigned names are left to the dead-name check."""
    defs = {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    return [(line, name) for line, name in dead_names(source, loaded)
            if name.partition(".")[0] in defs and not name.rpartition(".")[2].startswith("_")]


def test_no_public_name_only_tests_load():
    loaded = set().union(*(loaded_names(p.read_text()) for p in PROGRAM_USERS))
    found = {p.name: only_tested_names(p.read_text(), loaded) for p in sorted(PACKAGE.glob("*.py"))}
    found = {k: {name for _, name in v} for k, v in found.items() if v}
    assert found == {k: set(v) for k, v in TEST_ONLY_EXCEPTIONS.items()}


def test_the_check_sees_a_test_only_name():
    src = (
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    pass\n"
        "def only_tested():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def run(self):\n"
        "        pass\n"
        "    def only_tested_method(self):\n"
        "        pass\n"
        "    def named(self):\n"
        "        pass\n"
        "LIMIT = 3\n"
    )
    program = "import m\nm.used()\nm.K().run()\ngetattr(m.K(), 'named')\n"
    test = "m.only_tested()\nm.K().only_tested_method()\nm._private()\nassert m.LIMIT\n"
    assert only_tested_names(src, loaded_names(src) | loaded_names(program)) == [
        (5, "only_tested"), (14, "K.only_tested_method")]
    assert only_tested_names(src, loaded_names(src) | loaded_names(program) | loaded_names(test)) == []


# the facts only constants.py spells, each as its literal reads when normalised
FACTS = {
    (1, -1, 1): "X2X1",
    (1, 5, -8, 1): "P_CUBIC",
    (448, 224, 1): "QUAD_CORR",
    tuple(sorted(C.H_EXPONENTS)): "H_EXPONENTS",
    # computed in constants, so no module spells them
    (1, -3, 6, -7, 6, -3, 1): "F7_N",
    (0, -1, -4, 13, -9, 1): "F7_M",
    (1, -3, 0, 1): "g(x, 0)",
}
COMPUTED = {"F7_N", "F7_M", "g(x, 0)"}


def _normalised(value):
    """A literal sequence as a tuple, a dict or a sequence of pairs as the
    sorted tuple of its pairs (so a table matches in any order or shape)."""
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (tuple, list)) and value and all(isinstance(v, (tuple, list)) for v in value):
        return tuple(sorted(tuple(v) for v in value))
    return tuple(value) if isinstance(value, (tuple, list)) else None


def retyped_facts(source: str):
    """The tuple, list and dict literals of `source` that spell a fact of
    `FACTS`, with their lines."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Tuple, ast.List, ast.Dict)):
            try:
                key = _normalised(ast.literal_eval(node))
            except (ValueError, TypeError, SyntaxError):
                continue
            if key in FACTS:
                out.append((node.lineno, FACTS[key]))
    return sorted(out)


def test_only_constants_spells_the_f7_pieces_and_h_exponents():
    found = {p.name: retyped_facts(p.read_text()) for p in MODULES if p.name != "constants.py"}
    assert {k: v for k, v in found.items() if v} == {}
    spelled = [name for _, name in retyped_facts((PACKAGE / "constants.py").read_text())]
    assert sorted(spelled) == sorted(set(FACTS.values()) - COMPUTED)  # each once
    literal = {name: key for key, name in FACTS.items()}
    assert [literal["F7_N"], literal["F7_M"], literal["g(x, 0)"]] == [C.F7_N, C.F7_M, tuple(C.g_cubic(0))]


def test_the_check_sees_a_retyped_fact():
    src = (
        "A = (1, 5, -8, 1)\n"
        "B = [1, -1, 1]\n"
        "H = {3: 1, 4: 1, 2: 2, 5: 2, 1: -3, 6: -3}\n"
        "K = [(1, -3), (6, -3), (3, 1), (4, 1), (2, 2), (5, 2)]\n"
        "OK = (0, 1), (1, -1), [(3, 1), (4, 1), (1, -1), (6, -1)]\n"
        "f(g((1, -1, 1)), x)\n"
    )
    assert retyped_facts(src) == [(1, "P_CUBIC"), (2, "X2X1"), (3, "H_EXPONENTS"), (4, "H_EXPONENTS"), (6, "X2X1")]


def test_cli_and_sweep_leave_multiprocessing_unloaded():
    """The sweeps fork their own workers: in a fresh interpreter, importing
    the CLI and the sweeps and running a two-worker sweep loads no
    `multiprocessing`, whose modules would add to the resident set of the
    parent and of every worker forked from it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import os, sys\n"
        "import fricke7.cli, fricke7.sweep\n"
        "loaded = [m for m in sys.modules if m.partition('.')[0] == 'multiprocessing']\n"
        "fricke7.cli.main(['hasse', '--primes', '11,13', '--jobs', '2', '--out', os.devnull])\n"
        "loaded += [m for m in sys.modules if m.partition('.')[0] == 'multiprocessing']\n"
        "print(sorted(set(loaded)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweeps_leave_hashlib_and_mpmath_unloaded():
    """A sweep process loads neither OpenSSL nor mpmath: in a fresh
    interpreter that imports every module (as perfbench's child process
    does), a serial `hasse` at l = 29 (l = 1 mod 7, where the equal-degree
    split seeds its PRNG) and a `nakaya` at p = 281, 283 (p <= 300, where the
    ss^(7*) oracle seeds it too) leave `hashlib`, `_hashlib` and `mpmath`
    unloaded; `cm` then loads mpmath and passes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    names = [p.stem for p in MODULES]
    code = (
        "import importlib, os, sys\n"
        f"for m in {names!r}:\n"
        "    importlib.import_module('fricke7.' + m)\n"
        "from fricke7 import cli, ffpoly\n"
        "seeds = []\n"
        "real = ffpoly._seed_rng\n"
        "ffpoly._seed_rng = lambda f: seeds.append(f) or real(f)\n"
        "heavy = lambda: sorted(m for m in ('hashlib', '_hashlib', 'mpmath') if m in sys.modules)\n"
        "loaded = heavy()\n"
        "codes = [cli.main(['hasse', '--primes', '29', '--out', os.devnull]),\n"
        "         cli.main(['nakaya', '--primes', '281,283', '--check-oracle', '--out', os.devnull])]\n"
        "print(loaded, heavy(), codes, len(seeds) > 0)\n"
        "print(cli.main(['cm', '--out', os.devnull]), 'mpmath' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "cmeval" in names and "sweep" in names and "cli" in names
    assert proc.stdout.splitlines() == ["[] [] [0, 0] True", "0 True"]
