"""Static checks on the package source."""

import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "chiralg"


def self_calling_functions(tree: ast.AST) -> list:
    """Names of the module-level and nested functions that call themselves by
    their bare name.  Methods are skipped: a method that calls a module
    function of its own name (a method ``rank`` calling ``linalg.rank``)
    does not recurse."""
    found = []
    stack = [(tree, False)]
    while stack:
        node, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not in_class:
                if any(
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name)
                    and n.func.id == child.name
                    for n in ast.walk(child)
                ):
                    found.append(child.name)
            stack.append((child, isinstance(child, ast.ClassDef)))
    return found


def test_no_function_recurses():
    # a recursion depth that grows with the input turns a large spec into a
    # RecursionError, which the CLI can only report as an internal error
    found = {
        path.name: self_calling_functions(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: fns for name, fns in found.items() if fns} == {}


def test_recursion_check_sees_closures_and_skips_methods():
    tree = ast.parse(
        "def outer(n):\n"
        "    def rec(k):\n"
        "        return rec(k - 1) if k else 0\n"
        "    return rec(n)\n"
        "class Blocks:\n"
        "    def rank(self, key):\n"
        "        return rank(key)\n"
        "def fact(n):\n"
        "    return n * fact(n - 1) if n else 1\n"
    )
    assert sorted(self_calling_functions(tree)) == ["fact", "rec"]


def non_stdlib_imports(tree: ast.AST) -> list:
    """Top-level names of the absolute imports outside the standard library.
    Relative imports (``from .linalg import rank``) are the package's own."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return [name for name in names if name not in sys.stdlib_module_names]


def test_package_imports_only_stdlib():
    found = {
        path.name: non_stdlib_imports(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_stdlib_check_sees_absolute_imports_only():
    tree = ast.parse(
        "import numpy as np\n"
        "import os.path, sympy.core\n"
        "from heapq import heappush\n"
        "from math import gcd\n"
        "from . import fock\n"
        "from .linalg import rank\n"
        "from __future__ import annotations\n"
        "def f():\n"
        "    from scipy import sparse\n"
    )
    assert non_stdlib_imports(tree) == ["numpy", "sympy", "scipy"]


def oracle_names_used(tree: ast.AST) -> set:
    """Names a test module takes from ``mode_oracle``, by ``from mode_oracle
    import name`` or as ``mode_oracle.name``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mode_oracle":
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "mode_oracle"
        ):
            names.add(node.attr)
    return names


def test_every_reference_is_used_by_a_test():
    # a reference that no test compares against is dead code
    oracle = ast.parse((TESTS / "mode_oracle.py").read_text())
    public = {
        node.name
        for node in oracle.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    used = set()
    for path in TESTS.glob("test_*.py"):
        used |= oracle_names_used(ast.parse(path.read_text()))
    assert sorted(public - used) == []


def test_oracle_use_check_sees_both_import_forms():
    tree = ast.parse(
        "import mode_oracle\n"
        "from mode_oracle import apply_term, translate as tr\n"
        "from chiralg.oper import normal_order\n"
        "def test_x():\n"
        "    mode_oracle.apply_mode(1, 2, 3)\n"
        "    other.reference_basis\n"
    )
    assert oracle_names_used(tree) == {"apply_term", "translate", "apply_mode"}


# the routines ``mode_oracle`` is the reference for: an oracle that calls one
# of them agrees with it by construction
ORACLE_SUBJECTS = {
    "normal_product",
    "normal_order",
    "_koszul_sort",
    "_insert",
    "check_epsilon",
    "chi_closed_form",
    "_times_factor",
    "_over_factor",
}


def imported_names(tree: ast.AST) -> set:
    """Names a module takes from others: by ``from module import name``, or
    as an attribute, at any depth, of a name an import binds
    (``chiralg.oper.normal_order``, ``o._insert``)."""
    names, bound = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if isinstance(node, ast.ImportFrom):
                    names.add(alias.name)
                bound.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                names.add(node.attr)
    return names


def test_oracle_imports_none_of_its_subjects():
    oracle = ast.parse((TESTS / "mode_oracle.py").read_text())
    assert sorted(imported_names(oracle) & ORACLE_SUBJECTS) == []


def test_import_check_sees_both_import_forms():
    tree = ast.parse(
        "import chiralg.oper\n"
        "from chiralg.fock import _koszul_sort, State as S\n"
        "from chiralg import oper as o\n"
        "def f(word):\n"
        "    o._insert((), word)\n"
        "    chiralg.oper.normal_order(1, 2, word)\n"
        "    word.normal_product\n"
    )
    assert imported_names(tree) == {"_koszul_sort", "State", "oper", "_insert", "normal_order"}
