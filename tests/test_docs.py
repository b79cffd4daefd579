"""The README's Python blocks and the demos run as documented, and the names
the README's module map and the package docstrings cite exist."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chiralg

ROOT = Path(__file__).resolve().parent.parent


def _python(*args):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    proc = _python("-c", "\n".join(blocks))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = _python(str(ROOT / "demos" / demo))
    assert proc.returncode == 0, proc.stderr


IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _resolves(name, *scopes):
    """Whether the dotted ``name`` is an attribute path in one of ``scopes``."""
    for scope in scopes:
        obj = scope
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def module_map_names():
    """(module, name) for every backticked identifier in a row of the README
    module map; a call's arguments are dropped, and command lines and
    command names with a hyphen are not identifiers."""
    section = (ROOT / "README.md").read_text().split("## Module map")[1].split("\n## ")[0]
    found = []
    for row in re.findall(r"^\| `chiralg\.(\w+)` \|(.*)$", section, re.M):
        module, cells = row
        for quoted in re.findall(r"`([^`]+)`", cells):
            name = quoted.split("(")[0]
            if IDENTIFIER.fullmatch(name):
                found.append((module, name))
    return found


def docstring_references():
    """(module, name) for every ``A.b`` in a docstring of the package: the
    name b in module A if the package has a module A, else the attribute
    path A.b in the citing module (a method cited as ``Class.method``)."""
    paths = sorted((ROOT / "src" / "chiralg").glob("*.py"))
    modules = {path.stem for path in paths}
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                continue
            doc = ast.get_docstring(node) or ""
            for head, attr in re.findall(r"``(\w+)\.(\w+)``", doc):
                found.append((head, attr) if head in modules else (path.stem, f"{head}.{attr}"))
    return found


def test_cited_names_resolve():
    """A rename that leaves the old name in the module map or in a
    docstring's ``module.attr`` fails here."""
    names = module_map_names()
    assert len({module for module, _ in names}) >= 8  # every row but qseries
    stale = [
        (module, name)
        for module, name in names
        if not _resolves(name, importlib.import_module(f"chiralg.{module}"), chiralg)
    ]
    refs = docstring_references()
    # a method cited through its class resolves in the citing module
    assert ("cohomology", "_WeightBlocks.cell") in refs
    stale += [
        (module, name)
        for module, name in refs
        if not _resolves(name, importlib.import_module(f"chiralg.{module}"))
    ]
    assert stale == []
