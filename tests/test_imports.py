"""Every name a leoacq module or a test module imports is read somewhere
in that module.

No linter runs over the package or its tests, so this is the guard against
imports left behind when the code that used them is deleted.  Re-exports in
``__init__.py`` and ``from __future__`` imports are exempt.  The same
walk guards the package against functools caches, which would hold a
run's constants for the life of the process.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leoacq

MODULES = sorted(p for p in Path(leoacq.__file__).parent.glob("*.py")
                 if p.name != "__init__.py") + sorted(
                     Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - loaded)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom sys import argv, path\n"
                          "print(path)\n") == ["argv", "os"]


def test_import_leaves_the_thread_module_unloaded():
    """A fresh interpreter that imports every leoacq module has not loaded
    concurrent.futures.thread: acq_core._row_bands relies on that lazy load
    so that a run that never bands pays for it in neither set-up time nor
    memory."""
    names = sorted(p.stem for p in Path(leoacq.__file__).parent.glob("*.py")
                   if p.name != "__init__.py")
    code = ("import importlib, sys\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module('leoacq.' + name)\n"
            "print('concurrent.futures.thread' in sys.modules)\n")
    src = str(Path(leoacq.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert "io_cli" in names
    assert out == "False\n"


PACKAGE = sorted(Path(leoacq.__file__).parent.glob("*.py"))
CACHES = {"lru_cache", "cache"}


def global_caches(source: str) -> list[str]:
    """Each use of functools.lru_cache or functools.cache, by attribute or
    by import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            found.append(f"functools.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"functools.{a.name}" for a in node.names
                      if a.name in CACHES]
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_global_cache(path):
    """No leoacq function keeps a process-wide cache: a constant that a run
    reuses is built by the code that owns the run and passed on (the code
    spectrum by eval_harness.run_span)."""
    assert global_caches(path.read_text()) == []


def test_cache_guard_sees_both_spellings():
    assert sorted(global_caches("import functools\n"
                                "from functools import cache, partial\n"
                                "@functools.lru_cache(maxsize=1)\n"
                                "def f(): pass\n")) == [
        "functools.cache", "functools.lru_cache"]
