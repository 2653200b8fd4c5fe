"""The package has no runtime dependencies: every ``import`` and ``from``
under ``src/`` names either the package itself (a relative import) or a
module of the standard library (``sys.stdlib_module_names``).  Importing the
CLI also loads no standard module that the package does not use.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def imported_modules(tree: ast.AST) -> list:
    """Top-level names of the absolute imports in a module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


def test_relative_imports_are_not_counted():
    tree = ast.parse("import os.path\nfrom . import stats\nfrom .worlds import World\nfrom numpy import array\n")
    assert imported_modules(tree) == ["os", "numpy"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [name for name in imported_modules(tree) if name not in sys.stdlib_module_names]
    assert outside == []


def test_cli_import_leaves_unused_standard_modules_unloaded():
    # -S: a site hook may import these before the program starts.
    unused = ("typing", "pathlib", "urllib.parse")
    probe = f"import sys, counterpoint.cli_reports\nprint(*[m for m in {unused!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout
    assert out.split() == []
