"""The benchmark and the scripts still find what they use of the package.

``perfbench/`` and ``scripts/`` are read with ``ast``, not run, so a deletion
from the package that would break a benchmark run or a script fails here.
So does a change to what ``import counterpoint.cli_reports`` loads, which
perfbench's ``-X importtime`` probe expects to be every package module.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from counterpoint import DualAffineMap, World

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
SOURCES = PERFBENCH + sorted((ROOT / "scripts").glob("*.py"))

# Members perfbench calls on objects it gets back, which no import names.
PERFBENCH_MEMBERS = {
    World: ("count_at", "intervals", "successors"),
    DualAffineMap: ("invert", "compose", "is_identity"),
}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_imports(path: Path) -> list:
    """(module, name) of every ``from counterpoint... import name`` in the file."""
    return [
        (node.module, alias.name)
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module.split(".")[0] == "counterpoint"
        for alias in node.names
    ]


def test_sources_import_the_package():
    assert len(PERFBENCH) >= 5
    assert sum(len(package_imports(path)) for path in SOURCES) >= 20


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_package_imports_resolve(path):
    missing = [
        f"{module}.{name}"
        for module, name in package_imports(path)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_members_perfbench_calls_exist():
    called = {
        node.attr for path in PERFBENCH for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute)
    }
    for cls, names in PERFBENCH_MEMBERS.items():
        for name in names:
            assert name in called, f"perfbench no longer calls {cls.__name__}.{name}"
            assert callable(getattr(cls, name, None)), f"{cls.__name__}.{name} is gone"


def probed_modules() -> list:
    """perfbench's ``layers.MODULES``: what its -X importtime probe must find."""
    for node in ast.walk(_tree(ROOT / "perfbench" / "layers.py")):
        if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "MODULES":
            return sorted(ast.literal_eval(node.value))
    raise AssertionError("perfbench/layers.py defines no MODULES")


def test_cli_import_loads_every_probed_module():
    probe = (
        "import sys, counterpoint.cli_reports\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'counterpoint'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout
    assert out.split() == probed_modules()
    assert len(probed_modules()) == 8


def test_world_is_the_only_dataclass():
    found = {
        obj
        for name in probed_modules()
        for obj in vars(importlib.import_module(name)).values()
        if isinstance(obj, type) and hasattr(obj, "__dataclass_fields__")
        and obj.__module__.split(".")[0] == "counterpoint"
    }
    assert found == {World}
