"""The package namespace is lazy: ``import counterpoint`` loads none of its
submodules, and each public name loads only its home module, on first use.

The load checks run in a fresh ``python -S`` process (a site hook may import
standard modules before the program starts), since this process has long
since loaded every module.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import counterpoint

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "counterpoint"
HEAVY_STANDARD_MODULES = ("dataclasses", "fractions", "statistics", "csv", "json")


def fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh ``python -S`` process that finds the package."""
    return subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout


def loaded_after(code: str) -> set:
    """Names in ``sys.modules`` after ``code`` runs in a fresh process."""
    return set(fresh(f"import sys\n{code}\nprint(*sys.modules)").splitlines()[-1].split())


def package_modules(modules: set) -> set:
    return {m for m in modules if m.split(".")[0] == "counterpoint"}


def defined_names(path: Path) -> set:
    """Names a module's own top-level statements define (not those it imports)."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_bare_import_loads_no_submodule():
    loaded = loaded_after("import counterpoint")
    assert package_modules(loaded) == {"counterpoint"}
    assert [m for m in HEAVY_STANDARD_MODULES if m in loaded] == []


def test_a_name_loads_only_its_home_module_and_what_that_imports():
    loaded = loaded_after("from counterpoint import strong_atlas")
    assert package_modules(loaded) == {
        "counterpoint", "counterpoint.residue_algebra", "counterpoint.dichotomies",
    }


DEFINED = {
    path.stem: defined_names(path) for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
}


@pytest.mark.parametrize("name", counterpoint.__all__)
def test_public_name_is_its_home_modules_object(name):
    homes = [module for module, names in DEFINED.items() if name in names]
    assert len(homes) == 1, homes
    value = getattr(counterpoint, name)
    assert value is getattr(importlib.import_module(f"counterpoint.{homes[0]}"), name)
    # Bound on first use: later reads do not go through the hook.
    assert vars(counterpoint)[name] is value


def test_submodules_resolve_without_an_explicit_import():
    out = fresh("import counterpoint\nprint(counterpoint.worlds.__name__, counterpoint.model_tables.__name__)")
    assert out.split() == ["counterpoint.worlds", "counterpoint.model_tables"]


def test_dir_lists_every_public_name_before_any_is_used():
    out = fresh("import counterpoint\nprint(*dir(counterpoint))").split()
    assert "__all__" in out
    assert set(counterpoint.__all__) <= set(out)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(counterpoint, "no_such_name")
    assert not hasattr(counterpoint, "no_such_name")


def test_text_output_leaves_json_unloaded():
    loaded = loaded_after(
        "from counterpoint.cli_reports import main\n"
        "main(['step', '--dichotomy', 'fux', '--from', '0+e3', '--to', '2+e4'])"
    )
    assert "counterpoint.worlds" in loaded
    assert "json" not in loaded
