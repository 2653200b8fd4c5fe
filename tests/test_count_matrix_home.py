"""The count matrix's layout has one home: ``counterpoint.worlds``.

Read with ``ast``: outside ``worlds.py`` no package module or script reads
a ``.counts`` attribute, and ``score_io`` imports nothing from ``worlds``,
so a change to the row and column layout touches one file.  Likewise the
frozen mystic table is indexed only in ``model_tables.py``: ``worlds.py``
takes its slabs whole, and everything else reads it through
``mystic_class_count``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "counterpoint"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p != PACKAGE / "worlds.py"],
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_only_worlds_reads_the_count_matrix(path):
    reads = [
        node.lineno for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "counts"
    ]
    assert reads == [], f"{path.name} reads .counts on lines {reads}"


def test_worlds_still_reads_the_count_matrix():
    assert any(
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute) and node.value.attr == "counts"
        for node in ast.walk(_tree(PACKAGE / "worlds.py"))
    )


def test_score_io_imports_nothing_from_worlds():
    modules = []
    for node in ast.walk(_tree(PACKAGE / "score_io.py")):
        if isinstance(node, ast.ImportFrom):
            modules += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert modules
    assert [m for m in modules if "worlds" in m.split(".")] == []


def _table_subscripts(path: Path) -> list:
    return [
        node.lineno for node in ast.walk(_tree(path))
        if isinstance(node, ast.Subscript)
        and "MYSTIC_STEP_TABLE" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))
    ]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "model_tables.py"],
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_only_model_tables_indexes_the_mystic_table(path):
    lines = _table_subscripts(path)
    assert lines == [], f"{path.name} subscripts MYSTIC_STEP_TABLE on lines {lines}"


def test_model_tables_still_indexes_the_mystic_table():
    assert _table_subscripts(PACKAGE / "model_tables.py")
