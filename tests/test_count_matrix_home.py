"""The count matrix's layout has one home: ``counterpoint.worlds``.

Read with ``ast``: outside ``worlds.py`` no package module or script reads
a ``.counts`` attribute, and ``score_io`` imports nothing from ``worlds``,
so a change to the row and column layout touches one file.
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
