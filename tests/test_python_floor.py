"""Every file under ``src/`` and ``scripts/`` parses at the Python floor that
``pyproject.toml`` declares (``requires-python``).

``ast.parse(..., feature_version=...)`` rejects syntax newer than the floor;
it does not check the standard-library names a file uses.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def python_floor() -> tuple:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_floor_is_declared():
    assert python_floor() == (3, 10)
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=python_floor())
