"""Every residue value a caller hands the package is read by ``Modulus.reduce``.

Each entry point that takes residues refuses a value that is not an integer
with the same ValueError, and reduces an integer (negative, n or more, or a
``bool``) to ``x % n``, as before.  Read with ``ast``, ``isinstance(..., int)``
appears in the package only in ``residue_algebra.py`` and in three checks on
values that are not residues: ``ScoreEvent.__init__`` (MIDI pitches),
``stats._moments`` (tally entries) and ``worlds.walk`` (a walk's length and
seed).  The four readers of text and scores read at n = 12 and take no
modulus.

Interval values have one home too: outside ``residue_algebra.py`` no
package module calls ``DualNumber(...)`` or ``ModulusMismatch(...)``.  The
intervals the package hands out come from the shared plane ``_plane``, and
every mixed-moduli check is ``_require_same_modulus``.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from counterpoint import (
    COLUMN_CANTUS,
    Dedup,
    Dichotomy,
    DualAffineMap,
    DualNumber,
    FixedCantus,
    Modulus,
    ResidueAffineMap,
    RestrictionMode,
    ScoreEvent,
    chord_endomorphisms,
    extract_transitions,
    parse_pitch_class_set,
    scale_restriction_report,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "counterpoint"
EVENTS = [ScoreEvent(1, Fraction(1), None, 60), ScoreEvent(1, Fraction(2), None, 67)]


def _field(cls, arity, i):
    return lambda value, world: cls(*[1] * i, value, *[1] * (arity - 1 - i))


# value, world -> the entry point called with value in one residue position.
ENTRY_POINTS = {
    "Modulus.reduce": lambda value, world: Modulus().reduce(value),
    **{
        f"{cls.__name__}.{cls.__slots__[i]}": _field(cls, arity, i)
        for cls, arity in ((ResidueAffineMap, 2), (DualNumber, 2), (DualAffineMap, 4))
        for i in range(arity)
    },
    "Dichotomy": lambda value, world: Dichotomy(frozenset({value, 3, 4, 7, 8, 9})),
    "chord_endomorphisms": lambda value, world: chord_endomorphisms([value, 4, 7]),
    "scale_restriction_report": lambda value, world: scale_restriction_report(
        world, [0, value], RestrictionMode.BOTH_VOICES
    ),
    "extract_transitions": lambda value, world: extract_transitions(EVENTS, FixedCantus(value)),
    **{
        f"World.count_at.{name}": (
            lambda value, world, i=i: world.count_at(*[1] * i, value, *[1] * (3 - i))
        )
        for i, name in enumerate("xkyl")
    },
}


@pytest.mark.parametrize("value", [0.5, 12.0, "3", None], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_integer_residue_rejected(fux_world, entry, value):
    message = f"^residue must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](value, fux_world)


@pytest.mark.parametrize("value", [-1, 12, 23, -11, True, False], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_integer_residue_reduced_mod_n(fux_world, entry, value):
    assert ENTRY_POINTS[entry](value, fux_world) == ENTRY_POINTS[entry](value % 12, fux_world)


def _int_checks(path: Path) -> list:
    """The dotted name of the def around every ``isinstance(..., int)`` call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "id", None) == "isinstance"
                and any(getattr(n, "id", None) == "int" for n in ast.walk(child.args[1]))
            ):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), ())
    return found


NON_RESIDUE_CHECKS = {
    "score_io.py": {"ScoreEvent.__init__"}, "stats.py": {"_moments"}, "worlds.py": {"walk"}
}


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "residue_algebra.py"],
    ids=lambda p: p.name,
)
def test_integer_checks_live_in_residue_algebra(path):
    stray = set(_int_checks(path)) - NON_RESIDUE_CHECKS.get(path.name, set())
    assert stray == set(), f"{path.name} checks for int in {sorted(stray)}"


def test_modulus_reduce_still_checks():
    assert "Modulus.reduce" in _int_checks(PACKAGE / "residue_algebra.py")


def test_the_text_and_score_readers_take_no_modulus():
    events = [ScoreEvent(1, Fraction(1), 60, 64), ScoreEvent(2, Fraction(1), 60, 67)]
    readers = [
        (DualNumber.parse, ("0+e3",)),
        (parse_pitch_class_set, ("0,4,7",)),
        (Dichotomy.parse, ("fux",)),
        (extract_transitions, (events, COLUMN_CANTUS, Dedup.NONE)),
    ]
    for reader, args in readers:
        reader(*args)
        with pytest.raises(TypeError):
            reader(*args, Modulus())
        with pytest.raises(TypeError):
            reader(*args, modulus=Modulus())


def _calls(path: Path, name: str) -> list:
    """The lines of every call of ``name`` (bare or as an attribute) in ``path``."""
    return [
        node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


@pytest.mark.parametrize("name", ["DualNumber", "ModulusMismatch"])
@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "residue_algebra.py"],
    ids=lambda p: p.name,
)
def test_only_residue_algebra_builds_intervals_and_raises_mixed_moduli(path, name):
    lines = _calls(path, name)
    assert lines == [], f"{path.name} calls {name}(...) on lines {lines}"


def test_residue_algebra_still_builds_intervals_and_raises_mixed_moduli():
    path = PACKAGE / "residue_algebra.py"
    assert _calls(path, "DualNumber") and _calls(path, "ModulusMismatch")
