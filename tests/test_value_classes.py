"""The package's value classes behave exactly like their ``@dataclass`` twins.

Every value is described once, as a tree of ``Make`` nodes, and built twice:
from the package's classes and from the twins in ``dataclass_twins``.  The
two builds must agree on construction errors, ``==`` and ``!=`` (also
against other types), ``hash``, the four order operators or their
``TypeError``, ``repr``, immutability and the CLI's JSON form.  A package
value also survives ``copy`` and ``pickle``, as a dataclass does.
"""

import copy
import dataclasses
import pickle
import operator
from enum import Enum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import counterpoint
import dataclass_twins
from counterpoint import RestrictionMode, SdDivisor
from counterpoint.cli_reports import _jsonable
from counterpoint.residue_algebra import _Value
from dataclass_twins import TWINS


class Make:
    """A value to build: class name and argument trees."""

    def __init__(self, name, *args):
        self.name, self.args = name, args

    def __repr__(self):
        return f"Make({self.name!r}, {', '.join(map(repr, self.args))})"


def build(tree, namespace):
    if isinstance(tree, Make):
        return getattr(namespace, tree.name)(*(build(arg, namespace) for arg in tree.args))
    if isinstance(tree, tuple):
        return tuple(build(item, namespace) for item in tree)
    return tree


def make(name, *fields):
    return st.tuples(*fields).map(lambda args: Make(name, *args))


def tuples(element, max_size=4):
    return st.lists(element, max_size=max_size).map(tuple)


INTS = st.integers(min_value=-30, max_value=30)
SMALL = st.integers(min_value=0, max_value=3)
FRACTIONS = st.fractions(max_denominator=12, min_value=-5, max_value=5)
FLOATS = st.floats(allow_infinity=True, allow_nan=True, width=32)
NOTES = st.none() | st.sampled_from(["", "note", "78 (mystic)"])
MODULI = make("Modulus", st.integers(min_value=-2, max_value=16)) | st.just(Make("Modulus"))
LIVE_MODULI = st.sampled_from([Make("Modulus", 10), Make("Modulus"), Make("Modulus", 14)])
AFFINE = make("ResidueAffineMap", INTS, INTS) | make("ResidueAffineMap", INTS, INTS, LIVE_MODULI)
DUALS = make("DualNumber", SMALL, SMALL) | make("DualNumber", INTS, INTS, LIVE_MODULI)
PITCH_TUPLES = tuples(st.integers(min_value=0, max_value=11), max_size=6)

VALUES = {
    "Modulus": MODULI,
    "ResidueAffineMap": AFFINE,
    "DualNumber": DUALS,
    "DualAffineMap": make("DualAffineMap", SMALL, SMALL, SMALL, SMALL)
    | make("DualAffineMap", INTS, INTS, INTS, INTS, MODULI),
    "Dichotomy": make(
        "Dichotomy", st.frozensets(st.integers(min_value=-14, max_value=14), max_size=8)
    )
    | make("Dichotomy", st.frozensets(INTS, min_size=5, max_size=7), LIVE_MODULI),
    "StrengthCertificate": make("StrengthCertificate", tuples(AFFINE, 2), tuples(AFFINE, 2)),
    "DichotomyClass": make("DichotomyClass", PITCH_TUPLES, SMALL, NOTES),
    "ChordEndomorphismReport": make(
        "ChordEndomorphismReport", PITCH_TUPLES, tuples(AFFINE, 2), PITCH_TUPLES, st.booleans()
    ),
    "WorldMoments": make("WorldMoments", FRACTIONS, FRACTIONS, FLOATS, NOTES),
    "WorldOverlap": make("WorldOverlap", FRACTIONS, FRACTIONS, FRACTIONS),
    "ScaleRestrictionReport": make(
        "ScaleRestrictionReport",
        PITCH_TUPLES,
        st.sampled_from(RestrictionMode),
        SMALL,
        tuples(st.tuples(DUALS, DUALS), 2),
        tuples(st.tuples(SMALL, SMALL, SMALL), 2),
    ),
    "WalkResult": make("WalkResult", tuples(DUALS), st.booleans(), st.none() | SMALL),
    "PopulationSpec": make(
        "PopulationSpec",
        FRACTIONS,
        FRACTIONS,
        FLOATS,
        PITCH_TUPLES,
        st.dictionaries(SMALL, FRACTIONS, max_size=3),
    ),
    "SampleSummary": make(
        "SampleSummary",
        SMALL,
        tuples(st.tuples(SMALL, SMALL)),
        PITCH_TUPLES,
        FRACTIONS,
        FLOATS,
        st.sampled_from(SdDivisor),
    ),
    "EffectSizeResult": make("EffectSizeResult", *[FLOATS] * 5),
    "ChiSquareResult": make(
        "ChiSquareResult",
        FLOATS,
        SMALL,
        FLOATS,
        st.booleans(),
        tuples(PITCH_TUPLES, 2),
        PITCH_TUPLES,
        tuples(FLOATS),
    ),
    "ScoreEvent": make("ScoreEvent", SMALL, FRACTIONS, st.none() | SMALL, SMALL),
    "FixedCantus": make("FixedCantus", INTS),
    "ColumnCantus": st.just(Make("ColumnCantus")),
    "TransitionSequence": make(
        "TransitionSequence", tuples(st.tuples(DUALS, DUALS), 3), st.booleans()
    ),
}
ORDERS = (operator.lt, operator.le, operator.gt, operator.ge)


def old_jsonable(value):
    """``cli_reports._jsonable`` as it read dataclasses."""
    if isinstance(value, Fraction):
        return {"fraction": f"{value.numerator}/{value.denominator}", "value": float(value)}
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: old_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): old_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [old_jsonable(v) for v in value]
    return value


def outcome(thunk):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "value", thunk()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc).__name__, str(exc)


def test_twins_name_every_value_class():
    classes = {cls.__name__: cls for cls in _Value.__subclasses__()}
    assert sorted(classes) == sorted(twin.__name__ for twin in TWINS) == sorted(VALUES)
    for twin in TWINS:
        cls = classes[twin.__name__]
        assert cls is getattr(counterpoint, twin.__name__)
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(twin))
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert (op in vars(cls)) == twin.__dataclass_params__.order


@settings(max_examples=400, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(VALUES)))
def test_value_classes_match_their_dataclass_twins(data, name):
    tree = data.draw(VALUES[name], label="value")
    other_tree = data.draw(st.just(tree) | VALUES[name], label="other")
    built = outcome(lambda: (build(tree, counterpoint), build(other_tree, counterpoint)))
    twins = outcome(lambda: (build(tree, dataclass_twins), build(other_tree, dataclass_twins)))
    assert built[0] == twins[0]
    if built[0] != "value":
        assert built == twins  # the same construction error
        return
    (x, y), (tx, ty) = built[1], twins[1]
    foreign = 5 if name == "ColumnCantus" else counterpoint.COLUMN_CANTUS
    tforeign = 5 if name == "ColumnCantus" else dataclass_twins.ColumnCantus()
    assert outcome(lambda: x == y) == outcome(lambda: tx == ty)
    assert outcome(lambda: x != y) == outcome(lambda: tx != ty)
    for stranger, tstranger in ((foreign, tforeign), (None, None), ((), ()), ("x", "x")):
        assert (x == stranger, x != stranger) == (tx == tstranger, tx != tstranger)
        for op in ORDERS:
            assert outcome(lambda: op(x, stranger)) == outcome(lambda: op(tx, tstranger))
    for op in ORDERS:
        assert outcome(lambda: op(x, y)) == outcome(lambda: op(tx, ty))
    assert outcome(lambda: hash(x)) == outcome(lambda: hash(tx))
    assert repr(x) == repr(tx)
    for field in (*x.__slots__, "extra"):
        for obj in (x, tx):
            with pytest.raises(AttributeError):
                setattr(obj, field, 0)
            with pytest.raises(AttributeError):
                delattr(obj, field)
    assert build(tree, counterpoint) == x  # nothing above changed the value
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(clone) is type(x) and repr(clone) == repr(x)
    assert _jsonable(x) == old_jsonable(tx)


def own_init(twin) -> bool:
    """Whether a twin does more at construction than set its fields in order."""
    defaults = any(
        f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
        for f in dataclasses.fields(twin)
    )
    return hasattr(twin, "__post_init__") or defaults


INHERITED = sorted(
    twin.__name__ for twin in TWINS if not own_init(twin) and twin.__name__ != "ScoreEvent"
)


def test_a_value_class_writes_its_own_init_only_to_normalise_or_default():
    # ScoreEvent keeps a constructor of its own to refuse a non-int pitch; the
    # drawn pitches are ints, so its twin, which checks nothing, still matches.
    for twin in TWINS:
        cls = getattr(counterpoint, twin.__name__)
        expected = own_init(twin) or twin.__name__ == "ScoreEvent"
        assert ("__init__" in vars(cls)) == expected, twin.__name__
    assert not own_init(dataclass_twins.ScoreEvent)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(INHERITED))
def test_the_inherited_constructor_takes_fields_by_position_or_by_name(data, name):
    # Keyword and mixed calls build the positional value; misuse raises the
    # twin's exception type (the messages differ).
    tree = data.draw(VALUES[name], label="value")
    cls, twin = getattr(counterpoint, name), getattr(dataclass_twins, name)
    args = build(tree.args, counterpoint)
    targs = build(tree.args, dataclass_twins)
    names = cls.__slots__
    value = cls(*args)
    for split in range(len(names) + 1):
        named = dict(reversed(list(zip(names[split:], args[split:]))))
        assert cls(*args[:split], **named) == value
    calls = [(args + (0,), {}), (args, {"extra": 0})]
    tcalls = [(targs + (0,), {}), (targs, {"extra": 0})]
    if names:
        calls += [(args[:-1], {}), (args, {names[0]: args[0]})]
        tcalls += [(targs[:-1], {}), (targs, {names[0]: targs[0]})]
    for (a, kw), (ta, tkw) in zip(calls, tcalls):
        got, expected = outcome(lambda: cls(*a, **kw)), outcome(lambda: twin(*ta, **tkw))
        assert got[0] == expected[0] == "TypeError"
