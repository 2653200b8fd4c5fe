"""Properties of built worlds across every supported even modulus.

Each example builds the world of a seeded affine image of a strong class at
n in {6, 8, 10, 12, 14} and checks the stored matrix against independent
recomputations: the engine's step count at the true cantus (the frozen
class table for the mystic preset), a plain recount
of the histogram, and a nonzero scan of each row for the successors.
Walks, also over worlds whose rows are cut short down to dead ends, are
checked against the ``Random.choice`` per step definition.
The local polarity is checked exhaustively over every strong class and
cantus at the same moduli.
"""

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from counterpoint import (
    DeadEnd,
    Dichotomy,
    DualNumber,
    Modulus,
    build_world,
    step_count,
    strong_atlas,
    walk,
)
from counterpoint.model_tables import mystic_class_count
from oracles import image, local_polarity, reference_walk

MODULI = (6, 8, 10, 12, 14)
PROPERTY_SETTINGS = settings(max_examples=15, deadline=None)


@lru_cache(maxsize=None)
def strong_representatives(n: int) -> tuple:
    return tuple(tuple(c.canonical_representative) for c in strong_atlas(Modulus(n)))


@st.composite
def worlds(draw):
    n = draw(st.sampled_from(MODULI))
    modulus = Modulus(n)
    rep = draw(st.sampled_from(strong_representatives(n)))
    a = draw(st.sampled_from(modulus.units()))
    b = draw(st.integers(0, n - 1))
    return build_world(Dichotomy(frozenset((a * p + b) % n for p in rep), modulus))


@st.composite
def worlds_and_cells(draw):
    w = draw(worlds())
    n = w.modulus.n
    cell = st.tuples(*[st.integers(0, n - 1)] * 4)
    return w, draw(st.lists(cell, min_size=1, max_size=6))


@PROPERTY_SETTINGS
@given(worlds_and_cells())
def test_count_at_matches_step_count_at_the_true_cantus(drawn):
    w, cells = drawn
    m = w.modulus
    for x, k, y, l in cells:
        if w.label == "mystic":  # a fitted frozen table, not the engine's output
            expected = mystic_class_count(k, y - x, l)
        else:
            expected = step_count(w.dichotomy, DualNumber(x, k, m), DualNumber(y, l, m))
        assert w.count_at(x, k, y, l) == expected


@PROPERTY_SETTINGS
@given(worlds())
def test_histogram_is_a_recount_of_the_matrix(w):
    n = w.modulus.n
    recount = {}
    for row in w.counts:
        for c in row:
            recount[c] = recount.get(c, 0) + 1
    assert sum(w.histogram.values()) == n ** 4
    assert {c: f for c, f in w.histogram.items() if f} == recount


@PROPERTY_SETTINGS
@given(worlds())
def test_successors_are_the_nonzero_scan_of_the_row(w):
    n = w.modulus.n
    for xi in w.intervals():
        row = w.counts[n * xi.a + xi.b]
        scan = [(DualNumber(col // n, col % n, w.modulus), c) for col, c in enumerate(row) if c]
        got = w.successors(xi)
        assert got == scan
        got.clear()  # a fresh list: the caller may change it
        assert w.successors(xi) == scan


def first_steps(row: bytes, keep: int) -> bytes:
    """``row`` with every valid step after its first ``keep`` set to count 0."""
    out = bytearray(row)
    for col in [col for col, c in enumerate(row) if c][keep:]:
        out[col] = 0
    return bytes(out)


def cut_rows(w, stride: int):
    """``w`` with row i cut to its first (i * stride) mod (n^2 + 1) valid steps."""
    span = len(w.counts) + 1
    counts = tuple(first_steps(row, i * stride % span) for i, row in enumerate(w.counts))
    return dataclasses.replace(w, counts=counts)


def walk_outcome(walk_fn, w, start, length, seed):
    """The walk's result, or DeadEnd and its message."""
    try:
        return walk_fn(w, start, length, seed)
    except DeadEnd as exc:
        return DeadEnd, str(exc)


@st.composite
def walks(draw):
    """(world, start, length, seed); half the worlds have rows cut short, some to dead ends."""
    w = draw(worlds())
    n = w.modulus.n
    if draw(st.booleans()):
        w = cut_rows(w, draw(st.integers(1, n * n)))
    start = DualNumber(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), w.modulus)
    return w, start, draw(st.integers(0, 300)), draw(st.integers(0, 2 ** 64))


@PROPERTY_SETTINGS
@given(walks())
def test_walk_equals_the_choice_per_step_definition(drawn):
    assert walk_outcome(walk, *drawn) == walk_outcome(reference_walk, *drawn)


def test_walk_equals_the_definition_at_every_row_size(fux_world):
    """Row i keeps its first i mod 145 valid steps, so one world has rows of
    every size from 0 up, 1 and the powers of two among them; the walks meet
    those sizes, a dead end at the start and dead ends mid-walk."""
    w = cut_rows(fux_world, 1)
    sizes, stops = set(), set()
    for seed, start in enumerate(w.intervals()):
        got = walk_outcome(walk, w, start, 120, seed)
        assert got == walk_outcome(reference_walk, w, start, 120, seed)
        if isinstance(got, tuple):
            stops.add("start")
            continue
        sizes.update(len(w.successors(z)) for z in got.path)
        if not got.completed:
            stops.add("mid-walk")
    assert {1, 2, 4, 8, 16, 32, 64} <= sizes
    assert stops == {"start", "mid-walk"}


@pytest.mark.parametrize("n", MODULI)
def test_local_polarity_is_an_involution_swapping_species_at_every_cantus(n):
    modulus = Modulus(n)
    for rep in strong_representatives(n):
        d = Dichotomy(frozenset(rep), modulus)
        for x in range(n):
            pol = local_polarity(d, x)
            assert pol.compose(pol).is_identity()
            for m in range(n):
                base, eps = image(pol, x, m)
                assert base == x
                assert (eps in d.half) != (m in d.half)
