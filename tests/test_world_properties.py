"""Properties of built worlds across every supported even modulus.

Each example builds the world of a seeded affine image of a strong class at
n in {6, 8, 10, 12, 14} and checks the stored matrix against independent
recomputations: the engine's step count at the true cantus (the frozen
class table for the mystic preset), a plain recount
of the histogram, and a nonzero scan of each row for the successors.
The local polarity is checked exhaustively over every strong class and
cantus at the same moduli.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from counterpoint import (
    Dichotomy,
    DualNumber,
    Modulus,
    build_world,
    local_polarity,
    step_count,
    strong_atlas,
)
from counterpoint.model_tables import mystic_class_count
from oracles import image

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
