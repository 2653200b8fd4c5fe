"""The bit-mask affine orbits of ``dichotomies`` equal the set-based oracle.

``tests/oracles.py`` keeps the reference: one ``ResidueAffineMap`` and one
``frozenset`` per affine image.  Every output must match it exactly: class
lists with their order and aliases, orbit sizes in key order, and the
sorted stabilizer, swap and endomorphism tuples.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from counterpoint import (
    Dichotomy,
    Modulus,
    all_class_orbit_sizes,
    chord_endomorphisms,
    classify,
    strength,
    strong_atlas,
)

MODULI = list(range(4, 17, 2))


@st.composite
def dichotomies(draw):
    n = draw(st.sampled_from(MODULI))
    order = draw(st.permutations(range(n)))
    return Dichotomy(frozenset(order[: n // 2]), Modulus(n))


@st.composite
def chords(draw):
    """A nonempty chord of Z_n, its tones drawn from beyond 0..n-1 too."""
    n = draw(st.sampled_from(MODULI))
    return draw(st.sets(st.integers(-n, 2 * n - 1), min_size=1, max_size=n)), Modulus(n)


@pytest.mark.parametrize("n", MODULI)
def test_atlas_and_orbit_sizes_equal_the_oracle(n):
    modulus = Modulus(n)
    assert strong_atlas(modulus) == oracles.strong_atlas(modulus)
    sizes = all_class_orbit_sizes(modulus)
    assert list(sizes.items()) == list(oracles.all_class_orbit_sizes(modulus).items())


@given(dichotomies())
def test_strength_and_classify_equal_the_oracle(d):
    assert strength(d) == oracles.strength(d)
    assert classify(d) == oracles.classify(d)


@given(chords())
def test_chord_endomorphisms_equal_the_oracle(drawn):
    chord, modulus = drawn
    assert chord_endomorphisms(chord, modulus) == oracles.chord_endomorphisms(chord, modulus)
