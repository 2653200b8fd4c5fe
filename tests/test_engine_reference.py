"""The symmetry engine against a direct reference implementation.

The reference scans every translation t for C2, sums each candidate's C3
overlap score over all n cantus positions, and fills each class-table cell
by counting pull-backs one by one, for every one of the n sources 0+ek.
The engine solves cantus 0 only, from one candidate table per species (each
t solving C2, scored by the gcd closed form of C3 and admitting the sources
t + a*O of C1): a source's symmetries are the candidates admitting it with
the best top score among them, each with every b at its top.  It reaches
every other cantus by conjugating with a translation, and sums slabs from
species rows for the n/2 marked sources only, one block per divisor g of n:
block d is block gcd(d, n).  The other n/2 slabs it gets from the polarity
identity T[vk + u][v*d][v*l + u] = T[k][d][l] of the polarity e^u.v: slab
vk + u is slab k with lane l of each block moved to v*l + u.  Both must give
the same symmetries and the same bytes, so the byte comparison checks every
derived block and slab against a directly solved one.  The identity itself
is checked on the symmetries, on the reference tables and on the built
worlds, for the canonical strong classes and for seeded affine images of
them, whose polarities differ from their representatives'.
"""

import random
from functools import lru_cache

import pytest

from counterpoint import (
    Dichotomy,
    DualAffineMap,
    DualNumber,
    Modulus,
    build_world,
    counterpoint_symmetries,
    strong_atlas,
)
from counterpoint import worlds
from counterpoint.model_tables import mystic_class_count
from oracles import local_polarity


def overlap_rows(modulus: Modulus, species: frozenset) -> dict:
    """J[a][w] = |(a*species + w) cap species| for every unit a, from the definition."""
    n = modulus.n
    return {
        a: [len({(a * m + w) % n for m in species} & species) for w in range(n)]
        for a in modulus.units()
    }


@lru_cache(maxsize=None)
def strong_dichotomies(n: int) -> tuple:
    modulus = Modulus(n)
    return tuple(
        Dichotomy(frozenset(c.canonical_representative), modulus) for c in strong_atlas(modulus)
    )


@lru_cache(maxsize=None)
def affine_images(n: int) -> tuple:
    """A seeded affine image a*K + b of every strong class at modulus n."""
    modulus = Modulus(n)
    rng = random.Random(n)
    images = []
    for d in strong_dichotomies(n):
        a, b = rng.choice(modulus.units()), rng.randrange(n)
        images.append(Dichotomy(frozenset((a * x + b) % n for x in d.half), modulus))
    return tuple(images)


def polarity_breaks(count, d: Dichotomy) -> int:
    """Classes (k, d, l) whose count(k, d, l) differs from that of (vk + u, v*d, v*l + u)."""
    p = worlds._polarity_or_raise(d)
    n, u, v = d.modulus.n, p.u, p.v
    return sum(
        1
        for k in range(n)
        for dd in range(n)
        for l in range(n)
        if count((v * k + u) % n, v * dd % n, (v * l + u) % n) != count(k, dd, l)
    )


def reference_symmetries(d: Dichotomy, xi: DualNumber) -> list:
    """Fiber pool, C2 by scanning every t, C1, C3 by summing each candidate's score."""
    p = worlds._polarity_or_raise(d)
    n = d.modulus.n
    x, k = xi.a, xi.b
    species = worlds._species(d, k)
    opposite = d.half if species is not d.half else d.complement()
    j_rows = overlap_rows(d.modulus, species)
    best_score, best = -1, []
    for a in d.modulus.units():
        ai = pow(a, -1, n)
        s = x * (1 - a) % n
        for b in range(n):
            rhs = (p.u * (1 - a) - b * (1 - p.v) * x) % n
            for t in range(n):
                if t * (1 - p.v) % n != rhs:
                    continue
                if ai * (k - b * x - t) % n not in opposite:
                    continue
                score = sum(j_rows[a][(b * y + t) % n] for y in range(n))
                if score > best_score:
                    best_score, best = score, []
                if score == best_score:
                    best.append(DualAffineMap(a, b, s, t, d.modulus))
    return sorted(best)


def reference_class_table(d: Dichotomy) -> tuple:
    """Slab k, cell (y, l): the pull-backs of 0+ek's symmetries carrying y+el into its species."""
    n = d.modulus.n
    slabs = []
    for k in range(n):
        pulls = [g.invert() for g in reference_symmetries(d, DualNumber(0, k, d.modulus))]
        species = worlds._species(d, k)
        slabs.append(bytes(
            sum(1 for g in pulls if (g.a * l + g.b * y + g.t) % n in species)
            for y in range(n)
            for l in range(n)
        ))
    return tuple(slabs)


@pytest.mark.parametrize("n", (6, 8, 10, 12))
def test_symmetries_match_the_reference_at_every_interval(n):
    modulus = Modulus(n)
    for d in strong_dichotomies(n):
        for x in range(n):
            for k in range(n):
                xi = DualNumber(x, k, modulus)
                assert counterpoint_symmetries(d, xi) == reference_symmetries(d, xi)


@pytest.mark.parametrize("n", (6, 8, 10, 12))
def test_symmetries_match_the_reference_on_the_affine_images(n):
    """The images carry polarities other than their representatives' own."""
    modulus = Modulus(n)
    for d in affine_images(n):
        for x in range(n):
            for k in range(n):
                xi = DualNumber(x, k, modulus)
                assert counterpoint_symmetries(d, xi) == reference_symmetries(d, xi)


@pytest.mark.parametrize("n", (14, 16))
def test_symmetries_match_the_reference_on_a_seeded_sample(n):
    """Marked and unmarked sources alike, at the moduli no full comparison reaches."""
    modulus = Modulus(n)
    rng = random.Random(101 * n)
    for _ in range(60):
        d = rng.choice(strong_dichotomies(n))
        xi = DualNumber(rng.randrange(n), rng.randrange(n), modulus)
        assert counterpoint_symmetries(d, xi) == reference_symmetries(d, xi)


@pytest.mark.parametrize("n", range(6, 17, 2))
def test_symmetries_are_translation_covariant(n):
    """The symmetries of x+ek are T_x g T_-x for the symmetries g of 0+ek."""
    modulus = Modulus(n)
    for d in strong_dichotomies(n):
        for k in range(n):
            at_zero = counterpoint_symmetries(d, DualNumber(0, k, modulus))
            for x in range(n):
                shift, back = DualAffineMap(1, 0, x, 0, modulus), DualAffineMap(1, 0, -x, 0, modulus)
                conjugated = sorted(shift.compose(g).compose(back) for g in at_zero)
                assert counterpoint_symmetries(d, DualNumber(x, k, modulus)) == conjugated


@pytest.mark.parametrize("n", range(6, 17, 2))
def test_class_table_is_byte_identical_to_the_reference(n):
    for d in strong_dichotomies(n) + affine_images(n):
        assert worlds._engine_class_table(d) == reference_class_table(d)


def test_affine_images_move_the_polarity():
    """The images exercise polarities e^u.v other than the representatives' own."""
    for n in range(10, 17, 2):
        pairs = zip(strong_dichotomies(n), affine_images(n))
        assert any(worlds._polarity_or_raise(d) != worlds._polarity_or_raise(i) for d, i in pairs)
    assert {worlds._polarity_or_raise(d).render() for d in (Dichotomy.fux(), Dichotomy.mystic())} == {
        "e^2.5", "e^9.11"
    }


@pytest.mark.parametrize("n", range(6, 17, 2))
def test_polarity_conjugates_the_symmetries_of_0_ek_onto_those_of_its_image(n):
    """P g P^-1 runs over the symmetries of 0+e(vk+u) as g runs over those of 0+ek."""
    modulus = Modulus(n)
    for d in strong_dichotomies(n) + affine_images(n):
        p = worlds._polarity_or_raise(d)
        polarity = local_polarity(d, 0)
        back = polarity.invert()
        for k in range(n):
            image = DualNumber(0, p.v * k + p.u, modulus)
            conjugated = sorted(
                polarity.compose(g).compose(back)
                for g in counterpoint_symmetries(d, DualNumber(0, k, modulus))
            )
            assert counterpoint_symmetries(d, image) == conjugated


@pytest.mark.parametrize("n", range(6, 17, 2))
def test_class_tables_satisfy_the_polarity_identity(n):
    """T[vk + u][v*d][v*l + u] = T[k][d][l] on the reference table and on the built world."""
    for d in strong_dichotomies(n) + affine_images(n):
        reference, world = reference_class_table(d), build_world(d)
        assert polarity_breaks(lambda k, dd, l: reference[k][n * dd + l], d) == 0
        assert polarity_breaks(lambda k, dd, l: world.count_at(0, k, dd, l), d) == 0


@pytest.mark.parametrize("n", (6, 8, 10, 12, 14))
def test_class_tables_are_invariant_under_unit_multiples_of_d(n):
    """T[k][w*d][l] = T[k][d][l] for every unit w.

    Each best (a, g, t) takes every b with gcd(b, n) = g, a set closed under
    units.  So the polarity identity's block move d -> v*d changes no byte,
    and the byte comparisons test only its lane move l -> v*l + u.
    """
    for d in strong_dichotomies(n) + affine_images(n):
        table = reference_class_table(d)
        for w in Modulus(n).units():
            moved = tuple(
                bytes(slab[n * (w * dd % n) + l] for dd in range(n) for l in range(n))
                for slab in table
            )
            assert moved == table


def test_only_the_frozen_mystic_table_breaks_the_polarity_identity():
    """The fitted mystic table breaks the identity in 700 of its 1728 classes; fux in none."""
    fux, mystic = Dichotomy.fux(), Dichotomy.mystic()
    fux_world = build_world(fux)
    assert polarity_breaks(lambda k, dd, l: fux_world.count_at(0, k, dd, l), fux) == 0
    assert polarity_breaks(mystic_class_count, mystic) == 700
    mystic_world = build_world(mystic)
    assert polarity_breaks(lambda k, dd, l: mystic_world.count_at(0, k, dd, l), mystic) == 700
    engine = worlds._engine_class_table(mystic)
    assert polarity_breaks(lambda k, dd, l: engine[k][12 * dd + l], mystic) == 0


@pytest.mark.parametrize("n", range(6, 17, 2))
def test_c3_score_closed_form_equals_the_direct_sum(n):
    """Each unit's candidates are its C2 solutions t, scored, ranked over b and admitting t + a*O."""
    modulus = Modulus(n)
    for d in strong_dichotomies(n) + affine_images(n):
        p = worlds._polarity_or_raise(d)
        for species, opposite in ((d.half, d.complement()), (d.complement(), d.half)):
            candidates = worlds._candidates(d, species)
            j_rows = overlap_rows(modulus, species)
            assert [(a, t) for a, t, _, _, _ in candidates] == [
                (a, t) for a in modulus.units() for t in range(n)
                if t * (1 - p.v) % n == p.u * (1 - a) % n
            ]
            for a, t, top, bs, admits in candidates:
                direct = [sum(j_rows[a][(b * y + t) % n] for y in range(n)) for b in range(n)]
                assert top == max(direct)
                assert bs == tuple(b for b in range(n) if direct[b] == top)
                assert admits == {(t + a * m) % n for m in opposite}


def test_a_source_that_no_candidate_reaches_has_no_symmetries(monkeypatch):
    """No strong class at n <= 16 has such a source; with no candidate every source is one."""
    d = Dichotomy.fux()
    monkeypatch.setattr(worlds, "_candidates", lambda d, species: ())
    for k in range(12):
        assert worlds._source_parts(d, k) == []
        assert counterpoint_symmetries(d, DualNumber(0, k, d.modulus)) == []
    assert worlds._engine_class_table(d) == (bytes(144),) * 12


def test_more_than_255_pullbacks_is_refused_not_wrapped(monkeypatch):
    def overflowing(d, k):
        return [(1, d.modulus.n, 0)] * 256

    monkeypatch.setattr(worlds, "_source_parts", overflowing)
    with pytest.raises(ValueError, match="256 pull-backs"):
        worlds._engine_class_table(Dichotomy.fux())
