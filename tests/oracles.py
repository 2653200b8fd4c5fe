"""Test oracles: the whole dual symmetry pool, the image of one dual number,
the local polarity of a strong dichotomy at a cantus, two independent
commutation checks, the composition of two ``ResidueAffineMap``s, the
set-based reference for the affine orbits of ``dichotomies`` (one
``ResidueAffineMap`` and one ``frozenset`` per image),
and the walk by its definition (``Random.choice`` over ``World.successors``
per step).

The package needs none of these; tests import them from here, as they do
``paper_witnesses``.
"""

import random
from itertools import combinations

import counterpoint
from counterpoint import (
    ChordEndomorphismReport,
    DeadEnd,
    Dichotomy,
    DichotomyClass,
    DualAffineMap,
    Modulus,
    NotStrong,
    ResidueAffineMap,
    StrengthCertificate,
    WalkResult,
)
from counterpoint.dichotomies import _CLASS_ALIASES


def enumerate_dual_symmetries(modulus: Modulus = Modulus()):
    """Yield every invertible dual affine self-map exactly once.

    For n = 12 this is the full 6912-element symmetry group of Z_12[eps].
    """
    for a in modulus.units():
        for b in modulus.residues():
            for s in modulus.residues():
                for t in modulus.residues():
                    yield DualAffineMap(a, b, s, t, modulus)


def image(g: DualAffineMap, base: int, eps: int) -> tuple:
    """(c, m) with g(base + e*eps) = c + e*m, by dual-number arithmetic."""
    n = g.modulus.n
    return (g.a * base + g.s) % n, (g.a * eps + g.b * base + g.t) % n


def local_polarity(d: Dichotomy, x: int) -> DualAffineMap:
    """Transport the polarity e^u.v of a strong dichotomy to cantus x.

    The result (c + em) -> (vc + (1-v)x) + e(vm + u) swaps the marked and
    unmarked interval species while fixing the cantus x itself, and is an
    involution on all n^2 dual numbers.  NotStrong unless d is strong.
    """
    cert = counterpoint.strength(d)
    if not cert.is_strong:
        raise NotStrong(f"dichotomy {d.render()} is not strong")
    p, n = cert.polarity, d.modulus.n
    return DualAffineMap(p.v, 0, (1 - p.v) * x % n, p.u, d.modulus)


def commutes_pointwise(g: DualAffineMap, pol: DualAffineMap) -> bool:
    """Check g(pol(z)) == pol(g(z)) on all n^2 dual numbers (early exit)."""
    n = g.modulus.n
    for c in range(n):
        for m in range(n):
            if image(g, *image(pol, c, m)) != image(pol, *image(g, c, m)):
                return False
    return True


def commutes_algebraic(g: DualAffineMap, pol: DualAffineMap) -> bool:
    """Check commutation by composing the two maps symbolically."""
    return g.compose(pol) == pol.compose(g)


def apply(m: ResidueAffineMap, x: int) -> int:
    """m(x) = v*x + u mod n."""
    return (m.v * x + m.u) % m.modulus.n


def compose(f: ResidueAffineMap, g: ResidueAffineMap) -> ResidueAffineMap:
    """The map x -> f(g(x)): g first, then f."""
    return ResidueAffineMap(f.u + f.v * g.u, f.v * g.v, f.modulus)


def apply_set(m: ResidueAffineMap, xs) -> frozenset:
    return frozenset(apply(m, x) for x in xs)


def all_maps(modulus: Modulus = Modulus()):
    """Every affine self-map (invertible or not): n*n maps."""
    for v in modulus.residues():
        for u in modulus.residues():
            yield ResidueAffineMap(u, v, modulus)


def invertible_maps(modulus: Modulus = Modulus()):
    for v in modulus.units():
        for u in modulus.residues():
            yield ResidueAffineMap(u, v, modulus)


def strength(d: Dichotomy) -> StrengthCertificate:
    comp = d.complement()
    stabilizer = []
    swaps = []
    for m in invertible_maps(d.modulus):
        image = apply_set(m, d.half)
        if image == d.half:
            stabilizer.append(m)
        elif image == comp:
            swaps.append(m)
    return StrengthCertificate(tuple(sorted(stabilizer)), tuple(sorted(swaps)))


def orbit(half: frozenset, modulus: Modulus) -> set:
    return {apply_set(m, half) for m in invertible_maps(modulus)}


def dichotomy_class(canonical: tuple, images: set, modulus: Modulus) -> DichotomyClass:
    alias = _CLASS_ALIASES.get(canonical) if modulus.n == 12 else None
    return DichotomyClass(canonical, len(images), alias)


def classify(d: Dichotomy) -> DichotomyClass:
    images = orbit(d.half, d.modulus)
    return dichotomy_class(min(tuple(sorted(image)) for image in images), images, d.modulus)


def half_set_orbits(modulus: Modulus) -> dict:
    """Canonical representative -> orbit, walking half-sets in lexicographic order."""
    visited: set = set()
    orbits: dict = {}
    for half in combinations(modulus.residues(), modulus.n // 2):
        hs = frozenset(half)
        if hs not in visited:
            orbits[half] = orbit(hs, modulus)
            visited |= orbits[half]
    return orbits


def strong_atlas(modulus: Modulus = Modulus()) -> list:
    group_order = modulus.n * len(modulus.units())
    residues = frozenset(modulus.residues())
    return [
        dichotomy_class(canonical, images, modulus)
        for canonical, images in half_set_orbits(modulus).items()
        if len(images) == group_order and residues - frozenset(canonical) in images
    ]


def all_class_orbit_sizes(modulus: Modulus = Modulus()) -> dict:
    return {c: len(images) for c, images in half_set_orbits(modulus).items()}


def chord_endomorphisms(chord, modulus: Modulus = Modulus()) -> ChordEndomorphismReport:
    chord_set = frozenset(modulus.reduce(c) for c in chord)
    if not chord_set:
        raise ValueError("chord must be nonempty")
    endos = [m for m in all_maps(modulus) if apply_set(m, chord_set) <= chord_set]
    linear_parts = tuple(sorted({m.v for m in endos}))
    verdict = False
    if len(linear_parts) == modulus.n // 2:
        verdict = strength(Dichotomy(frozenset(linear_parts), modulus)).is_strong
    return ChordEndomorphismReport(
        tuple(sorted(chord_set)),
        tuple(sorted(endos, key=lambda m: (m.v, m.u))),
        linear_parts,
        verdict,
    )


def reference_walk(w, start, length: int, seed: int) -> WalkResult:
    """The walk by its definition: ``rng.choice(w.successors(xi))[0]`` per step.

    DeadEnd when the start has no successor; a later dead end stops the walk
    with ``completed`` false and ``dead_end_at`` the steps taken.
    """
    if length < 0:
        raise ValueError(f"walk length must be non-negative, got {length}")
    if not w.successors(start):
        raise DeadEnd(f"interval {start.render()} has no valid successor")
    rng = random.Random(seed)
    path = [start]
    for i in range(length):
        options = w.successors(path[-1])
        if not options:
            return WalkResult(tuple(path), False, i)
        path.append(rng.choice(options)[0])
    return WalkResult(tuple(path), True, None)
