"""Dichotomies of Z_n: strength certificates, affine classification,
chord-endomorphism analysis, triad coverings, and whole-tone affinity.

A dichotomy splits the n pitch classes into two halves; the marked half K
plays the role of the consonances and its complement D the dissonances.
A dichotomy is *strong* when the identity is the only invertible affine
self-map fixing K setwise; a strong dichotomy may in addition possess a
unique *polarity*: an invertible affine map carrying K onto D.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import comb

from .residue_algebra import Modulus, ResidueAffineMap, _Value


class NotStrong(ValueError):
    """The operation requires a strong dichotomy."""


FUX_HALF = frozenset({0, 3, 4, 7, 8, 9})
MYSTIC_HALF = frozenset({0, 2, 4, 6, 8, 11})
PRESETS = {"fux": FUX_HALF, "mystic": MYSTIC_HALF}

EVEN_WHOLE_TONE = frozenset({0, 2, 4, 6, 8, 10})
ODD_WHOLE_TONE = frozenset({1, 3, 5, 7, 9, 11})

AUGMENTED = (0, 4, 8)
DIMINISHED = (0, 3, 6)
MAJOR = (0, 4, 7)
MINOR = (0, 3, 7)


def parse_pitch_class_set(text: str, modulus: Modulus = Modulus()) -> frozenset:
    """Parse a comma-separated residue list such as ``0,2,4,6,8,11``.

    Items are distinct residues in 0..n-1, spaces around them allowed.
    Preset names ``fux`` and ``mystic`` resolve to their half-sets when
    n = 12 and raise ValueError at any other n; "" parses to the empty set.
    """
    name = text.strip().lower()
    if name in PRESETS:
        if modulus.n != 12:
            raise ValueError(f"preset {name!r} is a set of residues mod 12, not mod {modulus.n}")
        return PRESETS[name]
    if not name:
        return frozenset()
    residues = set()
    try:
        for part in text.split(","):
            r = modulus.parse_residue(part.strip())
            if r in residues:
                raise ValueError(f"residue {r} listed twice")
            residues.add(r)
    except ValueError as exc:
        raise ValueError(f"malformed pitch-class set {text!r}: {exc}") from None
    return frozenset(residues)


class Dichotomy(_Value):
    """A marked half/half bipartition (K / D) of Z_n, its residues read by ``Modulus.reduce``."""

    __slots__ = ("half", "modulus")

    def __init__(self, half: frozenset, modulus: Modulus = Modulus()) -> None:
        half = frozenset(map(modulus.reduce, half))
        if len(half) * 2 != modulus.n:
            raise ValueError(
                f"marked half must contain exactly n/2 = {modulus.n // 2} "
                f"residues, got {sorted(half)}"
            )
        super().__init__(half, modulus)

    def complement(self) -> frozenset:
        return frozenset(self.modulus.residues()) - self.half

    def render(self) -> str:
        return ",".join(str(x) for x in sorted(self.half))

    @classmethod
    def parse(cls, text: str, modulus: Modulus = Modulus()) -> "Dichotomy":
        return cls(parse_pitch_class_set(text, modulus), modulus)

    @classmethod
    def fux(cls) -> "Dichotomy":
        return cls(FUX_HALF)

    @classmethod
    def mystic(cls) -> "Dichotomy":
        return cls(MYSTIC_HALF)


class StrengthCertificate(_Value):
    """Brute-force evidence for (non-)strength of a dichotomy."""

    __slots__ = ("stabilizer", "swaps")

    @property
    def is_strong(self) -> bool:
        """Trivial stabilizer and a (then automatically unique) half swap.

        Rigidity alone is not enough: a class with trivial stabilizer but no
        half-swapping map has no polarity and is not strong.  Conversely a
        trivial stabilizer forces uniqueness of the swap, since two swaps
        would compose to a nontrivial stabilizing map.
        """
        return len(self.stabilizer) == 1 and len(self.swaps) == 1

    @property
    def polarity(self) -> ResidueAffineMap | None:
        """The unique half-swapping map, when exactly one exists."""
        return self.swaps[0] if len(self.swaps) == 1 else None


def _mask(xs, n: int) -> int:
    """The n-bit mask of a residue set: residue x at bit n-1-x."""
    return sum([1 << (n - 1 - x) for x in xs])


def _residues(mask: int, n: int) -> tuple:
    """The sorted residues of a mask."""
    return tuple(x for x in range(n) if mask >> (n - 1 - x) & 1)


def _images(xs, n: int, linear) -> Iterator[tuple]:
    """(u, v, mask of {v*x + u : x in xs}) for v in ``linear``, u in Z_n; u rotates right."""
    full = (1 << n) - 1
    for v in linear:
        mask = _mask({v * x % n for x in xs}, n)
        for u in range(n):
            yield u, v, (mask >> u | mask << (n - u)) & full


def strength(d: Dichotomy) -> StrengthCertificate:
    """Filter the invertible affine maps: the stabilizer has m(K) = K, the swaps m(K) = D."""
    n = d.modulus.n
    half = _mask(d.half, n)
    found: dict = {half: [], half ^ ((1 << n) - 1): []}
    for u, v, image in _images(d.half, n, d.modulus.units()):
        if image in found:
            found[image].append(ResidueAffineMap(u, v, d.modulus))
    return StrengthCertificate(*(tuple(sorted(maps)) for maps in found.values()))


class DichotomyClass(_Value):
    """Affine equivalence class of a half-set."""

    __slots__ = ("canonical_representative", "orbit_size", "alias")

    def __init__(self, canonical_representative, orbit_size, alias=None) -> None:
        super().__init__(canonical_representative, orbit_size, alias)


def _orbit(xs, n: int, units) -> set:
    """The masks of a residue set's invertible affine images that contain 0: half its orbit.

    For each unit v they are the n/2 rotations of v*xs that carry some v*x to 0.
    """
    full = (1 << n) - 1
    orbit = set()
    for v in units:
        ys = [v * x % n for x in xs]
        twice = _mask(ys, n) * (full + 2)  # the mask beside a copy of itself
        orbit.update([twice >> (n - y) % n & full for y in ys])
    return orbit


# The mystic class's canonical representative, kept as a literal; a test recomputes it.
_MYSTIC_CANONICAL = (0, 1, 2, 4, 6, 10)

# Class aliases for n = 12: the mystic chord's class (number 78 in the
# standard catalogue of twelve-tone set classes) and the Fuxian consonances,
# whose canonical representative is that of classify(Dichotomy.fux()).
# Other strong classes are reported by canonical representative only.
_CLASS_ALIASES = {_MYSTIC_CANONICAL: "78 (mystic)", (0, 1, 2, 5, 6, 9): "Fux"}


def _dichotomy_class(canonical: tuple, orbit: set, modulus: Modulus) -> DichotomyClass:
    """The class whose images containing 0 (half its orbit) are ``orbit``, with its n = 12 alias."""
    alias = _CLASS_ALIASES.get(canonical) if modulus.n == 12 else None
    return DichotomyClass(canonical, 2 * len(orbit), alias)


def classify(d: Dichotomy) -> DichotomyClass:
    """The orbit's largest mask is its lexicographically smallest sorted half."""
    orbit = _orbit(d.half, d.modulus.n, d.modulus.units())
    return _dichotomy_class(_residues(max(orbit), d.modulus.n), orbit, d.modulus)


def _half_set_orbits(modulus: Modulus) -> dict:
    """Canonical representative's mask -> the orbit's images containing 0, per class of half-sets.

    Half-set masks are walked downward (their complements upward, by Gosper's
    rule), which is the lexicographic order of their sorted residues, skipping
    those already seen; so each orbit is met once, at its canonical representative.
    That mask holds 0 (bit n-1), and each orbit's images holding 0 are marked seen, so
    the walk stops once all C(n-1, n/2-1) halves holding 0 are seen.
    """
    n = modulus.n
    full = (1 << n) - 1
    low = (1 << n // 2) - 1
    units = modulus.units()
    visited: set = set()
    orbits: dict = {}
    halves_with_0 = comb(n - 1, n // 2 - 1)
    while len(visited) < halves_with_0:
        half = full ^ low
        if half not in visited:
            orbits[half] = _orbit(_residues(half, n), n, units)
            visited |= orbits[half]
        bit = low & -low
        low = ((((low + bit) ^ low) >> 2) // bit) | (low + bit)
    return orbits


def strong_atlas(modulus: Modulus = Modulus()) -> list:
    """Group all C(n, n/2) half-sets into affine classes; return the strong ones.

    Strength is read from the orbit by orbit-stabilizer: the stabilizer is
    trivial iff the orbit has all n*phi(n) images, and then exactly one map
    swaps the halves iff the complement lies in the orbit.  Only the images
    containing 0 are kept, half the orbit: it is full iff they number n*phi(n)/2,
    and holds the complement iff they hold its rotation with its smallest residue at 0.
    """
    n = modulus.n
    group_order = n * len(modulus.units())
    return [
        _dichotomy_class(_residues(half, n), orbit, modulus)
        for half, orbit in _half_set_orbits(modulus).items()
        if 2 * len(orbit) == group_order
        and (rest := half ^ ((1 << n) - 1)) << (n - rest.bit_length()) in orbit
    ]


def all_class_orbit_sizes(modulus: Modulus = Modulus()) -> dict:
    """Canonical representative -> orbit size, over every half-set class."""
    n = modulus.n
    return {_residues(half, n): 2 * len(orbit) for half, orbit in _half_set_orbits(modulus).items()}


class ChordEndomorphismReport(_Value):
    """All affine self-maps (invertible or not) sending a chord into itself."""

    __slots__ = ("chord", "endomorphisms", "linear_parts", "strong_verdict")


def _chord_set(chord: Iterable, modulus: Modulus) -> frozenset:
    """A chord's tones as residues mod n, each read through ``modulus.reduce``."""
    return frozenset(map(modulus.reduce, chord))


def chord_endomorphisms(chord: Iterable, modulus: Modulus = Modulus()) -> ChordEndomorphismReport:
    """Brute-force the full n*n endomorphism monoid of a chord.

    Maps come in (v, u) order.  ``strong_verdict`` is true iff the linear
    parts form a half-set whose dichotomy is strong.
    """
    chord_set = _chord_set(chord, modulus)
    if not chord_set:
        raise ValueError("chord must be nonempty")
    n = modulus.n
    inside = _mask(chord_set, n)
    endos = [
        ResidueAffineMap(u, v, modulus)
        for u, v, image in _images(chord_set, n, modulus.residues())
        if image | inside == inside
    ]
    linear_parts = tuple(sorted({m.v for m in endos}))
    verdict = len(linear_parts) == n // 2 and strength(Dichotomy(linear_parts, modulus)).is_strong
    return ChordEndomorphismReport(tuple(sorted(chord_set)), tuple(endos), linear_parts, verdict)


class TriadCoverReport(_Value):
    """Translates of the four classical triads contained in a chord.

    ``minor_major_near_covers`` holds triples (minor translate, major
    translate, leftover tones) where the union of the two triads covers the
    chord except for one tone.
    """

    __slots__ = ("chord", "augmented", "diminished", "major", "minor", "minor_major_near_covers")


def _contained_translates(shape: tuple, inside: int, n: int) -> tuple:
    found = {image for _, _, image in _images(shape, n, (1,)) if image | inside == inside}
    return tuple(_residues(image, n) for image in sorted(found, reverse=True))


def triad_covers(chord: Iterable, modulus: Modulus = Modulus()) -> TriadCoverReport:
    chord_set = _chord_set(chord, modulus)
    n = modulus.n
    inside = _mask(chord_set, n)
    shapes = (AUGMENTED, DIMINISHED, MAJOR, MINOR)
    aug, dim, maj, mino = (_contained_translates(shape, inside, n) for shape in shapes)
    near = []
    for m_triad in mino:
        for j_triad in maj:
            leftover = chord_set - frozenset(m_triad) - frozenset(j_triad)
            if len(leftover) == 1:
                near.append((m_triad, j_triad, tuple(sorted(leftover))))
    return TriadCoverReport(tuple(sorted(chord_set)), aug, dim, maj, mino, tuple(sorted(near)))


def whole_tone_affinity(chord: Iterable) -> tuple:
    """(|chord ∩ even whole-tone|, |chord ∩ odd whole-tone|), pitch classes mod 12."""
    chord_set = _chord_set(chord, Modulus())
    return (len(chord_set & EVEN_WHOLE_TONE), len(chord_set & ODD_WHOLE_TONE))


def mystic_parity(chord: Iterable) -> str:
    """Classify a chord (pitch classes mod 12) as an EVEN or ODD mystic form, or neither.

    EVEN means the chord lies in the mystic affine class and shares five
    tones with the even whole-tone scale; ODD likewise with the odd scale.
    """
    chord_set = _chord_set(chord, Modulus())
    if len(chord_set) != 6:
        return "NotMysticForm"
    if classify(Dichotomy(chord_set)).canonical_representative != _MYSTIC_CANONICAL:
        return "NotMysticForm"
    even, odd = whole_tone_affinity(chord_set)
    return "EVEN" if even == 5 else "ODD" if odd == 5 else "NotMysticForm"
