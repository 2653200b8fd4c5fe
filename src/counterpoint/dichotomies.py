"""Dichotomies of Z_n: strength certificates, affine classification,
and chord-endomorphism analysis.

A dichotomy splits the n pitch classes into two halves; the marked half K
plays the role of the consonances and its complement D the dissonances.
A dichotomy is *strong* when the identity is the only invertible affine
self-map fixing K setwise; a strong dichotomy may in addition possess a
unique *polarity*: an invertible affine map carrying K onto D.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import comb

from .residue_algebra import _TWELVE, Modulus, ResidueAffineMap, _Value


class NotStrong(ValueError):
    """The operation requires a strong dichotomy."""


FUX_HALF = frozenset({0, 3, 4, 7, 8, 9})
MYSTIC_HALF = frozenset({0, 2, 4, 6, 8, 11})
PRESETS = {"fux": FUX_HALF, "mystic": MYSTIC_HALF}

EVEN_WHOLE_TONE = frozenset({0, 2, 4, 6, 8, 10})


def parse_pitch_class_set(text: str) -> frozenset:
    """Parse a comma-separated list of residues mod 12 such as ``0,2,4,6,8,11``.

    Items are distinct residues in 0..11, spaces around them allowed.
    Preset names ``fux`` and ``mystic`` resolve to their half-sets; ""
    parses to the empty set.
    """
    name = text.strip().lower()
    if name in PRESETS:
        return PRESETS[name]
    if not name:
        return frozenset()
    residues = set()
    try:
        for part in text.split(","):
            r = _TWELVE.parse_residue(part.strip())
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
    def parse(cls, text: str) -> "Dichotomy":
        """A dichotomy of Z_12 from a pitch-class list or preset name."""
        return cls(parse_pitch_class_set(text))

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


def _residues(mask: int) -> tuple:
    """The sorted residues of a mask that holds 0: its binary digits are its n bits."""
    return tuple([x for x, digit in enumerate(bin(mask), -2) if digit == "1"])


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


def _unit_tables(modulus: Modulus) -> list:
    """Per unit v, the list of bits 1 << (n-1 - v*x mod n) over the residues x.

    Entry x of the list for v is x's bit in the mask of v*K.  Each call of
    ``classify`` or the atlas builds the lists once, and the atlas reads
    them for every class.
    """
    n = modulus.n
    return [[1 << (n - 1 - v * x % n) for x in range(n)] for v in modulus.units()]


def _orbit(xs, n: int, tables: list) -> set:
    """The residue set's invertible affine images that contain 0: half its orbit.

    For each unit v they are the n/2 rotations of v*xs that carry some v*x to 0.
    The mask of v*xs is the sum of its bits in ``tables``.  The rotation that
    carries v*x to 0 shifts the doubled mask right by n - v*x mod n: a floor
    division of half the doubled mask by v*x's bit.  Every such image holds 0
    at bit n-1, so each is kept as its mask without that bit, an (n-1)-bit
    integer: the mask of its other residues.
    """
    beside = (1 << n) + 1  # a mask times this is the mask beside a copy of itself
    others = (1 << n - 1) - 1
    return {
        twice // bit[x] & others
        for bit in tables
        for twice in [sum(map(bit.__getitem__, xs)) * beside >> 1]
        for x in xs
    }


# Class aliases for n = 12, keyed by canonical representative: the mystic
# chord's class (number 78 in the standard catalogue of twelve-tone set
# classes) and the Fuxian consonances. Both keys are literals; a test
# recomputes them from the presets.
# Other strong classes are reported by canonical representative only.
_CLASS_ALIASES = {(0, 1, 2, 4, 6, 10): "78 (mystic)", (0, 1, 2, 5, 6, 9): "Fux"}


def _dichotomy_class(canonical: tuple, orbit_size: int, modulus: Modulus) -> DichotomyClass:
    """The class of ``canonical`` with its orbit size, and its alias at n = 12."""
    alias = _CLASS_ALIASES.get(canonical) if modulus.n == 12 else None
    return DichotomyClass(canonical, orbit_size, alias)


def classify(d: Dichotomy) -> DichotomyClass:
    """The orbit's largest mask is its lexicographically smallest sorted half."""
    n = d.modulus.n
    orbit = _orbit(d.half, n, _unit_tables(d.modulus))
    return _dichotomy_class(_residues(1 << n - 1 | max(orbit)), 2 * len(orbit), d.modulus)


def _unclassed(n: int) -> bytearray:
    """A byte per (n-1)-bit mask: 0 where it holds n/2 - 1 residues, 1 elsewhere.

    Indexed by a half-set's mask without bit n-1, its zeros are the
    C(n-1, n/2-1) half-sets that contain 0.  It is built from the bit counts
    of all k-bit masks, doubled n-1 times: setting bit k adds one.
    """
    counts = bytearray(1)
    plus_one = bytes(range(1, 256)) + bytes(1)
    for _ in range(n - 1):
        counts += counts.translate(plus_one)
    flag = bytearray(b"\1") * 256
    flag[n // 2 - 1] = 0
    return counts.translate(flag)


def _half_set_classes(modulus: Modulus) -> list:
    """(canonical representative, orbit size, whether the orbit holds the complement) per class.

    Classes come in the order of their canonical representatives: the
    lexicographic order of sorted residues, which is the mask order downward.
    ``_unclassed`` holds a 0 for each half-set that contains 0 and is not yet
    classed, so its highest 0 (one ``rfind``) is the largest mask of an
    unclassed orbit: its canonical representative.  Each class marks its
    orbit there and drops it once the three facts are read.  Orbits are
    disjoint, so the count of halves left falls by each orbit's size and the
    walk stops at zero.  The complement is looked up rotated to put its
    smallest residue at 0, without bit n-1 as in ``_orbit``.
    """
    n = modulus.n
    top = 1 << n - 1
    tables = _unit_tables(modulus)
    unclassed = _unclassed(n)
    left = comb(n - 1, n // 2 - 1)
    classes = []
    rest = top
    while left:
        rest = unclassed.rfind(0, 0, rest)
        xs = _residues(top | rest)
        orbit = _orbit(xs, n, tables)
        others = rest ^ (top - 1)  # the complement: it lacks 0
        swaps = (others << n - others.bit_length()) ^ top in orbit
        classes.append((xs, 2 * len(orbit), swaps))
        for image in orbit:
            unclassed[image] = 1
        left -= len(orbit)
    return classes


def strong_atlas(modulus: Modulus = Modulus()) -> list:
    """Group all C(n, n/2) half-sets into affine classes; return the strong ones.

    Strength is read from the orbit by orbit-stabilizer: the stabilizer is
    trivial iff the orbit has all n*phi(n) images, and then exactly one map
    swaps the halves iff the complement lies in the orbit.
    """
    group_order = modulus.n * len(modulus.units())
    return [
        _dichotomy_class(canonical, size, modulus)
        for canonical, size, swaps in _half_set_classes(modulus)
        if size == group_order and swaps
    ]


def all_class_orbit_sizes(modulus: Modulus = Modulus()) -> dict:
    """Canonical representative -> orbit size, over every half-set class."""
    return {canonical: size for canonical, size, _ in _half_set_classes(modulus)}


class ChordEndomorphismReport(_Value):
    """All affine self-maps (invertible or not) sending a chord into itself."""

    __slots__ = ("chord", "endomorphisms", "linear_parts", "strong_verdict")


def chord_endomorphisms(chord: Iterable, modulus: Modulus = Modulus()) -> ChordEndomorphismReport:
    """Brute-force the full n*n endomorphism monoid of a chord.

    Maps come in (v, u) order.  ``strong_verdict`` is true iff the linear
    parts form a half-set whose dichotomy is strong.
    """
    chord_set = frozenset(map(modulus.reduce, chord))
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
