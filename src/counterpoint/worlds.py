"""Counterpoint worlds over the dual-number plane Z_n[eps].

A *world* for a strong dichotomy assigns to every step xi -> eta between
contrapuntal intervals the number of symmetries mediating it, yielding a
144 x 144 count matrix (at n = 12), its step-count histogram, exact moment
and overlap statistics, scale restrictions, and seeded random walks.
Intervals handed in meet the one mixed-moduli check and intervals handed
out come from the one shared plane, both in ``residue_algebra``.

Symmetries mediating a step are drawn from the 6912-element group of
invertible dual affine maps.  For a source interval xi = x + ek of species
S (the marked half K if k is marked, else the complement D):

  * candidate pool: maps g = (a, b, s, t) that preserve the cantus fiber,
    i.e. s = x(1 - a) mod n, so g fixes the cantus x;
  * C2 (commutation): g commutes with the local polarity at x, which on
    the fiber pool reduces to t(1 - v) = u(1 - a) - b(1 - v)x mod n;
  * C1 (deformation): the preimage of xi under g has its interval part in
    the opposite species;
  * C3 (maximality): |g(S[eps]) cap S[eps]| is maximal among candidates
    passing C1 and C2.

The engine solves cantus 0 only.  There s = 0, and no filter depends on b:
C2 reads t(1 - v) = u(1 - a), and C1 asks a^-1(k - t) to lie in the
opposite species O, that is k in t + a*O.  The C3 score of a candidate is
sum_y J[a][(b*y + t) mod n] with J[a][w] = |(a*S + w) cap S|; as y -> b*y
covers the multiples of g = gcd(b, n) g times each, it equals
g * sum_{j < n/g} J[a][(t mod g) + j*g].  One candidate table per species
holds, for each unit a and each t solving C2, the top C3 score, every b
reaching it and the sources t + a*O it admits.  C1 does not involve b, so
the symmetries of 0+ek are the candidates admitting k whose top score is
the best among them, each with every b at its top.

Every other cantus is reached by conjugating with the translation by x,
which carries the fiber pool, the transported polarity and both species
onto themselves: the symmetries of x+ek are (a, b, x(1 - a), t - b*x) for
the symmetries (a, b, 0, t) of 0+ek.

The count of a step xi -> eta is the number of surviving symmetries whose
preimage of eta has interval part back in the source species S.

So a count depends only on the translation class (k, d, l) with d = y - x,
and every world is built from its n^3 class table T[k][d][l] =
count(0+ek -> d+el) and expanded to the n^2 x n^2 count matrix.  The
symmetry (a, b, 0, t) maps a^-1*y + em to y + e(a*m + b*y/a + t), and b/a
runs over the same b as b does, so block y of a marked source's slab is
summed from species rows: each symmetry adds R_a[(b*y + t) mod n], whose
byte lane l says whether l lies in a*S + (b*y + t).  Block y depends only
on gcd(y, n), so one block is summed per divisor of n.

Only the n/2 marked sources are solved.  Conjugating by the local polarity
at cantus 0, P(c + em) = vc + e(vm + u), preserves C2, C1 and C3 and the
pull-back count, so T[vk + u][v*d][v*l + u] = T[k][d][l]; as block v*d is
block d, the slab of the unmarked source 0+e(vk + u) is slab k with lane l
of each distinct block moved to v*l + u.  Each count-matrix row is a
rotation of one slab, so the histogram is n times that of the class table.
``counterpoint_symmetries`` and ``step_count`` apply the same rule to the
source itself, marked or not, as an independent recount of the table.

Every preset build is gated on its class table, before the table is
expanded: the Fuxian table is computed by this engine and must reproduce its
frozen histogram and worked steps; the mystic world's class table is the
frozen step-class table, and it is re-checked against its histogram.  A
mismatch raises GateFailure instead of returning a world.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, sqrt
from operator import itemgetter

from .dichotomies import (
    FUX_HALF,
    MYSTIC_HALF,
    Dichotomy,
    NotStrong,
    strength,
)
from .model_tables import (
    EXPECTED_STEP_HISTOGRAMS,
    FUX_MODEL_VARIANT,
    MYSTIC_MODEL_VARIANT,
    MYSTIC_SD_NOTE,
    MYSTIC_STEP_TABLE,
    WORKED_STEPS,
)
from .residue_algebra import (
    DualAffineMap,
    DualNumber,
    Modulus,
    _ModelError,
    _plane,
    _require_same_modulus,
    _Value,
)
from .stats import _moments


class GateFailure(RuntimeError):
    """A preset world build failed its frozen calibration fingerprints."""


class DeadEnd(RuntimeError, _ModelError):
    """The walk's start interval has no valid successor."""


@lru_cache(maxsize=None)
def _polarity_or_raise(d: Dichotomy):
    cert = strength(d)
    if not cert.is_strong:
        raise NotStrong(
            f"dichotomy {d.render()} is not strong with a polarity; "
            f"stabilizer size {len(cert.stabilizer)}, swaps {len(cert.swaps)}"
        )
    return cert.polarity


def _species(d: Dichotomy, k: int) -> frozenset:
    return d.half if d.modulus.reduce(k) in d.half else d.complement()


@lru_cache(maxsize=None)
def _candidates(d: Dichotomy, species: frozenset) -> tuple:
    """(a, t, top, bs, admits) for every unit a and every t solving C2 for a.

    C2 reads t(1 - v) = u(1 - a) mod n.  ``top`` is the best C3 score
    sum_y J[a][(b*y + t) mod n] of (a, b, t) over b, with
    J[a][w] = |(a*species + w) cap species|, and ``bs`` every b reaching it,
    ascending: y -> b*y covers the multiples of g = gcd(b, n), each g times,
    so b scores g * sum_{j < n/g} J[a][(t mod g) + j*g].  ``admits`` is
    t + a*O, O the opposite species: the sources whose C1 the candidate passes.
    """
    p = _polarity_or_raise(d)
    n = d.modulus.n
    opposite = frozenset(range(n)) - species
    gcds = [gcd(b, n) for b in range(n)]
    candidates = []
    for a in d.modulus.units():
        scaled = [(a * m) % n for m in species]
        j_row = [sum(1 for m in scaled if (m + w) % n in species) for w in range(n)]
        for t in range(n):
            if t * (1 - p.v) % n != p.u * (1 - a) % n:
                continue
            scores = [g * sum(j_row[t % g :: g]) for g in gcds]
            top = max(scores)
            bs = tuple(b for b, score in enumerate(scores) if score == top)
            candidates.append((a, t, top, bs, frozenset((t + a * m) % n for m in opposite)))
    return tuple(candidates)


def _source_parts(d: Dichotomy, k: int) -> list:
    """(a, b, t) of every symmetry (a, b, 0, t) of 0+ek, unsorted.

    C1 keeps the candidates (:func:`_candidates`) of k's species that admit
    k, and C3 those of them with the best top score, each with every b tied
    at its top.  A source no candidate admits gets an empty list.
    """
    best, parts = -1, []
    for a, t, top, bs, admits in _candidates(d, _species(d, k)):
        if k in admits and top >= best:
            if top > best:
                best, parts = top, []
            parts += [(a, b, t) for b in bs]
    return parts


def counterpoint_symmetries(d: Dichotomy, xi: DualNumber) -> list:
    """All symmetries for the interval xi: fiber pool + C2 + C1 + C3.

    The symmetries of x+ek are those of 0+ek conjugated by the translation
    by x, (a, b, 0, t) -> (a, b, x(1 - a), t - b*x).  Returned maps are
    sorted; the step count toward a successor eta is the number of them
    whose preimage of eta has its interval part in xi's species — see
    :func:`step_count`.
    """
    _require_same_modulus(xi.modulus, d.modulus)
    m = d.modulus
    n, x = m.n, xi.a
    parts = _source_parts(d, xi.b)
    return [
        DualAffineMap(a, b, s, t, m)
        for a, b, s, t in sorted((a, b, x * (1 - a) % n, (t - b * x) % n) for a, b, t in parts)
    ]


def step_count(d: Dichotomy, xi: DualNumber, eta: DualNumber) -> int:
    """Number of symmetries of xi mapping a source-species interval onto eta.

    The pull-back g^-1 carries eta = y+el to an interval part a*l + b*y + t.
    """
    _require_same_modulus(eta.modulus, d.modulus)  # counterpoint_symmetries checks xi
    species = _species(d, xi.b)
    n = d.modulus.n
    pulls = [g.invert() for g in counterpoint_symmetries(d, xi)]
    return sum(1 for g in pulls if (g.a * eta.b + g.b * eta.a + g.t) % n in species)


class RestrictionMode(Enum):
    CANTUS_ONLY = "CANTUS_ONLY"
    BOTH_VOICES = "BOTH_VOICES"


@dataclass(frozen=True)
class World:
    """Per-step symmetry counts for a strong dichotomy.

    ``counts`` holds n^2 rows of n^2 bytes; row index n*x + k, column
    index n*y + l for the step x+ek -> y+el.  The successor table derived
    from it is cached on first use; ``dataclasses.replace`` does not carry
    it over, so a world with new counts gets a new table.
    """

    dichotomy: Dichotomy
    label: str
    variant: str
    counts: tuple
    histogram: dict

    @property
    def modulus(self) -> Modulus:
        return self.dichotomy.modulus

    def count(self, xi: DualNumber, eta: DualNumber) -> int:
        n = self.modulus.n
        _require_same_modulus(xi.modulus, self.modulus)
        _require_same_modulus(eta.modulus, self.modulus)
        return self.counts[n * xi.a + xi.b][n * eta.a + eta.b]

    def count_at(self, x: int, k: int, y: int, l: int) -> int:
        n, reduce = self.modulus.n, self.modulus.reduce
        return self.counts[n * reduce(x) + reduce(k)][n * reduce(y) + reduce(l)]

    @property
    def total_steps(self) -> int:
        return self.modulus.n ** 4

    @property
    def valid_step_count(self) -> int:
        return self.total_steps - self.histogram.get(0, 0)

    def intervals(self):
        return iter(_plane(self.modulus))

    def successors(self, xi: DualNumber) -> list:
        """Valid successors of xi with their counts, sorted by (cantus, interval)."""
        _require_same_modulus(xi.modulus, self.modulus)
        i = self.modulus.n * xi.a + xi.b
        plane, row = _plane(self.modulus), self.counts[i]
        return [(plane[col], row[col]) for col in self._successor_table[i][0]]

    @cached_property
    def _successor_table(self) -> tuple:
        """Per row of ``counts``: (its nonzero columns, their number, its bit_length())."""
        table = []
        for row in self.counts:
            cols = tuple(col for col, c in enumerate(row) if c)
            table.append((cols, len(cols), len(cols).bit_length()))
        return tuple(table)


def score_against_world(seq, world: World) -> list[int]:
    """Per-step symmetry counts, in order, read from the world matrix.

    ``seq`` is a TransitionSequence.  Both ends of every step must carry the
    world's modulus; each distinct modulus in the sequence is checked once.
    """
    n = world.modulus.n
    for other in {end.modulus.n for step in seq.steps for end in step} - {n}:
        _require_same_modulus(Modulus(other), world.modulus)
    rows = world.counts
    return [rows[n * a.a + a.b][n * b.a + b.b] for a, b in seq.steps]


def _histogram(slabs: Sequence[bytes], n: int, pad_to: int) -> dict:
    """Step-count frequencies of the world with class table ``slabs``.

    Every count-matrix row is a rotation of one slab, so each bin is n
    times the class table's.  Bins run from 0 up to the largest count (at
    least pad_to); counting stops once every cell is counted, so the
    largest count is the last bin with mass and needs no scan of its own.
    """
    flat = b"".join(slabs)
    histogram = {}
    mass = c = 0
    while mass < len(flat) or c <= pad_to:
        cells = flat.count(c)
        histogram[c] = n * cells
        mass += cells
        c += 1
    return histogram


def _engine_class_table(d: Dichotomy) -> tuple:
    """Slab k holds T[k][n*d + l] = count(0+ek -> d+el) as n^2 bytes.

    The n/2 marked sources, of species S, each take their symmetries from
    :func:`_source_parts`.  Block y of marked slab k adds, for each
    symmetry (a, b, 0, t), the row R_a[(b*y + t) mod n], whose byte lane l
    says whether l lies in a*S + (b*y + t) (see the module docstring).
    R_a[c] is a shift of one integer per unit a read, the lanes of a*S
    twice over.  Rows are added as integers, one byte lane per l; a lane
    cannot carry past 255 pull-backs.  Block y equals block gcd(y, n)
    (T[k][w*y][l] = T[k][y][l] for every unit w), so only the blocks y = g
    for the divisors g of n are summed, block n standing for block 0.

    The polarity identity T[vk + u][v*d][v*l + u] = T[k][d][l] with block
    v*d equal to block d makes the unmarked slab vk + u slab k with the
    lanes of each distinct block moved, l -> v*l + u.
    """
    p = _polarity_or_raise(d)
    n, u, v = d.modulus.n, p.u, p.v
    half = d.half
    divisors = [g for g in range(1, n + 1) if n % g == 0]
    layout = itemgetter(*[gcd(y, n) for y in range(n)])
    # Lane v*l + u of a polarity image reads lane l of its source.
    vi = pow(v, -1, n)
    lanes = itemgetter(*[vi * (l - u) % n for l in range(n)])
    # R_a[c] is the low n lanes of spread[a] shifted right by c lanes.
    full = (1 << 8 * n) - 1
    by_source = {k: _source_parts(d, k) for k in half}
    spread = {
        a: sum(1 << 8 * (n - 1 - a * m % n) for m in half) * (full + 2)
        for a in {a for parts in by_source.values() for a, _, _ in parts}
    }
    slabs = [b""] * n
    for k, parts in by_source.items():
        if len(parts) > 255:
            raise ValueError(f"{len(parts)} pull-backs of 0+e{k} overflow a byte count")
        blocks = {}
        for g in divisors:
            total = sum(spread[a] >> 8 * ((b * g + t) % n) & full for a, b, t in parts)
            blocks[g] = total.to_bytes(n, "big")
        slabs[k] = b"".join(layout(blocks))
        images = {g: bytes(lanes(block)) for g, block in blocks.items()}
        slabs[(v * k + u) % n] = b"".join(layout(images))
    return tuple(slabs)


def _expand(slabs: Sequence[bytes], n: int) -> tuple:
    """Count matrix rows from a class table: row (x, k) is slab k rotated by x blocks.

    Each row is one n*n-byte slice of its slab beside a copy of itself, from block n - x.
    """
    size = n * n
    twice = [slab + slab for slab in slabs]
    return tuple([pair[cut : cut + size] for cut in range(size, 0, -n) for pair in twice])


def _gate(label: str, n: int, slabs: Sequence[bytes], histogram: dict, expected: dict) -> None:
    """Check a preset's class table before expansion: x+ek -> y+el is T[k][(y - x) mod n][l]."""
    if histogram != expected:
        raise GateFailure(
            f"{label} world failed its calibration gate: histogram {histogram} "
            f"!= expected {expected}"
        )
    for ((x, k), (y, l)), want in WORKED_STEPS.get(label, {}).items():
        got = slabs[k][n * ((y - x) % n) + l]
        if got != want:
            raise GateFailure(
                f"{label} world failed its calibration gate: step "
                f"{x}+e{k} -> {y}+e{l} has count {got}, expected {want}"
            )


def build_world(d: Dichotomy) -> World:
    """Build the full count matrix and histogram for a strong dichotomy.

    The class table comes from the engine, or for the mystic preset from the
    frozen step-class table.  The two presets' tables are validated against
    their frozen fingerprints (GateFailure on mismatch) before the table is
    expanded to the matrix; other strong dichotomies are computed by the
    engine without a calibration gate.
    """
    n = d.modulus.n
    if n == 12 and d.half == MYSTIC_HALF:
        label, variant, slabs = "mystic", MYSTIC_MODEL_VARIANT, MYSTIC_STEP_TABLE
    else:
        label = "fux" if n == 12 and d.half == FUX_HALF else d.render()
        variant = FUX_MODEL_VARIANT
        slabs = _engine_class_table(d)
    expected = EXPECTED_STEP_HISTOGRAMS.get(label)
    histogram = _histogram(slabs, n, pad_to=max(expected) if expected else 0)
    if expected:
        _gate(label, n, slabs, histogram, expected)
    return World(d, label, variant, _expand(slabs, n), histogram)


class WorldMoments(_Value):
    __slots__ = ("mean", "variance", "sd", "note")


def world_moments(w: World) -> WorldMoments:
    """Exact mean and population variance of the step-count distribution, from its histogram."""
    _, mean, variance = _moments(w.histogram, "world histogram has no mass")
    note = MYSTIC_SD_NOTE if w.label == "mystic" else None
    return WorldMoments(mean, variance, sqrt(variance), note)


class WorldOverlap(_Value):
    __slots__ = ("p_a", "p_b", "p_ab")

    @property
    def gap(self) -> Fraction:
        return abs(self.p_ab - self.p_a * self.p_b)


def world_overlap(a: World, b: World) -> WorldOverlap:
    """Exact valid-step probabilities of two worlds and of their conjunction."""
    _require_same_modulus(a.modulus, b.modulus)
    total = a.total_steps
    both = sum(1 for ra, rb in zip(a.counts, b.counts) for ca, cb in zip(ra, rb) if ca and cb)
    return WorldOverlap(
        Fraction(a.valid_step_count, total),
        Fraction(b.valid_step_count, total),
        Fraction(both, total),
    )


class ScaleRestrictionReport(_Value):
    """Marked-to-marked steps inside a scale, and which of them are forbidden.

    Forbidden items are reported at two granularities: individual steps
    (x+ek -> y+el) and translation classes (k, d, l) with d = (y-x) mod n.
    """

    __slots__ = (
        "scale", "mode", "restricted_step_count", "forbidden_steps", "forbidden_classes"
    )

    @property
    def forbidden_step_count(self) -> int:
        return len(self.forbidden_steps)

    @property
    def forbidden_class_count(self) -> int:
        return len(self.forbidden_classes)


def scale_restriction_report(
    w: World, scale, mode: RestrictionMode
) -> ScaleRestrictionReport:
    """Restrict marked-to-marked steps to a scale and list the forbidden ones.

    CANTUS_ONLY keeps steps whose cantus pitches lie in the scale;
    BOTH_VOICES additionally requires both upper-voice pitches
    (cantus + interval) to lie in the scale.
    """
    n = w.modulus.n
    scale = tuple(sorted({w.modulus.reduce(p) for p in scale}))
    mode = RestrictionMode(mode)
    both = mode is RestrictionMode.BOTH_VOICES
    # Voices x+ek as indices n*x + k in (x, k) order: forbidden steps come in (x, k, y, l) order.
    voices = [
        n * x + k for x in scale for k in sorted(w.dichotomy.half)
        if not both or (x + k) % n in scale
    ]
    plane = _plane(w.modulus)
    forbidden = tuple((plane[i], plane[j]) for i in voices for j in voices if w.counts[i][j] == 0)
    classes = {(src.b, (dst.a - src.a) % n, dst.b) for src, dst in forbidden}
    return ScaleRestrictionReport(scale, mode, len(voices) ** 2, forbidden, tuple(sorted(classes)))


class WalkResult(_Value):
    __slots__ = ("path", "completed", "dead_end_at")

    @property
    def steps_taken(self) -> int:
        return len(self.path) - 1


def walk(w: World, start: DualNumber, length: int, seed: int) -> WalkResult:
    """Seed-deterministic random walk over valid steps.

    Each step picks uniformly among the current interval's valid successors,
    in (cantus, interval) order: with size successors and k the bit_length
    of size, it draws r = getrandbits(k) from ``random.Random(seed)`` until
    r < size and steps to successor r.  That is the draw ``Random.choice``
    makes on Python 3.10-3.13, so a seed gives the path ``rng.choice`` per
    step would; the golden digests in the tests freeze the paths.

    Raises ValueError for a length or seed that is not a non-negative
    integer (``random.Random`` would seed -7 as 7, and hash a float seed)
    and DeadEnd when the start itself has no valid successor; a dead end
    reached later stops the walk early and is reported in the result.
    """
    for name, value in (("length", length), ("seed", seed)):
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"walk {name} must be a non-negative integer, got {value!r}")
    _require_same_modulus(start.modulus, w.modulus)
    table = w._successor_table
    i = w.modulus.n * start.a + start.b
    if not table[i][1]:
        raise DeadEnd(f"interval {start.render()} has no valid successor")
    getrandbits = random.Random(seed).getrandbits
    steps = [i]
    dead_end_at = None
    for taken in range(length):
        cols, size, bits = table[i]
        if not size:
            dead_end_at = taken
            break
        r = getrandbits(bits)
        while r >= size:
            r = getrandbits(bits)
        i = cols[r]
        steps.append(i)
    plane = _plane(w.modulus)
    return WalkResult(tuple([plane[i] for i in steps]), dead_end_at is None, dead_end_at)


def world_matrix_csv(w: World) -> str:
    """Full count matrix as `from,to,count` rows in row-major interval order."""
    labels = [z.render() for z in w.intervals()]
    lines = ["from,to,count"]
    for src, row in zip(labels, w.counts):
        lines.extend(f"{src},{dst},{c}" for dst, c in zip(labels, row))
    return "\n".join(lines) + "\n"


def world_histogram_csv(w: World) -> str:
    lines = ["symmetries,steps"]
    for c in sorted(w.histogram):
        lines.append(f"{c},{w.histogram[c]}")
    return "\n".join(lines) + "\n"
