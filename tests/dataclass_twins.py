"""The package's value classes as they were written with ``@dataclass``.

Each twin keeps its original decorator, field order, defaults and
``__post_init__``: everything that decides construction, equality, hash,
order, repr and immutability.  Methods and properties are left out (the
package classes keep those), except ``Modulus.reduce``, which
``Dichotomy.__post_init__`` calls.  ``tests/test_value_classes.py`` checks the
package classes against these twins, as other tests use ``oracles``.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from counterpoint import RestrictionMode, SdDivisor

# residue_algebra


@dataclass(frozen=True, order=True)
class Modulus:
    n: int = 12

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"modulus must be an even integer >= 4, got {self.n}")

    def reduce(self, x: int) -> int:
        return x % self.n


@dataclass(frozen=True, order=True)
class ResidueAffineMap:
    u: int
    v: int
    modulus: Modulus = Modulus()

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", self.u % self.modulus.n)
        object.__setattr__(self, "v", self.v % self.modulus.n)


@dataclass(frozen=True, order=True)
class DualNumber:
    a: int
    b: int
    modulus: Modulus = Modulus()

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", self.a % self.modulus.n)
        object.__setattr__(self, "b", self.b % self.modulus.n)


@dataclass(frozen=True, order=True)
class DualAffineMap:
    a: int
    b: int
    s: int
    t: int
    modulus: Modulus = Modulus()

    def __post_init__(self) -> None:
        n = self.modulus.n
        for field in ("a", "b", "s", "t"):
            object.__setattr__(self, field, getattr(self, field) % n)


# dichotomies


@dataclass(frozen=True)
class Dichotomy:
    half: frozenset
    modulus: Modulus = Modulus()

    def __post_init__(self) -> None:
        for x in self.half:
            if not isinstance(x, int):
                raise ValueError(f"marked half must hold integer residues, got {x!r}")
        object.__setattr__(
            self, "half", frozenset(self.modulus.reduce(x) for x in self.half)
        )
        if len(self.half) * 2 != self.modulus.n:
            raise ValueError(
                f"marked half must contain exactly n/2 = {self.modulus.n // 2} "
                f"residues, got {sorted(self.half)}"
            )


@dataclass(frozen=True)
class StrengthCertificate:
    stabilizer: tuple
    swaps: tuple


@dataclass(frozen=True)
class DichotomyClass:
    canonical_representative: tuple
    orbit_size: int
    alias: Optional[str]


@dataclass(frozen=True)
class ChordEndomorphismReport:
    chord: tuple
    endomorphisms: tuple
    linear_parts: tuple
    strong_verdict: bool


# worlds (World stays a dataclass in the package)


@dataclass(frozen=True)
class WorldMoments:
    mean: Fraction
    variance: Fraction
    sd: float
    note: Optional[str]


@dataclass(frozen=True)
class WorldOverlap:
    p_a: Fraction
    p_b: Fraction
    p_ab: Fraction


@dataclass(frozen=True)
class ScaleRestrictionReport:
    scale: tuple
    mode: RestrictionMode
    restricted_step_count: int
    forbidden_steps: tuple
    forbidden_classes: tuple


@dataclass(frozen=True)
class WalkResult:
    path: tuple
    completed: bool
    dead_end_at: Optional[int]


# stats


@dataclass(frozen=True)
class PopulationSpec:
    mean: Fraction
    variance: Fraction
    sd: float
    support: tuple
    probabilities: dict


@dataclass(frozen=True)
class SampleSummary:
    n: int
    observed: tuple
    overflow_values: tuple
    mean: Fraction
    sd: float
    divisor: SdDivisor


@dataclass(frozen=True)
class EffectSizeResult:
    d: float
    ci_low: float
    ci_high: float
    alpha: float
    z: float


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float
    yates: bool
    categories: tuple
    observed: tuple
    expected: tuple


# score_io


@dataclass(frozen=True)
class ScoreEvent:
    measure: int
    beat: Fraction
    cantus_pitch: Optional[int]
    pitch: int


@dataclass(frozen=True)
class FixedCantus:
    pc: int


@dataclass(frozen=True)
class ColumnCantus:
    pass


@dataclass(frozen=True)
class TransitionSequence:
    steps: tuple
    dedup_applied: bool


TWINS = (
    Modulus, ResidueAffineMap, DualNumber, DualAffineMap,
    Dichotomy, StrengthCertificate, DichotomyClass, ChordEndomorphismReport,
    WorldMoments, WorldOverlap, ScaleRestrictionReport, WalkResult,
    PopulationSpec, SampleSummary, EffectSizeResult, ChiSquareResult,
    ScoreEvent, FixedCantus, ColumnCantus, TransitionSequence,
)
