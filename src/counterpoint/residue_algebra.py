"""Exact arithmetic for Z_n, affine self-maps of Z_n, and the dual-number
ring Z_n[eps] (eps**2 = 0) together with its group of invertible affine
self-maps.

Conventions
-----------
* Residues are stored canonically in ``[0, n)``; every constructor
  normalizes its inputs.
* ``compose(f, g)`` means "apply ``g`` first, then ``f``".
* Textual grammar: affine maps render as ``e^u.v``; dual numbers /
  contrapuntal intervals render and parse as ``x+ek`` (for example
  ``0+e3``), a bit-exact round-trip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import Iterator


class NotInvertible(ValueError):
    """The map's linear part is not a unit modulo n."""


class ModulusMismatch(ValueError):
    """Two algebraic objects with different moduli were combined."""


@dataclass(frozen=True, order=True)
class Modulus:
    """The ambient even modulus n (pitch classes per octave)."""

    n: int = 12

    def __post_init__(self) -> None:
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"modulus must be an even integer >= 4, got {self.n}")

    def residues(self) -> range:
        return range(self.n)

    def units(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if gcd(v, self.n) == 1)

    def reduce(self, x: int) -> int:
        return x % self.n


def _require_same_modulus(a: "Modulus", b: "Modulus") -> None:
    if a != b:
        raise ModulusMismatch(f"mixed moduli {a.n} and {b.n}")


_DUAL_RE = re.compile(r"^(\d+)\+e(\d+)$")


@dataclass(frozen=True, order=True)
class ResidueAffineMap:
    """The affine self-map ``x -> v*x + u`` of Z_n, written ``e^u.v``."""

    u: int
    v: int
    modulus: Modulus = Modulus()

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", self.u % self.modulus.n)
        object.__setattr__(self, "v", self.v % self.modulus.n)

    def apply(self, x: int) -> int:
        return (self.v * x + self.u) % self.modulus.n

    def apply_set(self, xs) -> frozenset:
        return frozenset(self.apply(x) for x in xs)

    def compose(self, g: "ResidueAffineMap") -> "ResidueAffineMap":
        """Return the map ``x -> self(g(x))`` (g first, then self)."""
        _require_same_modulus(self.modulus, g.modulus)
        return ResidueAffineMap(self.u + self.v * g.u, self.v * g.v, self.modulus)

    def is_identity(self) -> bool:
        return self.u == 0 and self.v == 1

    def render(self) -> str:
        return f"e^{self.u}.{self.v}"

    @classmethod
    def all_maps(cls, modulus: Modulus = Modulus()) -> Iterator["ResidueAffineMap"]:
        """Every affine self-map (invertible or not): n*n maps."""
        for v in modulus.residues():
            for u in modulus.residues():
                yield cls(u, v, modulus)

    @classmethod
    def invertible_maps(cls, modulus: Modulus = Modulus()) -> Iterator["ResidueAffineMap"]:
        for v in modulus.units():
            for u in modulus.residues():
                yield cls(u, v, modulus)


@dataclass(frozen=True, order=True)
class DualNumber:
    """An element ``a + eps*b`` of Z_n[eps] with eps**2 = 0."""

    a: int
    b: int
    modulus: Modulus = Modulus()

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", self.a % self.modulus.n)
        object.__setattr__(self, "b", self.b % self.modulus.n)

    def render(self) -> str:
        return f"{self.a}+e{self.b}"

    @classmethod
    def parse(cls, text: str, modulus: Modulus = Modulus()) -> "DualNumber":
        m = _DUAL_RE.match(text)
        if not m:
            raise ValueError(f"malformed dual number {text!r}; expected x+ek")
        return cls(int(m.group(1)), int(m.group(2)), modulus)


@dataclass(frozen=True, order=True)
class DualAffineMap:
    """The affine self-map ``z -> (a + eps*b) * z + (s + eps*t)`` of Z_n[eps].

    Stored componentwise as ``(a, b, s, t)``.  Invertible iff gcd(a, n) = 1;
    for n = 12 the invertible maps form a group of 48 * 144 = 6912 elements.
    """

    a: int
    b: int
    s: int
    t: int
    modulus: Modulus = Modulus()

    def __post_init__(self) -> None:
        n = self.modulus.n
        for field in ("a", "b", "s", "t"):
            object.__setattr__(self, field, getattr(self, field) % n)

    @property
    def is_invertible(self) -> bool:
        return gcd(self.a, self.modulus.n) == 1

    def compose(self, g: "DualAffineMap") -> "DualAffineMap":
        """Return the map ``z -> self(g(z))`` (g first, then self)."""
        _require_same_modulus(self.modulus, g.modulus)
        return DualAffineMap(
            self.a * g.a,
            self.a * g.b + self.b * g.a,
            self.a * g.s + self.s,
            self.a * g.t + self.b * g.s + self.t,
            self.modulus,
        )

    def invert(self) -> "DualAffineMap":
        if not self.is_invertible:
            raise NotInvertible("dual affine map with non-unit base linear part")
        n = self.modulus.n
        ai = pow(self.a, -1, n)
        bi = (-ai * ai * self.b) % n
        si = (-ai * self.s) % n
        ti = (-(ai * self.t + bi * self.s)) % n
        return DualAffineMap(ai, bi, si, ti, self.modulus)

    def is_identity(self) -> bool:
        return (self.a, self.b, self.s, self.t) == (1, 0, 0, 0)
