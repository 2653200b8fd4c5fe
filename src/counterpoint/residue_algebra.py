"""Exact arithmetic for Z_n, affine self-maps of Z_n, and the dual-number
ring Z_n[eps] (eps**2 = 0) together with its group of invertible affine
self-maps.

Conventions
-----------
* Residues are stored canonically in ``[0, n)``; every constructor reads
  its inputs through ``Modulus.reduce``, which refuses a non-integer.
* ``compose(f, g)`` means "apply ``g`` first, then ``f``".
* Textual grammar: affine maps render as ``e^u.v``; dual numbers /
  contrapuntal intervals render and parse as ``x+ek`` (for example
  ``0+e3``), a bit-exact round-trip.
* Every interval worlds and the score chain hand out comes from ``_plane``,
  and every mixed-moduli check is ``_require_same_modulus``.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import gcd

_set = object.__setattr__


def _by_key(op, key):
    def method(self, other):
        if other.__class__ is self.__class__:
            return op(key(self), key(other))
        return NotImplemented

    return method


class _Value:
    """A frozen value whose fields are its ``__slots__``, in order.

    The constructor takes the fields by position or by name, as a frozen
    dataclass's does; a subclass overrides it only to normalise a field or to
    give one a default.  Equality, hash and repr read the tuple of the fields,
    got by one key function per class, which each class's comparisons and hash
    close over; ``order=True`` adds the order of that tuple.
    """

    __slots__ = ()

    def __init__(self, *fields, **named) -> None:
        names = self.__slots__
        if named:
            fields += tuple(named.pop(name) for name in names[len(fields):] if name in named)
        if len(fields) != len(names) or named:
            raise TypeError(f"{type(self).__qualname__} takes the fields ({', '.join(names)})")
        for name, field in zip(names, fields):
            _set(self, name, field)

    def __init_subclass__(cls, order: bool = False) -> None:
        get = operator.attrgetter(*cls.__slots__) if cls.__slots__ else lambda self: ()
        key = get if len(cls.__slots__) != 1 else lambda self: (get(self),)
        cls._key = staticmethod(key)
        cls.__eq__ = _by_key(operator.eq, key)
        cls.__hash__ = lambda self: hash(key(self))
        if order:
            ops = (operator.lt, operator.le, operator.gt, operator.ge)
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = (_by_key(op, key) for op in ops)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key(self)


class NotInvertible(ValueError):
    """The map's linear part is not a unit modulo n."""


class ModulusMismatch(ValueError):
    """Two algebraic objects with different moduli were combined."""


class Modulus(_Value, order=True):
    """The ambient even modulus n (pitch classes per octave)."""

    __slots__ = ("n",)

    def __init__(self, n: int = 12) -> None:
        if not isinstance(n, int) or n < 4 or n % 2 != 0:
            raise ValueError(f"modulus must be an even integer >= 4, got {n}")
        _set(self, "n", n)

    def residues(self) -> range:
        return range(self.n)

    def units(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if gcd(v, self.n) == 1)

    def reduce(self, x: int) -> int:
        """The one reader of residue values: an int (bool too) mod n; else ValueError."""
        if not isinstance(x, int):
            raise ValueError(f"residue must be an integer, got {x!r}")
        return x % self.n

    def parse_residue(self, text: str) -> int:
        """Read ASCII decimal digits naming a value in 0..n-1; else ValueError."""
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"malformed residue {text!r}")
        if int(text) >= self.n:
            raise ValueError(f"residue {text} outside 0..{self.n - 1}")
        return int(text)


_TWELVE = Modulus()  # the modulus of every text the package reads


def _require_same_modulus(a: "Modulus", b: "Modulus") -> None:
    if a != b:
        raise ModulusMismatch(f"mixed moduli {a.n} and {b.n}")


class ResidueAffineMap(_Value, order=True):
    """The affine self-map ``x -> v*x + u`` of Z_n, written ``e^u.v``."""

    __slots__ = ("u", "v", "modulus")

    def __init__(self, u: int, v: int, modulus: Modulus = Modulus()) -> None:
        _set(self, "u", modulus.reduce(u))
        _set(self, "v", modulus.reduce(v))
        _set(self, "modulus", modulus)

    def render(self) -> str:
        return f"e^{self.u}.{self.v}"


class DualNumber(_Value, order=True):
    """An element ``a + eps*b`` of Z_n[eps] with eps**2 = 0."""

    __slots__ = ("a", "b", "modulus")

    def __init__(self, a: int, b: int, modulus: Modulus = Modulus()) -> None:
        _set(self, "a", modulus.reduce(a))
        _set(self, "b", modulus.reduce(b))
        _set(self, "modulus", modulus)

    def render(self) -> str:
        return f"{self.a}+e{self.b}"

    @classmethod
    def parse(cls, text: str) -> "DualNumber":
        """Parse ``x+ek`` in Z_12[eps]; both components are residues in 0..11."""
        x, plus_e, k = text.partition("+e")
        if not plus_e:
            raise ValueError(f"malformed dual number {text!r}; expected x+ek")
        return cls(_TWELVE.parse_residue(x), _TWELVE.parse_residue(k))


@lru_cache(maxsize=None)
def _plane(modulus: Modulus) -> tuple:
    """The n^2 intervals x+ek of Z_n[eps], interval x+ek at index n*x + k.

    One shared tuple per modulus: worlds and the score chain hand out these
    objects rather than building an interval per step.
    """
    n = modulus.n
    return tuple(DualNumber(x, k, modulus) for x in range(n) for k in range(n))


class DualAffineMap(_Value, order=True):
    """The affine self-map ``z -> (a + eps*b) * z + (s + eps*t)`` of Z_n[eps].

    Stored componentwise as ``(a, b, s, t)``.  Invertible iff gcd(a, n) = 1;
    for n = 12 the invertible maps form a group of 48 * 144 = 6912 elements.
    """

    __slots__ = ("a", "b", "s", "t", "modulus")

    def __init__(self, a: int, b: int, s: int, t: int, modulus: Modulus = Modulus()) -> None:
        _set(self, "a", modulus.reduce(a))
        _set(self, "b", modulus.reduce(b))
        _set(self, "s", modulus.reduce(s))
        _set(self, "t", modulus.reduce(t))
        _set(self, "modulus", modulus)

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
