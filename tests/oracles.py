"""Test oracles for dual affine maps: the whole symmetry pool, the image of
one dual number, and two independent commutation checks.

The package needs none of these; tests import them from here, as they do
``paper_witnesses``.
"""

from counterpoint import DualAffineMap, Modulus


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
