import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from counterpoint import (
    DualAffineMap,
    DualNumber,
    Modulus,
    ModulusMismatch,
    NotInvertible,
    ResidueAffineMap,
)
from oracles import all_maps, apply, apply_set, enumerate_dual_symmetries, image, invertible_maps

M12 = Modulus()
UNITS = st.sampled_from(M12.units())
RESIDUES = st.integers(min_value=0, max_value=11)


class TestModulus:
    def test_default_is_twelve(self):
        assert M12.n == 12
        assert list(M12.residues()) == list(range(12))

    def test_units(self):
        assert M12.units() == (1, 5, 7, 11)

    @pytest.mark.parametrize("bad", [3, 7, 2, 0, -4, 12.0, "12"])
    def test_rejects_odd_or_tiny(self, bad):
        with pytest.raises(ValueError):
            Modulus(bad)

    def test_reduce(self):
        assert M12.reduce(-1) == 11
        assert M12.reduce(25) == 1

    def test_parse_residue_reads_every_residue(self):
        assert [M12.parse_residue(str(r)) for r in M12.residues()] == list(M12.residues())
        assert M12.parse_residue("07") == 7

    @pytest.mark.parametrize("text", ["", " 3", "3 ", "3\n", "+3", "-3", "1_0", "\u0663", "\u00b2", "3.0"])
    def test_parse_residue_rejects_malformed(self, text):
        with pytest.raises(ValueError, match="malformed residue"):
            M12.parse_residue(text)

    @pytest.mark.parametrize("text, n", [("12", 12), ("19", 12), ("8", 8)])
    def test_parse_residue_rejects_values_outside_the_residues(self, text, n):
        with pytest.raises(ValueError, match=f"outside 0..{n - 1}"):
            Modulus(n).parse_residue(text)


class TestResidueAffineMap:
    def test_apply(self):
        m = ResidueAffineMap(2, 5)
        assert apply(m, 3) == (5 * 3 + 2) % 12

    def test_grammar(self):
        assert ResidueAffineMap(2, 5).render() == "e^2.5"
        assert ResidueAffineMap(-1, 17).render() == "e^11.5"

    @given(u=RESIDUES, v=RESIDUES, w=RESIDUES, z=RESIDUES, x=RESIDUES)
    def test_compose_applies_right_map_first(self, u, v, w, z, x):
        f = ResidueAffineMap(u, v)
        g = ResidueAffineMap(w, z)
        assert apply(f.compose(g), x) == apply(f, apply(g, x))

    @given(u=RESIDUES, v=UNITS)
    def test_invert_round_trip(self, u, v):
        m = ResidueAffineMap(u, v)
        vi = pow(v, -1, 12)
        inverse = ResidueAffineMap(-vi * u, vi)
        assert m.compose(inverse).is_identity()
        assert inverse.compose(m).is_identity()
        assert m.is_identity() == ((u, v) == (0, 1))

    @pytest.mark.parametrize("v", [0, 2, 3, 4, 6, 8, 9, 10])
    def test_invert_rejects_non_units(self, v):
        # e^1.v is left out of the invertible pool, and the dual map with
        # base part e^1.v has no inverse.
        assert ResidueAffineMap(1, v) not in set(invertible_maps())
        with pytest.raises(NotInvertible):
            DualAffineMap(v, 0, 1, 0).invert()

    def test_map_counts(self):
        assert len(set(all_maps())) == 144
        assert len(set(invertible_maps())) == 48

    def test_apply_set(self):
        # e^2.5 carries the Fuxian consonances onto the dissonances.
        m = ResidueAffineMap(2, 5)
        assert apply_set(m, {0, 3, 4, 7, 8, 9}) == frozenset({1, 2, 5, 6, 10, 11})

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            ResidueAffineMap(0, 1).compose(ResidueAffineMap(0, 1, Modulus(6)))


class TestDualNumber:
    @given(a=RESIDUES, b=RESIDUES)
    def test_render_parse_round_trip(self, a, b):
        z = DualNumber(a, b)
        assert DualNumber.parse(z.render()) == z
        assert z.render() == f"{a}+e{b}"

    @pytest.mark.parametrize("bad", [
        "3", "3+4", "e4", "3+e", "3-e4", "x+ek",
        "0+e3\n", "\u0663+e4", "0+e\u0663", " 0+e3", "0+e 3", "+1+e2", "1_0+e2",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            DualNumber.parse(bad)

    @pytest.mark.parametrize("text, n", [("12+e15", 12), ("13+e0", 12), ("0+e12", 12), ("9+e2", 8)])
    def test_parse_rejects_components_outside_the_residues(self, text, n):
        with pytest.raises(ValueError, match="outside 0..") as info:
            DualNumber.parse(text, Modulus(n))
        assert "malformed" not in str(info.value)

    @given(a=st.integers(min_value=-50, max_value=50), b=st.integers(min_value=-50, max_value=50))
    def test_constructor_still_reduces(self, a, b):
        assert DualNumber(a, b) == DualNumber(a % 12, b % 12)


DUAL_MAPS = st.builds(DualAffineMap, a=RESIDUES, b=RESIDUES, s=RESIDUES, t=RESIDUES)
INVERTIBLE_MAPS = st.builds(DualAffineMap, a=UNITS, b=RESIDUES, s=RESIDUES, t=RESIDUES)


class TestDualAffineMap:
    @given(f=DUAL_MAPS, g=DUAL_MAPS, a=RESIDUES, b=RESIDUES)
    def test_compose_applies_right_map_first(self, f, g, a, b):
        assert image(f.compose(g), a, b) == image(f, *image(g, a, b))

    @given(g=INVERTIBLE_MAPS)
    def test_invert_round_trip(self, g):
        assert g.compose(g.invert()).is_identity()
        assert g.invert().compose(g).is_identity()

    def test_invertibility_requires_unit_linear_base(self):
        assert DualAffineMap(5, 3, 1, 2).is_invertible
        assert not DualAffineMap(6, 3, 1, 2).is_invertible
        with pytest.raises(NotInvertible):
            DualAffineMap(6, 3, 1, 2).invert()

    def test_identity(self):
        e = DualAffineMap(1, 0, 0, 0)
        assert e.is_identity()
        assert image(e, 7, 4) == (7, 4)
        assert not DualAffineMap(1, 0, 0, 1).is_identity()


class TestSymmetryPool:
    def test_pool_size_and_invertibility(self):
        pool = list(enumerate_dual_symmetries())
        assert len(pool) == 6912
        assert all(g.is_invertible for g in pool)
        assert len(set(pool)) == 6912
        assert DualAffineMap(1, 0, 0, 0) in set(pool)

    def test_group_closure_on_random_pairs(self):
        pool = list(enumerate_dual_symmetries())
        members = set(pool)
        rng = random.Random(20260815)
        for _ in range(400):
            f, g = rng.choice(pool), rng.choice(pool)
            assert f.compose(g) in members
            assert f.invert() in members
