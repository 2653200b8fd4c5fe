import random
from itertools import combinations
from math import comb

import pytest

from counterpoint import dichotomies
from counterpoint import (
    EVEN_WHOLE_TONE,
    FUX_HALF,
    MYSTIC_HALF,
    ODD_WHOLE_TONE,
    Dichotomy,
    Modulus,
    ResidueAffineMap,
    all_class_orbit_sizes,
    chord_endomorphisms,
    classify,
    mystic_parity,
    parse_pitch_class_set,
    strength,
    strong_atlas,
    triad_covers,
    whole_tone_affinity,
)
from oracles import apply_set, invertible_maps

M12 = Modulus()


class TestDichotomyBasics:
    def test_presets(self):
        assert Dichotomy.fux().half == FUX_HALF
        assert Dichotomy.mystic().half == MYSTIC_HALF

    def test_parse_reserved_names(self):
        assert Dichotomy.parse("fux").half == FUX_HALF
        assert Dichotomy.parse("MYSTIC").half == MYSTIC_HALF
        assert parse_pitch_class_set("") == frozenset()

    def test_parse_numeric(self):
        d = Dichotomy.parse("0,3,4,7,8,9")
        assert d.half == FUX_HALF
        assert d.render() == "0,3,4,7,8,9"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="malformed pitch-class set"):
            parse_pitch_class_set("0,three,4")

    @pytest.mark.parametrize("text", [
        "0,4,19", "0,3,4,7,8,21", "12", "0,4,7,-1", "0,+4", "0,1_1", "0,\u0664",
        "0,3,4,7,8,9,9", "0,4,4,7", "1,1,3",
    ])
    def test_parse_reads_residues_only(self, text):
        with pytest.raises(ValueError, match="malformed pitch-class set"):
            parse_pitch_class_set(text)

    @pytest.mark.parametrize("n", [8, 10, 14])
    @pytest.mark.parametrize("preset", ["fux", "mystic"])
    def test_presets_are_sets_mod_twelve_only(self, preset, n):
        message = f"preset '{preset}' is a set of residues mod 12, not mod {n}"
        with pytest.raises(ValueError, match=message):
            parse_pitch_class_set(preset, Modulus(n))
        with pytest.raises(ValueError, match=message):
            Dichotomy.parse(preset, Modulus(n))

    def test_parse_keeps_spaces_around_items(self):
        assert parse_pitch_class_set("0, 4, 7") == frozenset({0, 4, 7})
        assert parse_pitch_class_set(" fux ") == FUX_HALF

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            Dichotomy(frozenset({0, 1, 2}))

    @pytest.mark.parametrize("half, got", [
        (frozenset({0.0, 3, 4, 7, 8, 9}), r"0\.0"),
        (frozenset({"0", "3", "4", "7", "8", "9"}), r"'[034789]'"),
    ], ids=["float", "str"])
    def test_rejects_non_integer_residues(self, half, got):
        with pytest.raises(ValueError, match=f"^residue must be an integer, got {got}$"):
            Dichotomy(half)

    def test_complement_and_membership(self):
        d = Dichotomy.fux()
        assert d.complement() == frozenset({1, 2, 5, 6, 10, 11})


class TestStrength:
    def test_fux_polarity(self):
        cert = strength(Dichotomy.fux())
        assert cert.is_strong
        assert cert.polarity == ResidueAffineMap(2, 5)
        assert cert.polarity.render() == "e^2.5"

    def test_mystic_polarity(self):
        cert = strength(Dichotomy.mystic())
        assert cert.is_strong
        assert cert.polarity == ResidueAffineMap(9, 11)
        assert cert.polarity.render() == "e^9.11"

    def test_whole_tone_is_weak(self):
        cert = strength(Dichotomy(EVEN_WHOLE_TONE))
        assert not cert.is_strong
        assert len(cert.stabilizer) == 24
        assert len(cert.swaps) == 24
        assert cert.polarity is None

    def test_polarity_swaps_the_halves(self):
        for d in (Dichotomy.fux(), Dichotomy.mystic()):
            p = strength(d).polarity
            assert apply_set(p, d.half) == d.complement()
            assert apply_set(p, d.complement()) == d.half

    def test_polarity_is_involutive_on_every_strong_class(self):
        for cls in strong_atlas():
            d = Dichotomy(frozenset(cls.canonical_representative))
            p = strength(d).polarity
            assert p.compose(p).is_identity()

    def test_strength_is_affine_invariant(self):
        rng = random.Random(7)
        maps = list(invertible_maps())
        base = strength(Dichotomy.fux())
        for _ in range(20):
            m = rng.choice(maps)
            moved = strength(Dichotomy(apply_set(m, FUX_HALF)))
            assert len(moved.stabilizer) == len(base.stabilizer)
            assert len(moved.swaps) == len(base.swaps)


class TestAtlas:
    def test_six_strong_classes(self):
        atlas = strong_atlas()
        assert len(atlas) == 6
        assert sum(cls.orbit_size for cls in atlas) == 288

    def test_all_classes_partition_half_sets(self):
        sizes = all_class_orbit_sizes()
        assert sum(sizes.values()) == 924

    def test_preset_aliases(self):
        assert classify(Dichotomy.mystic()).alias == "78 (mystic)"
        assert classify(Dichotomy.fux()).alias == "Fux"
        assert classify(Dichotomy.fux()).orbit_size == 48
        assert classify(Dichotomy.mystic()).orbit_size == 48

    def test_alias_literals_are_the_preset_orbit_minima(self):
        def orbit_minimum(half):
            return min(tuple(sorted(apply_set(m, half))) for m in invertible_maps())

        mystic, fux = orbit_minimum(MYSTIC_HALF), orbit_minimum(FUX_HALF)
        assert dichotomies._MYSTIC_CANONICAL == mystic
        assert dichotomies._CLASS_ALIASES == {mystic: "78 (mystic)", fux: "Fux"}

    def test_presets_lie_in_distinct_classes(self):
        assert (
            classify(Dichotomy.fux()).canonical_representative
            != classify(Dichotomy.mystic()).canonical_representative
        )

    def test_classify_is_constant_on_orbits(self):
        rng = random.Random(11)
        maps = list(invertible_maps())
        for d in (Dichotomy.fux(), Dichotomy.mystic(), Dichotomy(frozenset({0, 1, 2, 3, 4, 5}))):
            base = classify(d)
            for _ in range(34):
                m = rng.choice(maps)
                moved = classify(Dichotomy(apply_set(m, d.half)))
                assert moved == base

    def test_atlas_aliases_present(self):
        aliases = {cls.alias for cls in strong_atlas()}
        assert "78 (mystic)" in aliases
        assert "Fux" in aliases

    # (classes, strong classes) of half-sets of Z_n under the affine group.
    CLASS_COUNTS = {
        4: (2, 0), 6: (3, 1), 8: (6, 1), 10: (9, 3), 12: (34, 6), 14: (47, 9), 16: (129, 15),
        18: (471, 40), 20: (1280, 90), 22: (3235, 105), 24: (15008, 359),
    }

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
    def test_atlas_agrees_with_strength_and_classify(self, n):
        modulus = Modulus(n)
        sizes = all_class_orbit_sizes(modulus)
        atlas = strong_atlas(modulus)
        strong = [
            c for c in sizes if strength(Dichotomy(frozenset(c), modulus)).is_strong
        ]
        assert [cls.canonical_representative for cls in atlas] == strong
        for c, size in sizes.items():
            cls = classify(Dichotomy(frozenset(c), modulus))
            assert (cls.canonical_representative, cls.orbit_size) == (c, size)
        assert all(cls.orbit_size == sizes[cls.canonical_representative] for cls in atlas)
        assert sum(sizes.values()) == comb(n, n // 2)
        assert list(sizes) == sorted(sizes)

    # n = 22 and 24 take seconds each, so they run only under -m slow.
    @pytest.mark.parametrize("n", [
        pytest.param(n, marks=pytest.mark.slow) if n > 20 else n for n in CLASS_COUNTS
    ])
    def test_class_counts(self, n):
        modulus = Modulus(n)
        sizes = all_class_orbit_sizes(modulus)
        assert (len(sizes), len(strong_atlas(modulus))) == self.CLASS_COUNTS[n]
        assert sum(sizes.values()) == comb(n, n // 2)


class TestChordEndomorphisms:
    def test_major_triad(self):
        report = chord_endomorphisms({0, 4, 7})
        assert report.chord == (0, 4, 7)
        pairs = {(m.u, m.v) for m in report.endomorphisms}
        assert pairs == {
            (0, 0), (4, 0), (7, 0), (0, 1), (7, 3), (0, 4), (4, 8), (4, 9),
        }
        assert report.linear_parts == (0, 1, 3, 4, 8, 9)
        assert report.strong_verdict is True

    def test_major_triad_linear_parts_map_to_fux(self):
        report = chord_endomorphisms({0, 4, 7})
        d = Dichotomy(frozenset(report.linear_parts))
        image = apply_set(ResidueAffineMap(0, 7), d.half)
        assert image == FUX_HALF

    def test_endomorphisms_form_a_monoid(self):
        report = chord_endomorphisms({0, 4, 7})
        endos = set(report.endomorphisms)
        assert ResidueAffineMap(0, 1) in endos
        for f in endos:
            for g in endos:
                assert f.compose(g) in endos

    def test_whole_tone_triads_all_fail(self):
        for triad in combinations(sorted(EVEN_WHOLE_TONE), 3):
            assert chord_endomorphisms(triad).strong_verdict is False

    def test_single_tone_chord(self):
        report = chord_endomorphisms({0})
        assert len(report.endomorphisms) == 12
        assert all(m.u == 0 for m in report.endomorphisms)
        assert report.linear_parts == tuple(range(12))
        assert report.strong_verdict is False

    def test_full_aggregate(self):
        report = chord_endomorphisms(range(12))
        assert len(report.endomorphisms) == 144
        assert report.strong_verdict is False

    def test_empty_chord_rejected(self):
        with pytest.raises(ValueError):
            chord_endomorphisms(())

    @pytest.mark.parametrize("chord", [[0.0, 4, 7], [0.5, 4]])
    @pytest.mark.parametrize("report", [chord_endomorphisms, triad_covers])
    def test_non_integer_tone_rejected(self, report, chord):
        with pytest.raises(ValueError, match=f"^residue must be an integer, got {chord[0]!r}$"):
            report(chord)


class TestChordGeometry:
    def test_triad_covers_of_mystic(self):
        report = triad_covers(MYSTIC_HALF)
        assert report.augmented == ((0, 4, 8),)
        assert report.diminished == ((2, 8, 11),)
        assert report.major == ((4, 8, 11),)
        assert report.minor == ((2, 6, 11),)
        assert report.minor_major_near_covers == (((2, 6, 11), (4, 8, 11), (0,)),)

    def test_triad_covers_of_augmented_chord(self):
        report = triad_covers({0, 4, 8})
        assert report.augmented == ((0, 4, 8),)
        assert report.diminished == ()
        assert report.major == ()
        assert report.minor == ()
        assert report.minor_major_near_covers == ()

    def test_whole_tone_affinity(self):
        assert whole_tone_affinity(MYSTIC_HALF) == (5, 1)
        assert whole_tone_affinity(EVEN_WHOLE_TONE) == (6, 0)
        assert whole_tone_affinity({0, 4, 6, 10}) == (4, 0)
        assert whole_tone_affinity({12, 16, 25, -1}) == (2, 2)  # pitch classes mod 12

    @pytest.mark.parametrize("report, chord", [
        (whole_tone_affinity, [0.5, 2, 4.0]),
        (mystic_parity, [0.5, 2, 4, 6, 8]),
        (mystic_parity, [0.0, 2, 4, 6, 8, 11]),
    ], ids=["affinity-fraction", "parity-fraction", "parity-float"])
    def test_pitch_class_reports_reject_non_integer_tones(self, report, chord):
        with pytest.raises(ValueError, match=f"^residue must be an integer, got {chord[0]!r}$"):
            report(chord)

    def test_mystic_parity(self):
        assert mystic_parity(MYSTIC_HALF) == "EVEN"
        assert mystic_parity({(x + 1) % 12 for x in MYSTIC_HALF}) == "ODD"
        assert mystic_parity(FUX_HALF) == "NotMysticForm"
        assert mystic_parity({0, 1, 2}) == "NotMysticForm"
        assert mystic_parity({x + 24 for x in MYSTIC_HALF}) == "EVEN"
        # Every six-note set against the definition: an affine image of the
        # mystic half-set with five tones in the even or the odd whole-tone scale.
        mystic_class = {apply_set(m, MYSTIC_HALF) for m in invertible_maps(M12)}
        tally = {"EVEN": 0, "ODD": 0, "NotMysticForm": 0}
        for chord in combinations(range(12), 6):
            chord = frozenset(chord)
            even, odd = len(chord & EVEN_WHOLE_TONE), len(chord & ODD_WHOLE_TONE)
            expected = "NotMysticForm"
            if chord in mystic_class and 5 in (even, odd):
                expected = "EVEN" if even == 5 else "ODD"
            assert mystic_parity(chord) == expected, sorted(chord)
            tally[expected] += 1
        assert tally == {"EVEN": 24, "ODD": 24, "NotMysticForm": 876}
