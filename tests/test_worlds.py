import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

from counterpoint import (
    DeadEnd,
    Dichotomy,
    DualNumber,
    EVEN_WHOLE_TONE,
    GateFailure,
    Modulus,
    ModulusMismatch,
    NotStrong,
    PopulationSpec,
    RestrictionMode,
    World,
    build_world,
    counterpoint_symmetries,
    scale_restriction_report,
    step_count,
    strong_atlas,
    walk,
    world_histogram_csv,
    world_matrix_csv,
    world_moments,
    world_overlap,
)
from counterpoint import model_tables
from oracles import (
    commutes_algebraic,
    commutes_pointwise,
    enumerate_dual_symmetries,
    image,
    local_polarity,
)

ODD_WHOLE_TONE = frozenset({1, 3, 5, 7, 9, 11})
FUX_HISTOGRAM = {0: 6720, 1: 4992, 2: 5568, 3: 1440, 4: 1152, 5: 864}
MYSTIC_HISTOGRAM = {0: 16128, 1: 576, 2: 2880, 3: 0, 4: 1152, 5: 0}


class TestLocalPolarity:
    def test_transported_map_at_origin(self):
        pol = local_polarity(Dichotomy.fux(), 0)
        assert (pol.a, pol.b, pol.s, pol.t) == (5, 0, 0, 2)
        assert image(pol, 0, 0) == (0, 2)

    def test_fixes_its_cantus(self):
        for d in (Dichotomy.fux(), Dichotomy.mystic()):
            for x in range(12):
                pol = local_polarity(d, x)
                for m in range(12):
                    assert image(pol, x, m)[0] == x

    def test_swaps_interval_species(self):
        for d in (Dichotomy.fux(), Dichotomy.mystic()):
            comp = d.complement()
            for x in range(12):
                pol = local_polarity(d, x)
                for m in sorted(d.half):
                    assert image(pol, x, m)[1] in comp
                for m in sorted(comp):
                    assert image(pol, x, m)[1] in d.half

    def test_involution_on_every_strong_class(self):
        for cls in strong_atlas():
            d = Dichotomy(frozenset(cls.canonical_representative))
            for x in range(12):
                pol = local_polarity(d, x)
                assert pol.compose(pol).is_identity()

    def test_weak_dichotomy_rejected(self):
        weak = Dichotomy(EVEN_WHOLE_TONE)
        with pytest.raises(NotStrong, match="not strong with a polarity"):
            counterpoint_symmetries(weak, DualNumber(0, 0))
        with pytest.raises(NotStrong):
            local_polarity(weak, 0)


class TestCommutation:
    def test_pointwise_agrees_with_algebraic_everywhere(self):
        pool = list(enumerate_dual_symmetries())
        classes = strong_atlas()
        rng = random.Random(20260815)
        for _ in range(10):
            cls = rng.choice(classes)
            d = Dichotomy(frozenset(cls.canonical_representative))
            pol = local_polarity(d, rng.randrange(12))
            for g in pool:
                assert commutes_pointwise(g, pol) == commutes_algebraic(g, pol)

    @pytest.mark.parametrize("preset", ["fux", "mystic"])
    @pytest.mark.parametrize("x", [0, 5])
    def test_centralizer_is_a_subgroup(self, preset, x):
        d = Dichotomy.parse(preset)
        pol = local_polarity(d, x)
        centralizer = [g for g in enumerate_dual_symmetries() if commutes_algebraic(g, pol)]
        members = set(centralizer)
        assert centralizer, "centralizer must not be empty"
        assert pol in members
        rng = random.Random(x + len(preset))
        for _ in range(200):
            f, g = rng.choice(centralizer), rng.choice(centralizer)
            assert f.compose(g) in members
            assert f.invert() in members


class TestCounterpointSymmetries:
    @pytest.mark.parametrize(
        "xi",
        [DualNumber(0, 3), DualNumber(2, 7), DualNumber(11, 4)],
    )
    def test_symmetries_satisfy_defining_conditions(self, xi):
        d = Dichotomy.fux()
        opposite = d.complement() if xi.b in d.half else d.half
        pol = local_polarity(d, xi.a)
        pool = set(enumerate_dual_symmetries())
        result = counterpoint_symmetries(d, xi)
        assert result == sorted(result)
        assert result, "every interval admits at least one symmetry"
        for g in result:
            assert g in pool
            assert image(g, xi.a, 0)[0] == xi.a  # fixes the cantus
            assert commutes_algebraic(g, pol)  # commutes with local polarity
            assert image(g.invert(), xi.a, xi.b)[1] in opposite  # pulls xi across species

    def test_worked_step_counts(self):
        d = Dichotomy.fux()
        assert step_count(d, DualNumber(0, 3), DualNumber(2, 4)) == 2
        assert step_count(d, DualNumber(0, 7), DualNumber(2, 7)) == 0

    def test_step_count_matches_engine_built_world(self, fux_world):
        d = Dichotomy.fux()
        rng = random.Random(99)
        for _ in range(60):
            xi = DualNumber(rng.randrange(12), rng.randrange(12))
            eta = DualNumber(rng.randrange(12), rng.randrange(12))
            assert step_count(d, xi, eta) == fux_world.count(xi, eta)


class TestModulusChecks:
    """Every interval handed to a world or the engine must carry its modulus."""

    MOD10 = Modulus(10)
    MIXED = "^mixed moduli (10 and 12|12 and 10)$"

    def test_count_checks_both_ends(self, fux_world):
        with pytest.raises(ModulusMismatch, match=self.MIXED):
            fux_world.count(DualNumber(0, 3, self.MOD10), DualNumber(2, 4, self.MOD10))
        with pytest.raises(ModulusMismatch, match=self.MIXED):
            fux_world.count(DualNumber(0, 3), DualNumber(2, 4, self.MOD10))
        with pytest.raises(ModulusMismatch, match=self.MIXED):
            fux_world.count(DualNumber(0, 3, self.MOD10), DualNumber(2, 4))
        n10 = build_world(Dichotomy(frozenset({0, 1, 2, 3, 5}), self.MOD10))
        with pytest.raises(ModulusMismatch, match=self.MIXED):
            n10.count(DualNumber(11, 11), DualNumber(0, 0, self.MOD10))

    def test_successors_checks_the_interval(self, fux_world):
        with pytest.raises(ModulusMismatch, match=self.MIXED):
            fux_world.successors(DualNumber(0, 3, self.MOD10))
        with pytest.raises(ModulusMismatch, match=self.MIXED):
            walk(fux_world, DualNumber(0, 3, self.MOD10), 4, 0)

    def test_step_count_checks_both_ends(self):
        d = Dichotomy.fux()
        with pytest.raises(ModulusMismatch, match=self.MIXED):
            step_count(d, DualNumber(0, 3, self.MOD10), DualNumber(2, 4, self.MOD10))
        with pytest.raises(ModulusMismatch, match=self.MIXED):
            step_count(d, DualNumber(0, 3), DualNumber(2, 4, self.MOD10))
        with pytest.raises(ModulusMismatch, match=self.MIXED):
            step_count(d, DualNumber(0, 3, self.MOD10), DualNumber(2, 4))
        with pytest.raises(ModulusMismatch, match=self.MIXED):
            counterpoint_symmetries(d, DualNumber(0, 3, self.MOD10))


class TestWorldConstruction:
    def test_fux_histogram(self, fux_world):
        assert fux_world.histogram == FUX_HISTOGRAM
        assert sum(fux_world.histogram.values()) == 20736
        assert fux_world.valid_step_count == 14016
        assert fux_world.label == "fux"

    def test_mystic_histogram(self, mystic_world):
        assert mystic_world.histogram == MYSTIC_HISTOGRAM
        assert sum(mystic_world.histogram.values()) == 20736
        assert mystic_world.valid_step_count == 4608
        assert mystic_world.label == "mystic"

    def test_mystic_step_table_decodes_its_digits(self):
        slabs = model_tables.MYSTIC_STEP_TABLE
        assert [(type(slab), len(slab)) for slab in slabs] == [(bytes, 144)] * 12
        assert b"".join(slabs) == bytes(int(ch) for ch in model_tables._TABLE_DIGITS)

    def test_mystic_histogram_pads_empty_bins(self, mystic_world):
        assert mystic_world.histogram[3] == 0
        assert mystic_world.histogram[5] == 0
        assert list(mystic_world.histogram) == [0, 1, 2, 3, 4, 5]

    def test_fux_worked_cells(self, fux_world):
        assert fux_world.count_at(0, 3, 2, 4) == 2
        assert fux_world.count_at(0, 7, 2, 7) == 0
        assert max(max(row) for row in fux_world.counts) == 5

    def test_count_at_reads_its_residues_through_reduce(self, fux_world):
        assert fux_world.count_at(-12, 15, 26, -8) == fux_world.count_at(0, 3, 2, 4) == 2
        assert fux_world.count_at(True, 0, 1, 0) == fux_world.count_at(1, 0, 1, 0)
        with pytest.raises(ValueError, match=r"^residue must be an integer, got 0\.5$"):
            fux_world.count_at(0.5, 3, 0, 3)

    @pytest.mark.parametrize("name", ["fux", "mystic"])
    def test_translation_covariance_exhaustive(self, name, fux_world, mystic_world):
        w = fux_world if name == "fux" else mystic_world
        n = 12
        for x in range(n):
            for k in range(n):
                row = w.counts[n * x + k]
                shifted = w.counts[n * ((x + 1) % n) + k]
                for y in range(n):
                    for l in range(n):
                        assert row[n * y + l] == shifted[n * ((y + 1) % n) + l]

    def test_weak_dichotomy_rejected(self):
        with pytest.raises(NotStrong):
            build_world(Dichotomy(EVEN_WHOLE_TONE))

    def test_non_preset_strong_dichotomy_builds(self):
        cls = next(
            c
            for c in strong_atlas()
            if c.alias is None
        )
        w = build_world(Dichotomy(frozenset(cls.canonical_representative)))
        assert sum(w.histogram.values()) == 20736
        assert w.label == ",".join(str(p) for p in cls.canonical_representative)

    def test_calibration_gate_trips_on_tampered_expectation(self, monkeypatch):
        import counterpoint.worlds as worlds_module

        tampered = dict(FUX_HISTOGRAM)
        tampered[0] += 1
        tampered[1] -= 1
        monkeypatch.setitem(
            worlds_module.EXPECTED_STEP_HISTOGRAMS, "fux", tampered
        )
        with pytest.raises(GateFailure):
            build_world(Dichotomy.fux())

    def test_worked_step_gate_names_the_step(self, monkeypatch):
        import counterpoint.worlds as worlds_module

        monkeypatch.setitem(worlds_module.WORKED_STEPS, "fux", {((0, 3), (2, 4)): 3})
        with pytest.raises(GateFailure, match=r"step 0\+e3 -> 2\+e4 has count 2, expected 3"):
            build_world(Dichotomy.fux())

    def test_gate_rejects_a_count_above_the_expected_maximum(self, monkeypatch):
        import counterpoint.worlds as worlds_module

        slabs = list(worlds_module._engine_class_table(Dichotomy.fux()))
        slabs[3] = b"\x06" + slabs[3][1:]
        monkeypatch.setattr(worlds_module, "_engine_class_table", lambda d: tuple(slabs))
        with pytest.raises(GateFailure, match=r"fux world failed its calibration gate: histogram"):
            build_world(Dichotomy.fux())

    def test_worked_step_gate_is_label_generic(self, monkeypatch):
        import counterpoint.worlds as worlds_module

        monkeypatch.setitem(worlds_module.WORKED_STEPS, "mystic", {((0, 0), (0, 0)): 9})
        message = (r"^mystic world failed its calibration gate: "
                   r"step 0\+e0 -> 0\+e0 has count 4, expected 9$")
        with pytest.raises(GateFailure, match=message):
            build_world(Dichotomy.mystic())


class TestWorldMoments:
    def test_fux_moments(self, fux_world):
        m = world_moments(fux_world)
        assert m.mean == Fraction(17, 12)
        assert f"{float(m.mean):.4f}" == "1.4167"
        assert f"{m.sd:.4f}" == "1.3651"
        assert m.note is None

    def test_mystic_moments_carry_discrepancy_note(self, mystic_world):
        m = world_moments(mystic_world)
        assert m.mean == Fraction(19, 36)
        assert f"{float(m.mean):.4f}" == "0.5278"
        assert abs(m.sd - 1.0925) < 1e-4
        assert m.note is not None
        assert "1.9026" in m.note and "1.0926" in m.note

    @pytest.mark.parametrize("n", range(6, 17, 2))
    def test_moments_equal_the_population_spec(self, n, fux_world, mystic_world):
        modulus = Modulus(n)
        worlds = [
            build_world(Dichotomy(frozenset(c.canonical_representative), modulus))
            for c in strong_atlas(modulus)
        ]
        if n == 12:
            worlds += [fux_world, mystic_world]
        for w in worlds:
            m, pop = world_moments(w), PopulationSpec.from_histogram(w.histogram)
            assert (m.mean, m.variance, m.sd) == (pop.mean, pop.variance, pop.sd), w.label

    def test_degenerate_world_moments(self, fux_world):
        flat = World(
            fux_world.dichotomy,
            "flat",
            "synthetic",
            tuple(bytes(144) for _ in range(144)),
            {0: 20736},
        )
        m = world_moments(flat)
        assert m.mean == 0
        assert m.sd == 0.0

    @pytest.mark.parametrize("histogram, message", [
        ({0: 5, 1: -1, 2: 1}, "category 1 has negative frequency -1"),
        ({0: 1.0, 1: 1}, "category 0 with frequency 1.0: both must be integers"),
    ], ids=["negative", "float"])
    def test_malformed_histogram_rejected(self, fux_world, histogram, message):
        hand_built = World(fux_world.dichotomy, "hand", "synthetic", fux_world.counts, histogram)
        with pytest.raises(ValueError, match=message):
            world_moments(hand_built)


class TestWorldOverlap:
    def test_preset_overlap_probabilities(self, fux_world, mystic_world):
        ov = world_overlap(fux_world, mystic_world)
        assert ov.p_a == Fraction(14016, 20736)
        assert ov.p_b == Fraction(4608, 20736)
        assert ov.p_ab == Fraction(2976, 20736)
        assert ov.gap == abs(ov.p_ab - ov.p_a * ov.p_b) == Fraction(13, 1944)
        assert 0 < ov.gap < Fraction(1, 110)

    def test_overlap_is_symmetric(self, fux_world, mystic_world):
        ab = world_overlap(fux_world, mystic_world)
        ba = world_overlap(mystic_world, fux_world)
        assert (ab.p_a, ab.p_b, ab.p_ab) == (ba.p_b, ba.p_a, ba.p_ab)

    def test_self_overlap(self, fux_world):
        ov = world_overlap(fux_world, fux_world)
        assert ov.p_ab == ov.p_a
        assert ov.gap == ov.p_a - ov.p_a * ov.p_a > 0

    def test_modulus_mismatch(self, fux_world):
        other = World(
            Dichotomy(frozenset({0, 1, 2}), Modulus(6)),
            "tiny",
            "synthetic",
            tuple(bytes(36) for _ in range(36)),
            {0: 1296},
        )
        with pytest.raises(ModulusMismatch, match="^mixed moduli 12 and 6$"):
            world_overlap(fux_world, other)


class TestScaleRestriction:
    def test_mystic_odd_whole_tone_cantus_only(self, mystic_world):
        for mode in (RestrictionMode.CANTUS_ONLY, "CANTUS_ONLY"):
            report = scale_restriction_report(mystic_world, ODD_WHOLE_TONE, mode)
            assert report.mode is RestrictionMode.CANTUS_ONLY
            assert report.restricted_step_count == 1296
            assert report.forbidden_step_count == 48
            assert report.forbidden_class_count == 8

    def test_mystic_odd_whole_tone_both_voices(self, mystic_world):
        for mode in (RestrictionMode.BOTH_VOICES, "BOTH_VOICES"):
            report = scale_restriction_report(mystic_world, ODD_WHOLE_TONE, mode)
            assert report.mode is RestrictionMode.BOTH_VOICES
            assert report.restricted_step_count == 900
            assert report.forbidden_step_count == 24
            assert report.forbidden_class_count == 4
            assert report.forbidden_classes == (
                (0, 0, 4),
                (0, 0, 6),
                (0, 2, 0),
                (0, 2, 4),
            )
        with pytest.raises(ValueError):
            scale_restriction_report(mystic_world, ODD_WHOLE_TONE, "both voices")

    def test_both_voices_classes_are_subset_of_cantus_only(self, mystic_world):
        cantus = scale_restriction_report(
            mystic_world, ODD_WHOLE_TONE, RestrictionMode.CANTUS_ONLY
        )
        both = scale_restriction_report(
            mystic_world, ODD_WHOLE_TONE, RestrictionMode.BOTH_VOICES
        )
        assert set(both.forbidden_classes) <= set(cantus.forbidden_classes)

    def test_fux_full_scale_recount(self, fux_world):
        report = scale_restriction_report(
            fux_world, range(12), RestrictionMode.CANTUS_ONLY
        )
        half = sorted(fux_world.dichotomy.half)
        direct = sum(
            1
            for x in range(12)
            for k in half
            for y in range(12)
            for l in half
            if fux_world.count_at(x, k, y, l) == 0
        )
        assert report.restricted_step_count == 12 * 12 * 6 * 6
        assert report.forbidden_step_count == direct == 600

    def test_empty_scale(self, fux_world):
        report = scale_restriction_report(fux_world, (), RestrictionMode.CANTUS_ONLY)
        assert report.restricted_step_count == 0
        assert report.forbidden_step_count == 0


class TestWalk:
    def test_zero_length_walk(self, fux_world):
        start = DualNumber(0, 3)
        result = walk(fux_world, start, 0, seed=1)
        assert result.path == (start,)
        assert result.completed
        assert result.steps_taken == 0

    def test_negative_length_rejected(self, fux_world):
        with pytest.raises(ValueError):
            walk(fux_world, DualNumber(0, 3), -1, seed=1)
        with pytest.raises(ValueError, match="seed"):
            walk(fux_world, DualNumber(0, 3), 5, seed=-7)

    @pytest.mark.parametrize("name, bad", [
        ("seed", 1.5), ("length", 2.5), ("length", "2"), ("seed", None),
    ])
    def test_non_integer_length_or_seed_rejected(self, fux_world, name, bad):
        args = {"length": 2, "seed": 1, name: bad}
        with pytest.raises(ValueError, match=f"^walk {name} must be a non-negative integer, got {bad!r}$"):
            walk(fux_world, DualNumber(0, 3), **args)

    def test_bool_length_and_seed_still_count_as_integers(self, fux_world):
        start = DualNumber(0, 3)
        assert walk(fux_world, start, True, False) == walk(fux_world, start, 1, 0)

    @pytest.mark.parametrize(
        "world, start, path",
        [
            ("fux", "0+e3",
             "0+e3 5+e8 11+e6 1+e9 6+e9 11+e4 0+e9 1+e4 9+e9 1+e9 6+e3 10+e3 0+e11"),
            ("mystic", "0+e0",
             "0+e0 6+e11 3+e2 7+e8 1+e0 3+e2 11+e4 3+e0 9+e2 11+e11 1+e2 11+e0 5+e4"),
        ],
    )
    def test_golden_short_path(self, request, world, start, path):
        w = request.getfixturevalue(f"{world}_world")
        result = walk(w, DualNumber.parse(start), 12, seed=7)
        assert " ".join(z.render() for z in result.path) == path

    @pytest.mark.parametrize(
        "world, start, digest",
        [
            ("fux", "0+e3", "97bd6095cce51dc477153f5a4b1570e24aaca61e206aa6f75fb956289d0207d3"),
            ("mystic", "0+e0", "e6168ab905053ad3ad97cd2e41b5cd692f17be93dd725fbc081a94a3e1cacd3c"),
        ],
    )
    def test_golden_long_path_digest(self, request, world, start, digest):
        """Paths are frozen across versions: a seed picks the same walk forever."""
        w = request.getfixturevalue(f"{world}_world")
        result = walk(w, DualNumber.parse(start), 4096, seed=11)
        text = " ".join(z.render() for z in result.path)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_seed_determinism(self, fux_world):
        a = walk(fux_world, DualNumber(0, 3), 40, seed=17)
        b = walk(fux_world, DualNumber(0, 3), 40, seed=17)
        assert a == b

    def test_walk_steps_are_valid(self, fux_world):
        result = walk(fux_world, DualNumber(0, 3), 40, seed=5)
        assert result.completed and result.steps_taken == 40
        for xi, eta in zip(result.path, result.path[1:]):
            assert fux_world.count(xi, eta) > 0

    def test_dead_end_at_start(self, mystic_world):
        assert mystic_world.successors(DualNumber(0, 3)) == []
        with pytest.raises(DeadEnd):
            walk(mystic_world, DualNumber(0, 3), 5, seed=0)

    def test_successors_follow_replaced_counts(self, fux_world):
        xi = DualNumber(0, 3)
        assert fux_world.successors(xi)  # fills the successor table
        rows = list(fux_world.counts)
        rows[3] = bytes(144)
        cleared = dataclasses.replace(fux_world, counts=tuple(rows))
        assert cleared.successors(xi) == []
        assert fux_world.successors(xi)
        with pytest.raises(DeadEnd):
            walk(cleared, xi, 1, seed=0)

    def test_mid_walk_dead_end_is_reported_not_raised(self, mystic_world):
        saw_early_stop = False
        for seed in range(12):
            result = walk(mystic_world, DualNumber(0, 1), 30, seed=seed)
            for xi, eta in zip(result.path, result.path[1:]):
                assert mystic_world.count(xi, eta) > 0
            if not result.completed:
                saw_early_stop = True
                assert result.dead_end_at == result.steps_taken
                assert mystic_world.successors(result.path[-1]) == []
            else:
                assert result.dead_end_at is None
                assert result.steps_taken == 30
        assert saw_early_stop, "walks from 0+e1 should sometimes hit a dead end"


class TestWorldSerialization:
    def test_matrix_csv_shape(self, fux_world):
        lines = world_matrix_csv(fux_world).splitlines()
        assert len(lines) == 1 + 144 * 144
        assert lines[0] == "from,to,count"
        assert lines[1] == f"0+e0,0+e0,{fux_world.count_at(0, 0, 0, 0)}"
        assert lines[1 + 3 * 144 + 2 * 12 + 4] == "0+e3,2+e4,2"

    def test_matrix_csv_row_major_order(self, mystic_world):
        lines = world_matrix_csv(mystic_world).splitlines()[1:]
        for i in (0, 143, 144, 7777, 20735):
            x, k = (i // 144) // 12, (i // 144) % 12
            y, l = (i % 144) // 12, (i % 144) % 12
            assert lines[i] == (
                f"{x}+e{k},{y}+e{l},{mystic_world.count_at(x, k, y, l)}"
            )

    def test_histogram_csv(self, mystic_world):
        lines = world_histogram_csv(mystic_world).splitlines()
        assert lines[0] == "symmetries,steps"
        assert lines[1:] == [
            "0,16128",
            "1,576",
            "2,2880",
            "3,0",
            "4,1152",
            "5,0",
        ]
