"""Acceptance gate: ten primary criteria, one visible PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py``; each criterion prints its
verdict to the real stdout even under capture, then asserts.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from counterpoint import (
    Dichotomy,
    Modulus,
    RestrictionMode,
    ScoreFormat,
    all_class_orbit_sizes,
    build_world,
    chi_square_gof,
    chi_square_sf,
    chord_endomorphisms,
    classify,
    effect_size,
    extract_transitions,
    parse_score,
    sample_summary,
    scale_restriction_report,
    score_against_world,
    strength,
    strong_atlas,
    COLUMN_CANTUS,
)
from oracles import (
    apply,
    commutes_algebraic,
    commutes_pointwise,
    enumerate_dual_symmetries,
    local_polarity,
)
from paper_witnesses import PAPER_TALLIES, WITNESSES, witness_sample

FUX_HISTOGRAM = {0: 6720, 1: 4992, 2: 5568, 3: 1440, 4: 1152, 5: 864}
MYSTIC_HISTOGRAM = {0: 16128, 1: 576, 2: 2880, 3: 0, 4: 1152, 5: 0}


@pytest.fixture()
def verdict(capsys):
    """Emit one visible PASS/FAIL line per criterion, then assert."""

    def emit(number: int, title: str, failures: list) -> None:
        status = "PASS" if not failures else "FAIL"
        line = f"[criterion {number}] {status} — {title}"
        if failures:
            line += " :: " + "; ".join(failures)
        with capsys.disabled():
            print(line, flush=True)
        assert not failures, line

    return emit


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def test_criterion_1_world_fingerprints(verdict):
    failures: list = []
    timings = {}
    worlds = {}
    for name, expected in (("fux", FUX_HISTOGRAM), ("mystic", MYSTIC_HISTOGRAM)):
        start = time.perf_counter()
        world = build_world(Dichotomy.parse(name))
        timings[name] = time.perf_counter() - start
        worlds[name] = world
        _check(
            failures,
            world.histogram == expected,
            f"{name} histogram {world.histogram} != {expected}",
        )
        _check(
            failures,
            timings[name] < 10.0,
            f"{name} build took {timings[name]:.2f}s (limit 10s)",
        )
    detail = ", ".join(f"{k} {v * 1000:.0f}ms" for k, v in timings.items())
    verdict(1, f"step-count histograms exact; builds {detail}", failures)


def test_criterion_2_worked_steps(fux_world, verdict):
    failures: list = []
    _check(
        failures,
        fux_world.count_at(0, 3, 2, 4) == 2,
        f"count(0+e3 -> 2+e4) = {fux_world.count_at(0, 3, 2, 4)} != 2",
    )
    _check(
        failures,
        fux_world.count_at(0, 7, 2, 7) == 0,
        f"count(0+e7 -> 2+e7) = {fux_world.count_at(0, 7, 2, 7)} != 0",
    )
    top = max(max(row) for row in fux_world.counts)
    _check(failures, top == 5, f"max step count {top} != 5")
    verdict(2, "worked steps 2/0 and maximum 5, exact", failures)


def test_criterion_3_moments_and_derived_sd(fux_world, mystic_world, verdict):
    from counterpoint import world_moments

    failures: list = []
    fux_m = world_moments(fux_world)
    _check(failures, f"{float(fux_m.mean):.4f}" == "1.4167", f"fux mean {float(fux_m.mean):.4f}")
    _check(failures, f"{fux_m.sd:.4f}" == "1.3651", f"fux sd {fux_m.sd:.4f}")
    mys_m = world_moments(mystic_world)
    _check(failures, f"{float(mys_m.mean):.4f}" == "0.5278", f"mystic mean {float(mys_m.mean):.4f}")
    _check(
        failures,
        abs(mys_m.sd - 1.0925) <= 1e-4,
        f"mystic sd {mys_m.sd:.6f} outside 1.0925 +- 0.0001",
    )
    _check(
        failures,
        mys_m.note is not None and "1.9026" in mys_m.note,
        "mystic sd discrepancy note missing",
    )
    # Effect sizes of the two synthetic witness passages in the mystic world.
    big = effect_size(*witness_sample(1, mystic_world))
    small = effect_size(*witness_sample(2, mystic_world))
    _check(failures, abs(big.d - 1.438) <= 2e-3, f"effect size {big.d:.4f} != 1.438 +- 0.002")
    _check(failures, abs(small.d - 0.151) <= 2e-3, f"effect size {small.d:.4f} != 0.151 +- 0.002")
    verdict(
        3,
        "moments at 4 decimals; derived mystic sd with note; cross-check effect sizes",
        failures,
    )


def test_criterion_4_probabilities_and_independence(fux_world, mystic_world, verdict):
    from counterpoint import world_overlap

    failures: list = []
    overlap = world_overlap(fux_world, mystic_world)
    _check(failures, overlap.p_a == Fraction(14016, 20736), f"p_F = {overlap.p_a}")
    _check(failures, overlap.p_b == Fraction(4608, 20736), f"p_M = {overlap.p_b}")
    _check(failures, overlap.p_ab == Fraction(2976, 20736), f"p_FM = {overlap.p_ab}")
    _check(
        failures,
        overlap.gap < Fraction(1, 110),
        f"independence gap {overlap.gap} >= 1/110",
    )
    verdict(4, "exact step probabilities and independence gap < 1/110", failures)


def test_criterion_5_statistics_anchors(fux_world, verdict):
    failures: list = []

    # Effect-size anchor at n = 30 against the marked-half population, from
    # the synthetic passage-1 witness.
    sample, pop = witness_sample(1, fux_world)
    res = effect_size(sample, pop)
    _check(failures, res.d < 0, f"effect size sign {res.d:+.4f}, expected negative")
    _check(
        failures,
        abs(abs(res.d) - 0.061) <= 1e-3,
        f"|d| = {abs(res.d):.4f} != 0.061 +- 0.001",
    )
    _check(
        failures,
        abs(res.half_width - 0.3005) <= 5e-4,
        f"CI half-width {res.half_width:.5f} != 0.3005 +- 0.0005",
    )
    low, high = abs(res.d) - res.half_width, abs(res.d) + res.half_width
    _check(
        failures,
        abs(low - (-0.239)) <= 1.5e-3 and abs(high - 0.362) <= 1.5e-3,
        f"CI [{low:.4f}, {high:.4f}] does not reproduce [-0.239, 0.362] at print precision",
    )

    # Survival-function anchors.  The quoted pair (7.83, 0.16575) is one
    # statistic at two precisions: the passage-1 fux statistic is 7.831936
    # (criterion 10), printed at two decimals, while the quoted tail belongs
    # to the unrounded statistic (sf 0.165744 there, 0.165857 at 7.83 itself).
    # Both halves are pinned: the function must equal the closed form at
    # 7.83 exactly, and the quoted tail must correspond to a statistic that
    # prints as 7.83 (two decimals).
    closed = math.erfc(math.sqrt(7.83 / 2)) + math.sqrt(
        2 * 7.83 / math.pi
    ) * math.exp(-7.83 / 2) * (1 + 7.83 / 3)
    got = chi_square_sf(7.83, 5)
    _check(failures, abs(got - closed) < 1e-10, f"sf(7.83,5) {got:.8f} != closed form {closed:.8f}")
    lo, hi = 7.825, 7.835
    bracket = chi_square_sf(hi, 5) < 0.16575 < chi_square_sf(lo, 5)
    _check(failures, bracket, "0.16575 is not attained by any statistic printing as 7.83")
    if bracket:
        for _ in range(60):
            mid = (lo + hi) / 2
            if chi_square_sf(mid, 5) > 0.16575:
                lo = mid
            else:
                hi = mid
        _check(
            failures,
            abs(chi_square_sf(lo, 5) - 0.16575) <= 5e-6 and abs(lo - 7.83) <= 5e-3,
            f"anchor preimage {lo:.5f} inconsistent with 0.16575 +- 5e-6",
        )
    sf_b = chi_square_sf(57.72, 3)
    _check(failures, 1.75e-12 <= sf_b < 1.85e-12, f"sf(57.72,3) = {sf_b:.3e} != 1.8e-12 (2 s.f.)")
    sf_c = chi_square_sf(36.385, 5)
    _check(failures, 7.945e-7 <= sf_c < 7.955e-7, f"sf(36.385,5) = {sf_c:.4e} != 7.95e-7 (3 s.f.)")
    sf_d = chi_square_sf(0.57184, 3)
    _check(failures, abs(sf_d - 0.90285) <= 5e-6, f"sf(0.57184,3) = {sf_d:.6f} != 0.90285 +- 5e-6")

    # End-to-end pipeline on a synthetic fixture with a hand-computed result.
    score = "\n".join(
        [
            "measure,beat,cantus,discant",
            "1,1,60,63",
            "1,2,62,66",
            "1,3,60,67",
            "1,4,62,69",
        ]
    )
    events = parse_score(score, ScoreFormat.TWO_VOICE)
    seq = extract_transitions(events, COLUMN_CANTUS)
    counts = score_against_world(seq, fux_world)
    sample = sample_summary(counts, pop.support)
    chi = chi_square_gof(sample, pop)
    observed = sample.observed_map()
    by_hand = 0.0
    for category in pop.support:
        expected = 3 * float(pop.probabilities[category])
        deviation = max(abs(observed.get(category, 0) - expected) - 0.5, 0.0)
        by_hand += deviation * deviation / expected
    _check(
        failures,
        abs(chi.statistic - by_hand) < 1e-12,
        f"pipeline chi-square {chi.statistic:.10f} != hand-computed {by_hand:.10f}",
    )
    _check(
        failures,
        chi.p_value == chi_square_sf(chi.statistic, chi.df) and chi.df == 5,
        "pipeline p-value/df not reproducible",
    )
    hand_d = (float(sample.mean) - float(pop.mean)) / pop.sd
    pipeline_d = effect_size(sample, pop).d
    _check(
        failures,
        abs(pipeline_d - hand_d) < 1e-12,
        f"pipeline effect size {pipeline_d:.10f} != hand-computed {hand_d:.10f}",
    )
    verdict(
        5,
        "effect-size and survival anchors; synthetic pipeline matches hand computation",
        failures,
    )


def test_criterion_6_dichotomy_atlas(verdict):
    failures: list = []
    atlas = strong_atlas()
    _check(failures, len(atlas) == 6, f"{len(atlas)} strong classes != 6")
    total_strong = sum(cls.orbit_size for cls in atlas)
    _check(failures, total_strong == 288, f"{total_strong} strong half-sets != 288")
    every = all_class_orbit_sizes()
    _check(failures, sum(every.values()) == 924, f"classes cover {sum(every.values())} != 924 half-sets")
    fux_cert = strength(Dichotomy.fux())
    mys_cert = strength(Dichotomy.mystic())
    _check(
        failures,
        fux_cert.is_strong and fux_cert.polarity.render() == "e^2.5",
        "marked-consonance polarity != e^2.5",
    )
    _check(
        failures,
        mys_cert.is_strong and mys_cert.polarity.render() == "e^9.11",
        "mystic polarity != e^9.11",
    )
    alias = classify(Dichotomy.mystic()).alias
    _check(failures, alias is not None and "78" in alias, f"mystic alias {alias!r} lacks '78'")
    verdict(6, "6 strong classes over 288 of 924 half-sets; polarities and alias", failures)


def test_criterion_7_chord_endomorphisms(verdict):
    from itertools import combinations

    failures: list = []
    report = chord_endomorphisms({0, 4, 7})
    _check(
        failures,
        len(report.endomorphisms) == 8,
        f"{len(report.endomorphisms)} endomorphisms != 8",
    )
    _check(
        failures,
        report.linear_parts == (0, 1, 3, 4, 8, 9),
        f"linear parts {report.linear_parts}",
    )
    _check(failures, report.strong_verdict is True, "major-triad strong verdict is not true")
    triads = list(combinations((0, 2, 4, 6, 8, 10), 3))
    verdicts = [chord_endomorphisms(t).strong_verdict for t in triads]
    _check(
        failures,
        len(triads) == 20 and not any(verdicts),
        "some whole-tone triad produced a true verdict",
    )
    verdict(7, "major-triad endomorphism monoid; 20 whole-tone triads all fail", failures)


def test_criterion_8_scale_restriction(mystic_world, verdict):
    failures: list = []
    scale = (1, 3, 5, 7, 9, 11)
    cantus_only = scale_restriction_report(
        mystic_world, scale, RestrictionMode.CANTUS_ONLY
    )
    both = scale_restriction_report(mystic_world, scale, RestrictionMode.BOTH_VOICES)
    numbers = {cantus_only.forbidden_class_count, both.forbidden_class_count}
    _check(failures, numbers == {8, 4}, f"forbidden-class counts {numbers} != {{8, 4}}")
    # Frozen mode-to-number mapping.
    _check(
        failures,
        cantus_only.forbidden_class_count == 8,
        f"CANTUS_ONLY -> {cantus_only.forbidden_class_count} != 8",
    )
    _check(
        failures,
        both.forbidden_class_count == 4,
        f"BOTH_VOICES -> {both.forbidden_class_count} != 4",
    )
    verdict(8, "odd whole-tone restriction yields {8, 4}; mapping frozen", failures)


def test_criterion_9_property_suites(fux_world, mystic_world, verdict):
    failures: list = []

    # Translation covariance, exhaustive over both worlds.
    n = 12
    covariant = True
    for world in (fux_world, mystic_world):
        for x in range(n):
            for k in range(n):
                row = world.counts[n * x + k]
                shifted = world.counts[n * ((x + 1) % n) + k]
                for col in range(n * n):
                    if row[col] != shifted[n * ((col // n + 1) % n) + col % n]:
                        covariant = False
    _check(failures, covariant, "translation covariance violated")

    # Group closure of the symmetry pool: the pool is exactly the maps with
    # unit base, units are closed under multiplication, and composition
    # (spot-checked against the structural argument) keeps the base a unit.
    pool = list(enumerate_dual_symmetries())
    members = set(pool)
    units = Modulus().units()
    structure = {
        (a, b, s, t)
        for a in units
        for b in range(n)
        for s in range(n)
        for t in range(n)
    }
    _check(
        failures,
        {(g.a, g.b, g.s, g.t) for g in pool} == structure and len(pool) == 6912,
        "pool is not exactly the 6912 unit-base maps",
    )
    _check(
        failures,
        all((u * v) % n in units for u in units for v in units),
        "units are not closed under multiplication",
    )
    rng = random.Random(2026)
    sampled_ok = all(
        rng.choice(pool).compose(rng.choice(pool)) in members for _ in range(300)
    ) and all(rng.choice(pool).invert() in members for _ in range(300))
    _check(failures, sampled_ok, "sampled compositions or inverses left the pool")

    # Involutivity of both preset polarities, globally and at every cantus.
    for d in (Dichotomy.fux(), Dichotomy.mystic()):
        p = strength(d).polarity
        involutive = all(apply(p, apply(p, x)) == x for x in range(n))
        _check(failures, involutive, f"{d.render()} polarity not involutive")
        for x in range(n):
            local = local_polarity(d, x)
            _check(
                failures,
                local.compose(local).is_identity(),
                f"local polarity at cantus {x} not involutive",
            )

    # Commutation checks agree pointwise vs algebraically on a full scan.
    pol = local_polarity(Dichotomy.fux(), 4)
    agree = all(
        commutes_pointwise(g, pol) == commutes_algebraic(g, pol) for g in pool
    )
    _check(failures, agree, "pointwise and algebraic commutation checks disagree")

    # Analytic chi-square survival at df = 2.
    analytic = all(
        abs(chi_square_sf(x, 2) - math.exp(-x / 2)) <= 1e-12
        for x in (0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 40.0)
    )
    _check(failures, analytic, "sf(x, 2) drifts from exp(-x/2) beyond 1e-12")

    verdict(
        9,
        "covariance, pool closure, involutivity, commutation agreement, df=2 analytic",
        failures,
    )


def _printed_like(value: float, quoted: str) -> str:
    """``value`` printed with as many decimals as ``quoted``, in its fixed or exponent form."""
    mantissa, _, exponent = quoted.partition("e")
    return f"{value:.{len(mantissa.partition('.')[2])}{'e' if exponent else 'f'}}"


def test_criterion_10_paper_table_from_observed_tallies(fux_world, mystic_world, verdict):
    failures: list = []
    worlds = {"fux": fux_world, "mystic": mystic_world}
    for passage, name, n, tally, chi2, p, d, ci in PAPER_TALLIES:
        where = f"passage {passage} {name}"
        sample, pop = witness_sample(passage, worlds[name])
        chi = chi_square_gof(sample, pop)
        effect = effect_size(sample, pop)
        # n + 1 events give n steps only if CONSECUTIVE dedup dropped none.
        events = len(WITNESSES[passage])
        _check(
            failures,
            sample.n == n == events - 1,
            f"{where}: n {sample.n} from {events} events != {n}",
        )
        observed = tuple(count for _, count in sample.observed)
        _check(failures, observed == tally, f"{where}: witness tally {observed} != {tally}")
        _check(failures, chi.yates and chi.df == len(tally) - 1, f"{where}: not Yates, unpooled")
        figures = {"chi2": (chi.statistic, chi2), "p": (chi.p_value, p), "d": (effect.d, d)}
        if ci is not None:
            figures.update({"CI low": (effect.ci_low, ci[0]), "CI high": (effect.ci_high, ci[1])})
        for label, (value, quoted) in figures.items():
            got = _printed_like(value, quoted)
            _check(failures, got == quoted, f"{where}: {label} {got} != {quoted}")
    verdict(
        10,
        "paper's table from synthetic witnesses: tallies, chi-square, p, d, CI via the real chain",
        failures,
    )
