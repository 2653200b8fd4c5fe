import math
from fractions import Fraction
from statistics import NormalDist

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from counterpoint import (
    DegeneratePopulation,
    EmptyCategory,
    EmptySample,
    PopulationSpec,
    SdDivisor,
    chi_square_gof,
    chi_square_sf,
    effect_size,
    sample_summary,
)
from paper_witnesses import witness_sample

FUX_HISTOGRAM = {0: 6720, 1: 4992, 2: 5568, 3: 1440, 4: 1152, 5: 864}
MYSTIC_HISTOGRAM = {0: 16128, 1: 576, 2: 2880, 3: 0, 4: 1152, 5: 0}


def erfc_sf(x: float, df: int) -> float:
    """Closed-form chi-square survival function for odd df in {1, 3, 5}."""
    tail = math.erfc(math.sqrt(x / 2))
    bump = math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    if df == 1:
        return tail
    if df == 3:
        return tail + bump
    if df == 5:
        return tail + bump * (1 + x / 3)
    raise ValueError(df)


class TestPopulationSpec:
    def test_fux_population(self):
        pop = PopulationSpec.from_histogram(FUX_HISTOGRAM)
        assert pop.mean == Fraction(17, 12)
        assert abs(pop.sd - 1.3650743) < 1e-6
        assert pop.support == (0, 1, 2, 3, 4, 5)
        assert sum(pop.probabilities.values()) == 1

    def test_mystic_population(self):
        pop = PopulationSpec.from_histogram(MYSTIC_HISTOGRAM)
        assert pop.mean == Fraction(19, 36)
        assert abs(pop.sd - 1.0925534) < 1e-6
        assert pop.support == (0, 1, 2, 4)  # zero-frequency bins drop out
        assert pop.probabilities[4] == Fraction(1152, 20736)

    def test_empty_population_rejected(self):
        with pytest.raises(EmptySample):
            PopulationSpec.from_histogram({})

    @pytest.mark.parametrize("histogram, category", [
        ({0: 5, 1: -1, 2: 1}, 1),
        ({0: -1, 1: 2}, 0),
    ], ids=["dropped", "negative-variance"])
    def test_negative_frequency_rejected(self, histogram, category):
        with pytest.raises(ValueError, match=f"category {category} has negative frequency -1"):
            PopulationSpec.from_histogram(histogram)

    @pytest.mark.parametrize("histogram, entry", [
        ({0: 0.5, 1: 1}, "category 0 with frequency 0.5"),
        ({0: 1.0, 1: 1}, "category 0 with frequency 1.0"),
        ({0.5: 1, 1: 1}, "category 0.5 with frequency 1"),
    ], ids=["fractional-frequency", "float-frequency", "fractional-category"])
    def test_non_integer_rejected(self, histogram, entry):
        with pytest.raises(ValueError, match=f"{entry}: both must be integers"):
            PopulationSpec.from_histogram(histogram)


class TestSampleSummary:
    def test_constant_sample(self):
        s = sample_summary([2, 2, 2], support=range(6))
        assert s.n == 3
        assert s.mean == 2
        assert s.sd == 0.0
        assert s.observed_map()[2] == 3

    def test_population_divisor(self):
        s = sample_summary([0, 1, 2, 3], support=range(6))
        assert s.mean == Fraction(3, 2)
        assert abs(s.sd - math.sqrt(1.25)) < 1e-12
        assert s.divisor is SdDivisor.N

    def test_sample_divisor(self):
        for divisor in (SdDivisor.N_MINUS_1, "N_MINUS_1"):
            s = sample_summary([0, 1, 2, 3], support=range(6), sd_divisor=divisor)
            assert abs(s.sd - math.sqrt(5 / 3)) < 1e-12
            assert s.divisor is SdDivisor.N_MINUS_1
        with pytest.raises(ValueError):
            sample_summary([0, 1, 2, 3], support=range(6), sd_divisor="n - 1")

    def test_overflow_detection(self):
        s = sample_summary([0, 9, 1], support=range(6))
        assert s.overflow_values == (9,)

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySample):
            sample_summary([], support=range(6))

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=200),
        divisor=st.sampled_from(SdDivisor),
    )
    def test_equals_two_pass_definition(self, counts, divisor):
        support = range(6)  # values 6..9 overflow
        n = len(counts)
        mean = Fraction(sum(counts), n)
        dev2 = sum((Fraction(v) - mean) ** 2 for v in counts)
        if divisor is SdDivisor.N_MINUS_1:
            variance = dev2 / (n - 1) if n > 1 else Fraction(0)
        else:
            variance = dev2 / n
        s = sample_summary(counts, support, divisor)
        assert s.n == n
        assert s.observed == tuple((c, counts.count(c)) for c in support)
        assert s.overflow_values == tuple(v for v in counts if v not in support)
        assert s.mean == mean
        assert s.sd == math.sqrt(variance)
        assert s.divisor is divisor


def _twelve_summing_to(total: int) -> list:
    """Twelve integer counts, as even as possible, with the given sum."""
    q, r = divmod(total, 12)
    return [q + 1] * r + [q] * (12 - r)


def _z(alpha: float) -> float:
    pop = PopulationSpec.from_histogram(FUX_HISTOGRAM)
    return effect_size(sample_summary([2] * 30, pop.support), pop, alpha).z


class TestEffectSize:
    # The per-passage anchors run on the synthetic witness scores.
    def test_fux_first_passage(self, fux_world):
        res = effect_size(*witness_sample(1, fux_world))
        assert abs(abs(res.d) - 0.061) < 1e-3
        assert res.d < 0
        assert abs(res.half_width - 0.30031) < 1e-5

    def test_mystic_first_passage(self, mystic_world):
        res = effect_size(*witness_sample(1, mystic_world))
        assert abs(res.d - 1.4390) < 1e-3

    def test_fux_second_passage(self, fux_world):
        res = effect_size(*witness_sample(2, fux_world))
        assert abs(res.d - 0.1879) < 1e-3
        assert abs(res.ci_low - (-0.0402)) < 1e-3
        assert abs(res.ci_high - 0.4160) < 1e-3

    def test_mystic_second_passage(self, mystic_world):
        res = effect_size(*witness_sample(2, mystic_world))
        assert abs(res.d - 0.1506) < 1e-3
        assert abs(res.ci_low - (-0.0775)) < 1e-3
        assert abs(res.ci_high - 0.3787) < 1e-3

    def test_ci_is_centered(self):
        pop = PopulationSpec.from_histogram(FUX_HISTOGRAM)
        res = effect_size(sample_summary([2] * 30, pop.support), pop)
        assert abs((res.ci_low + res.ci_high) / 2 - res.d) < 1e-12
        assert res.alpha == 0.10

    @given(
        plus=st.lists(
            st.integers(min_value=0, max_value=5), min_size=12, max_size=12
        ).filter(lambda counts: sum(counts) <= 34)
    )
    def test_antisymmetry_around_population_mean(self, plus):
        # Sums s and 34 - s over n = 12 give means 17/12 +- delta around the
        # fux mean 17/12.
        pop = PopulationSpec.from_histogram(FUX_HISTOGRAM)
        minus = _twelve_summing_to(34 - sum(plus))
        assert Fraction(sum(plus) + sum(minus), 24) == pop.mean
        plus_d = effect_size(sample_summary(plus, pop.support), pop).d
        minus_d = effect_size(sample_summary(minus, pop.support), pop).d
        assert abs(plus_d + minus_d) < 1e-12

    def test_degenerate_population_rejected(self):
        pop = PopulationSpec.from_histogram({3: 100})
        assert pop.sd == 0
        with pytest.raises(DegeneratePopulation):
            effect_size(sample_summary([3] * 10, pop.support), pop)

    @pytest.mark.parametrize("alpha", [1e-3, 1e-6, 1e-10, 1e-14, 1e-300, 1e-323])
    def test_small_alpha_matches_normal_dist(self, alpha):
        assert _z(alpha) == -NormalDist().inv_cdf(alpha / 2)

    @pytest.mark.parametrize("alpha, z", [(0.10, 1.6448536269514726), (0.05, 1.9599639845400538)])
    def test_z_at_the_usual_alphas(self, alpha, z):
        assert _z(alpha) == z

    @given(alpha=st.floats(min_value=1e-323, max_value=1.0, exclude_max=True))
    @example(alpha=1e-323)
    def test_z_is_the_normal_quantile_of_half_alpha(self, alpha):
        z = _z(alpha)
        assert math.isfinite(z) and z > 0
        assert z == -NormalDist().inv_cdf(alpha / 2)

    @given(
        a=st.floats(min_value=1e-323, max_value=1.0, exclude_max=True),
        b=st.floats(min_value=1e-323, max_value=1.0, exclude_max=True),
    )
    @example(a=1e-323, b=1.5e-323)
    def test_z_falls_as_alpha_rises(self, a, b):
        # Neighbouring floats can round to one z, so the pair differs by more than that.
        low, high = sorted((a, b))
        assume(high > low * (1 + 1e-9))
        assert _z(low) > _z(high)

    @pytest.mark.parametrize("alpha", [0.0, 5e-324, 1.0, 1.5, -0.1, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # 5e-324 is inside (0, 1), but its half underflows to 0.0.
        with pytest.raises(ValueError, match="alpha"):
            _z(alpha)


class TestChiSquareGof:
    def test_perfect_fit(self):
        pop = PopulationSpec.from_histogram({0: 1, 1: 1})
        sample = sample_summary([0] * 5 + [1] * 5, support=pop.support)
        res = chi_square_gof(sample, pop)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.df == 1

    def test_two_category_yates_value(self):
        pop = PopulationSpec.from_histogram({0: 1, 1: 1})
        sample = sample_summary([0] * 7 + [1] * 3, support=pop.support)
        corrected = chi_square_gof(sample, pop, yates=True)
        plain = chi_square_gof(sample, pop, yates=False)
        assert abs(corrected.statistic - 0.9) < 1e-12
        assert abs(plain.statistic - 1.6) < 1e-12
        assert corrected.yates and not plain.yates

    def test_degrees_of_freedom_follow_support(self):
        fux = PopulationSpec.from_histogram(FUX_HISTOGRAM)
        mystic = PopulationSpec.from_histogram(MYSTIC_HISTOGRAM)
        sample_f = sample_summary([0, 1, 2, 3, 4, 5], support=fux.support)
        sample_m = sample_summary([0, 1, 2, 4], support=mystic.support)
        assert chi_square_gof(sample_f, fux).df == 5
        assert chi_square_gof(sample_m, mystic).df == 3

    @given(
        counts=st.lists(
            st.integers(min_value=0, max_value=5), min_size=8, max_size=40
        )
    )
    def test_yates_never_exceeds_uncorrected(self, counts):
        pop = PopulationSpec.from_histogram(FUX_HISTOGRAM)
        sample = sample_summary(counts, support=pop.support)
        corrected = chi_square_gof(sample, pop, yates=True)
        plain = chi_square_gof(sample, pop, yates=False)
        assert corrected.statistic <= plain.statistic + 1e-12

    def test_overflow_raises_empty_category(self):
        pop = PopulationSpec.from_histogram(MYSTIC_HISTOGRAM)
        sample = sample_summary([0, 1, 3], support=pop.support)
        assert sample.overflow_values == (3,)  # 3 has population frequency zero
        with pytest.raises(EmptyCategory):
            chi_square_gof(sample, pop)

    def test_values_outside_population_support_raise_empty_category(self):
        # Summarized over 0..5, not the mystic support: the six 3s are in
        # ``observed``, not ``overflow_values``, and must still be rejected.
        pop = PopulationSpec.from_histogram(MYSTIC_HISTOGRAM)
        sample = sample_summary([0] * 20 + [3] * 6 + [2] * 4, support=range(6))
        assert sample.overflow_values == ()
        with pytest.raises(EmptyCategory, match=r"observed values \[3\] lie outside"):
            chi_square_gof(sample, pop)

    def test_result_does_not_depend_on_the_summary_support(self):
        # Zero counts outside the population support are ignored, and
        # overflow inside it is counted.
        pop = PopulationSpec.from_histogram(MYSTIC_HISTOGRAM)
        counts = [0] * 20 + [2] * 4 + [4] * 6
        expected = chi_square_gof(sample_summary(counts, support=pop.support), pop)
        for support in (range(6), range(3)):
            assert chi_square_gof(sample_summary(counts, support), pop) == expected

    def test_merge_low_expected_pools_categories(self):
        pop = PopulationSpec.from_histogram(FUX_HISTOGRAM)
        sample = sample_summary([0] * 10 + [1] * 5 + [2] * 5, support=pop.support)
        merged = chi_square_gof(sample, pop, merge_low_expected=True)
        plain = chi_square_gof(sample, pop, merge_low_expected=False)
        assert merged.categories == ((0,), (1, 2, 3, 4, 5))
        assert len(merged.categories) < len(plain.categories)
        assert all(e >= 5 for e in merged.expected)
        assert sum(merged.observed) == sum(plain.observed) == 20
        assert abs(sum(merged.expected) - 20) < 1e-9
        assert merged.df == len(merged.categories) - 1 == 1

    @given(
        frequencies=st.lists(
            st.integers(min_value=0, max_value=40), min_size=1, max_size=8
        ).filter(any),
        data=st.data(),
    )
    def test_pooled_groups_partition_the_support(self, frequencies, data):
        pop = PopulationSpec.from_histogram(dict(enumerate(frequencies)))
        counts = data.draw(
            st.lists(st.sampled_from(pop.support), min_size=1, max_size=60)
        )
        sample = sample_summary(counts, support=pop.support)
        exact = {c: sample.n * pop.probabilities[c] for c in pop.support}
        cells = [exact[c] for c in pop.support]
        # Two groups of expected count >= 5 exist iff some cut allows them.
        if not any(
            sum(cells[:i]) >= 5 and sum(cells[i:]) >= 5 for i in range(1, len(cells))
        ):
            with pytest.raises(EmptySample):
                chi_square_gof(sample, pop, merge_low_expected=True)
            return
        res = chi_square_gof(sample, pop, merge_low_expected=True)
        assert all(res.categories)
        assert tuple(c for group in res.categories for c in group) == pop.support
        observed = sample.observed_map()
        for group, o, e in zip(res.categories, res.observed, res.expected):
            assert o == sum(observed[c] for c in group)
            assert abs(e - float(sum(exact[c] for c in group))) < 1e-9
            assert e >= 5
        assert sum(res.observed) == sample.n
        assert abs(sum(res.expected) - sample.n) < 1e-9

    def test_merge_that_leaves_one_cell_is_rejected(self):
        pop = PopulationSpec.from_histogram(FUX_HISTOGRAM)
        sample = sample_summary([0] * 6 + [1] * 2, support=pop.support)
        with pytest.raises(EmptySample):
            chi_square_gof(sample, pop, merge_low_expected=True)


class TestChiSquareSurvival:
    def test_at_zero(self):
        for df in range(1, 11):
            assert chi_square_sf(0.0, df) == 1.0

    def test_monotone_decreasing(self):
        for df in (1, 3, 5, 8):
            values = [chi_square_sf(x / 2, df) for x in range(0, 80)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_df2_is_analytic_exponential(self):
        for x in (0.5, 1.0, 5.0, 20.0):
            assert abs(chi_square_sf(x, 2) - math.exp(-x / 2)) <= 1e-12

    @pytest.mark.parametrize("df", [1, 3, 5])
    def test_matches_closed_form_for_odd_df(self, df):
        for x in (0.1, 0.57184, 1.0, 3.7, 7.83, 12.0, 36.385, 57.72):
            assert abs(chi_square_sf(x, df) - erfc_sf(x, df)) < 1e-10

    def test_reference_points(self):
        assert abs(chi_square_sf(7.83, 5) - 0.16585688) < 1e-7
        assert abs(chi_square_sf(0.57184, 3) - 0.9028480) < 5e-6
        assert abs(chi_square_sf(36.385, 5) - 7.954e-7) < 5e-10
        assert abs(chi_square_sf(57.72, 3) / 1.8e-12 - 1) < 0.05

    def test_quoted_survival_of_7p83_matches_at_print_precision(self):
        # A widely quoted tail value 0.16575 for (7.83, 5) corresponds to a
        # statistic of about 7.8318; at two-decimal print precision of the
        # statistic both figures are consistent.
        lo, hi = 7.825, 7.835
        assert chi_square_sf(hi, 5) < 0.16575 < chi_square_sf(lo, 5)
        for _ in range(60):
            mid = (lo + hi) / 2
            if chi_square_sf(mid, 5) > 0.16575:
                lo = mid
            else:
                hi = mid
        assert abs(lo - 7.8318401) < 1e-4
        assert abs(chi_square_sf(lo, 5) - 0.16575) < 5e-6

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chi_square_sf(-1.0, 3)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)

    def test_rejects_nan_statistic(self):
        with pytest.raises(ValueError, match="statistic must be non-negative"):
            chi_square_sf(float("nan"), 3)

    def test_rejects_nan_degrees_of_freedom(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            chi_square_sf(1.0, float("nan"))

    def test_infinite_statistic_has_zero_tail(self):
        for df in (1, 3, 5):
            assert chi_square_sf(float("inf"), df) == 0.0
