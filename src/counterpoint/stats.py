"""Sample statistics against world populations.

Populations come from world histograms (exact rational category
probabilities); a sample is built one way, by ``sample_summary`` from a
sequence of per-step symmetry counts.  Both are summarized from a
``{value: frequency}`` tally in exact arithmetic.  The
module provides standardized effect sizes with confidence intervals whose
normal quantile comes from ``statistics.NormalDist.inv_cdf``, and a
chi-square goodness-of-fit test with optional Yates continuity correction,
backed by a self-contained chi-square survival function (regularized upper
incomplete gamma).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Mapping, Sequence
from enum import Enum
from fractions import Fraction
from statistics import NormalDist

from .residue_algebra import _Value


class DegeneratePopulation(ValueError):
    """The population standard deviation is zero; effect size is undefined."""


class EmptyCategory(ValueError):
    """An observed value falls in a category of zero population probability."""


class EmptySample(ValueError):
    """The sample contains no observations."""


class SdDivisor(Enum):
    N = "N"
    N_MINUS_1 = "N_MINUS_1"


def _moments(tally: Mapping[int, int], empty: str) -> tuple[int, Fraction, Fraction]:
    """Size, mean and population variance of a ``{value: frequency}`` tally, exactly.

    Raises ``ValueError`` on a non-integer or negative entry, ``EmptySample(empty)`` on no mass.
    """
    for c, f in tally.items():
        if not (isinstance(c, int) and isinstance(f, int)):
            raise ValueError(f"category {c!r} with frequency {f!r}: both must be integers")
        if f < 0:
            raise ValueError(f"category {c} has negative frequency {f}")
    size = sum(tally.values())
    if size <= 0:
        raise EmptySample(empty)
    first = sum(v * f for v, f in tally.items())
    second = sum(v * v * f for v, f in tally.items())
    return size, Fraction(first, size), Fraction(size * second - first * first, size * size)


class PopulationSpec(_Value):
    """Category distribution of a step-count population.

    ``support`` lists the categories with nonzero frequency; their exact
    probabilities sum to one.
    """

    __slots__ = ("mean", "variance", "sd", "support", "probabilities")

    @classmethod
    def from_histogram(cls, histogram: dict[int, int]) -> "PopulationSpec":
        total, mean, variance = _moments(histogram, "population histogram has no mass")
        support = tuple(sorted(c for c, f in histogram.items() if f > 0))
        probabilities = {c: Fraction(histogram[c], total) for c in support}
        return cls(mean, variance, math.sqrt(variance), support, probabilities)


class SampleSummary(_Value):
    """Observed step counts summarized against a population support.

    ``observed`` holds ((category, count), ...) over the support.  Values
    outside the support are listed in ``overflow_values`` and do not appear
    in ``observed``.  The sd divisor is n by default (``SdDivisor.N``).
    """

    __slots__ = ("n", "observed", "overflow_values", "mean", "sd", "divisor")

    def observed_map(self) -> dict:
        return dict(self.observed)


def sample_summary(
    counts: Sequence[int],
    support: Sequence[int],
    sd_divisor: SdDivisor = SdDivisor.N,
) -> SampleSummary:
    """Summarize raw symmetry counts over a population support."""
    sd_divisor = SdDivisor(sd_divisor)
    counts = list(counts)
    tally = Counter(counts)
    n, mean, variance = _moments(tally, "no observations")
    if sd_divisor is SdDivisor.N_MINUS_1:
        variance = variance * n / (n - 1) if n > 1 else Fraction(0)
    support_set = set(support)
    return SampleSummary(
        n,
        tuple((c, tally[c]) for c in sorted(support_set)),
        tuple(v for v in counts if v not in support_set),
        mean,
        math.sqrt(variance),
        sd_divisor,
    )


class EffectSizeResult(_Value):
    __slots__ = ("d", "ci_low", "ci_high", "alpha", "z")

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2


def _require_alpha(alpha: float) -> None:
    # Checked on alpha / 2, so an alpha whose half underflows to 0.0 fails here too.
    if not 0.0 < alpha / 2 < 0.5:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")


def effect_size(
    sample: SampleSummary, pop: PopulationSpec, alpha: float = 0.10
) -> EffectSizeResult:
    """Standardized deviation d = (sample mean - mu)/sigma with CI d +- z/sqrt(n)."""
    _require_alpha(alpha)
    if pop.sd == 0:
        raise DegeneratePopulation("population sd is zero")
    d = float((sample.mean - pop.mean)) / pop.sd
    z = -NormalDist().inv_cdf(alpha / 2)
    half = z / math.sqrt(sample.n)
    return EffectSizeResult(d, d - half, d + half, alpha, z)


class ChiSquareResult(_Value):
    __slots__ = ("statistic", "df", "p_value", "yates", "categories", "observed", "expected")


def _pool(group: tuple, cell: tuple) -> tuple:
    """Join two (categories, observed, expected) cells."""
    return tuple(map(operator.add, group, cell))


def chi_square_gof(
    sample: SampleSummary,
    pop: PopulationSpec,
    yates: bool = True,
    merge_low_expected: bool = False,
) -> ChiSquareResult:
    """Goodness of fit of observed counts against population probabilities.

    The Yates correction subtracts 0.5 from each absolute deviation,
    clamped at zero, in every category.  ``merge_low_expected`` pools
    adjacent categories until every expected count reaches 5, a short tail
    joining the group before it (off by default: small expected counts are
    kept as-is).  Every observation counts, whatever support the sample
    was summarized over; one outside ``pop.support`` raises ``EmptyCategory``.
    """
    observed_map = Counter(sample.observed_map()) + Counter(sample.overflow_values)
    outside = sorted(c for c in observed_map if c not in pop.probabilities)
    if outside:
        raise EmptyCategory(
            f"observed values {outside} lie outside "
            "the population support (expected frequency zero)"
        )
    cells = [
        (
            (cat,),
            observed_map[cat],
            float(sample.n * pop.probabilities[cat]),
        )
        for cat in pop.support
    ]
    if merge_low_expected:
        merged = []
        for cell in cells:
            if merged and merged[-1][2] < 5:
                cell = _pool(merged.pop(), cell)
            merged.append(cell)
        if len(merged) > 1 and merged[-1][2] < 5:
            tail = merged.pop()
            merged.append(_pool(merged.pop(), tail))
        cells = merged
    if len(cells) < 2:
        pooled = "too few observations: pooling low-expected categories left a single cell"
        cause = pooled if len(pop.support) > 1 else "the population has a single category"
        raise EmptySample(f"{cause}, so no degrees of freedom remain")
    statistic = 0.0
    for _, o, e in cells:
        dev = abs(o - e)
        if yates:
            dev = max(dev - 0.5, 0.0)
        statistic += dev * dev / e
    df = len(cells) - 1
    return ChiSquareResult(
        statistic,
        df,
        chi_square_sf(statistic, df),
        yates,
        tuple(cats for cats, _, _ in cells),
        tuple(o for _, o, _ in cells),
        tuple(e for _, _, e in cells),
    )


def _lower_gamma_series(a: float, z: float) -> float:
    """Regularized lower incomplete gamma P(a, z) by power series (z < a + 1)."""
    term = 1.0 / a
    total = term
    k = a
    for _ in range(1000):
        k += 1.0
        term *= z / k
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-z + a * math.log(z) - math.lgamma(a))


def _upper_gamma_cf(a: float, z: float) -> float:
    """Regularized upper incomplete gamma Q(a, z) by Lentz continued fraction."""
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-z + a * math.log(z) - math.lgamma(a))


def chi_square_sf(x: float, df: int) -> float:
    """Survival function of the chi-square distribution, Q(df/2, x/2)."""
    if not df >= 1:  # written so that NaN is rejected too
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if not x >= 0:
        raise ValueError(f"statistic must be non-negative, got {x}")
    if x == 0:
        return 1.0
    a = df / 2.0
    z = x / 2.0
    if z < a + 1.0:
        return min(1.0, max(0.0, 1.0 - _lower_gamma_series(a, z)))
    return min(1.0, max(0.0, _upper_gamma_cf(a, z)))
