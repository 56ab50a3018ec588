"""Each measure within a derived bound of its exact value.

`reference_exact` computes a measure in fractions.Fraction from the same
float columns the code reads. The bounds follow from the standard model of
floating-point arithmetic, with u = 2**-53: each product, difference or sum
of two floats is the exact result times (1 + d), |d| <= u, and a term built
by k such roundings is its exact value times (1 + t), |t| <= gamma(k) =
k u / (1 - k u) (Higham, "Accuracy and Stability of Numerical Algorithms",
2nd ed., Lemma 3.1). The measures add the rounded terms with math.fsum's
bits, a correctly rounded sum, so the result is within half an ulp of the
exact sum of the rounded terms. Every term below is nonnegative, so the
terms' errors add up to at most gamma(k) times the exact value.

The generated values are 0 or at least 1e-9 and the masses at least 1e-6 / 40,
so no product comes near the subnormal range, where the relative model fails.
"""

import math
from fractions import Fraction

import numpy as np
import reference_exact as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from riskeval import make_distribution, make_grouped_table
from riskeval.metrics import brier_score, calibration_bias_sq, prevalence_variance
from riskeval.tables import Columns

U = Fraction(1, 2**53)
SIZES = st.integers(2, 40)
SEEDS = st.integers(0, 2**32 - 1)


def gamma(k: int) -> Fraction:
    return k * U / (1 - k * U)


def half_ulp(x: float) -> Fraction:
    return Fraction(math.ulp(x)) / 2


def _values(rng, n: int) -> np.ndarray:
    """n values, each 0, a six-digit decimal as a CSV file gives it, or any
    float in [1e-9, 1]."""
    kind = rng.integers(0, 3, size=n)
    decimal = rng.integers(1, 10**6 + 1, size=n) / 10**6
    return np.where(kind == 0, 0.0, np.where(kind == 1, decimal, rng.uniform(1e-9, 1.0, size=n)))


def _masses(rng, n: int) -> np.ndarray:
    weights = rng.integers(1, 10**6 + 1, size=n).astype(float)
    return weights / weights.sum()


def _table(n: int, seed: int):
    """A grouped table of n groups, each its own key."""
    rng = np.random.default_rng(seed)
    risk, prevalence, mass = _values(rng, n), _values(rng, n), _masses(rng, n)
    return make_grouped_table(Columns(([f"g{i}" for i in range(n)],), (risk,), mass, prevalence))


def _distribution(n: int, seed: int):
    """A risk distribution of n drawn points, ties merged."""
    rng = np.random.default_rng(seed)
    return make_distribution(zip(_values(rng, n).tolist(), _masses(rng, n).tolist()))


def _within(got: float, exact: Fraction, bound: Fraction) -> None:
    __tracebackhide__ = True
    error = abs(Fraction(got) - exact)
    assert error <= bound, f"error {float(error)!r} exceeds bound {float(bound)!r}"


def _variance_bound(got: float, exact: Fraction, mass, centre: float, exact_centre) -> Fraction:
    """Bound on |got - exact| for sum(m (v - c)**2) computed with a rounded centre.

    Let V(x) = sum(m (v - x)**2), M = sum(m) and e = centre - c. The terms
    m * ((v - centre) * (v - centre)) take four roundings (the difference
    counts twice, as it is squared), so got is within half an ulp plus
    gamma(4) V(centre) of V(centre). Expanding the square, V(centre) - V(c)
    = e**2 M - 2 e c (1 - M) exactly, since sum(m (v - c)) = c (1 - M); its
    size is at most s = e**2 M + 2 |e| c |1 - M|. So |got - V(c)| <=
    ulp(got) / 2 + gamma(4) (V(c) + s) + s.
    """
    total = sum(map(Fraction, mass.tolist()), Fraction(0))
    e = Fraction(centre) - exact_centre
    shift = e * e * total + 2 * abs(e) * exact_centre * abs(1 - total)
    return half_ulp(got) + gamma(4) * (exact + shift) + shift


class TestTableMeasures:
    @settings(max_examples=150, deadline=None)
    @given(SIZES, SEEDS)
    def test_population_mean(self, n, seed):
        """Terms m * p take one rounding: the error is at most
        ulp(got) / 2 + gamma(1) sum(m p)."""
        table = _table(n, seed)
        got, exact = table.population_mean, ref.population_mean(table)
        _within(got, exact, half_ulp(got) + gamma(1) * exact)

    @settings(max_examples=150, deadline=None)
    @given(SIZES, SEEDS)
    def test_bias_sq(self, n, seed):
        """Terms m * (d * d), d = r - p, take four roundings (d counts twice,
        as it is squared): the error is at most ulp(got) / 2 + gamma(4) bias_sq."""
        table = _table(n, seed)
        got, exact = calibration_bias_sq(table), ref.bias_sq(table)
        _within(got, exact, half_ulp(got) + gamma(4) * exact)

    @settings(max_examples=150, deadline=None)
    @given(SIZES, SEEDS)
    def test_brier(self, n, seed):
        """Terms m * (p * (1 - p) + d * d), d = r - p. The p (1 - p) addend
        takes three roundings and the d**2 addend three (d counts twice); the
        nonnegative sum of the two and the product with m add two more to
        each. So each term is within gamma(5) of its exact value, and the
        error is at most ulp(got) / 2 + gamma(5) brier."""
        table = _table(n, seed)
        got, exact = brier_score(table), ref.brier(table)
        _within(got, exact, half_ulp(got) + gamma(5) * exact)

    @settings(max_examples=150, deadline=None)
    @given(SIZES, SEEDS)
    def test_prevalence_variance(self, n, seed):
        """Centred on the rounded population_mean; see _variance_bound:
        ulp(got) / 2 + gamma(4) (V + s) + s, s from the rounded mean."""
        table = _table(n, seed)
        got, exact = prevalence_variance(table), ref.prevalence_variance(table)
        pi = ref.population_mean(table)
        _within(got, exact, _variance_bound(got, exact, table.mass, table.population_mean, pi))


class TestDistributionMoments:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), SEEDS)
    def test_mean(self, n, seed):
        """Terms risk * mass take one rounding: the error is at most
        ulp(got) / 2 + gamma(1) mean."""
        dist = _distribution(n, seed)
        got, exact = dist.mean(), ref.distribution_mean(dist)
        _within(got, exact, half_ulp(got) + gamma(1) * exact)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), SEEDS)
    def test_variance(self, n, seed):
        """Centred on the rounded mean(); see _variance_bound:
        ulp(got) / 2 + gamma(4) (V + s) + s, s from the rounded mean."""
        dist = _distribution(n, seed)
        got, exact = dist.variance(), ref.distribution_variance(dist)
        mean = ref.distribution_mean(dist)
        _within(got, exact, _variance_bound(got, exact, dist.mass, dist.mean(), mean))
