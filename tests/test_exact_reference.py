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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riskeval import (
    compare,
    evaluate,
    make_distribution,
    make_grouped_table,
    make_joint_table,
    subgroup_precision_gain,
)
from riskeval.metrics import (
    brier_score,
    calibration_bias_sq,
    concordance,
    integrated_discrimination,
    precision_loss,
    prevalence_variance,
    ro_correlation,
)
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


def _nondegenerate(n: int, seed: int):
    """_table(n, seed), its population mean pi as the code rounds it and as
    a Fraction, and their gap e = pi - exact; pi must lie in (0, 1)."""
    table = _table(n, seed)
    pi = table.population_mean
    assume(0.0 < pi < 1.0)
    exact = ref.population_mean(table)
    return table, pi, exact, Fraction(pi) - exact


def _outcome_variance_bound(pi: float, exact_pi: Fraction) -> Fraction:
    """Bound on |pi * (1.0 - pi) - P (1 - P)|, P the exact mean.

    The float expression takes two roundings of pi (1 - pi), within
    gamma(2) pi (1 - pi), and pi (1 - pi) - P (1 - P) = e (1 - pi - P)
    exactly, with e = pi - P.
    """
    e, pi = Fraction(pi) - exact_pi, Fraction(pi)
    return gamma(2) * pi * (1 - pi) + abs(e * (1 - pi - exact_pi))


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

    @settings(max_examples=150, deadline=None)
    @given(SIZES, SEEDS)
    def test_precision_loss(self, n, seed):
        """pi * (1.0 - pi) - V, with pi the rounded population mean and V the
        computed prevalence_variance. The first product is within
        _outcome_variance_bound of P (1 - P), V within _variance_bound of the
        exact variance, and the difference takes one rounding, half an ulp."""
        table, pi, exact_pi, _ = _nondegenerate(n, seed)
        got, exact = precision_loss(table), ref.precision_loss(table)
        variance = prevalence_variance(table)
        variance_error = _variance_bound(
            variance, ref.prevalence_variance(table), table.mass, pi, exact_pi
        )
        bound = half_ulp(got) + _outcome_variance_bound(pi, exact_pi) + variance_error
        _within(got, exact, bound)

    @settings(max_examples=150, deadline=None)
    @given(SIZES, SEEDS)
    def test_ro_correlation(self, n, seed):
        """sqrt(V / D), D = pi * (1.0 - pi), checked in squares against the
        exact R = V* / (P (1 - P)), as the root of R need not be a fraction.

        V is within b = _variance_bound of V*, and D within
        d = _outcome_variance_bound of P (1 - P); D is at least
        pi (1 - pi) (1 - gamma(2)) = D-. Since V / D - R = (V - V*) / D
        + R (P (1 - P) - D) / D, |V / D - R| <= E1 = (b + R d) / D-. The
        quotient q takes one rounding: |q - R| <= Eq = E1 + u (R + E1). The
        correctly rounded root gives got**2 = q (1 + t)**2 with
        |(1 + t)**2 - 1| <= gamma(2), so |got**2 - R| <= Eq + gamma(2) (R + Eq).
        """
        table, pi, exact_pi, _ = _nondegenerate(n, seed)
        got, exact = ro_correlation(table), ref.ro_correlation_sq(table)
        variance = prevalence_variance(table)
        b = _variance_bound(variance, ref.prevalence_variance(table), table.mass, pi, exact_pi)
        d = _outcome_variance_bound(pi, exact_pi)
        low = Fraction(pi) * (1 - Fraction(pi)) * (1 - gamma(2))
        e1 = (b + exact * d) / low
        eq = e1 + U * (exact + e1)
        _within(Fraction(got) ** 2, exact, eq + gamma(2) * (exact + eq))

    @settings(max_examples=150, deadline=None)
    @given(SIZES, SEEDS)
    def test_integrated_discrimination(self, n, seed):
        """C - N, C = fsum(p * m * p / pi) and N = fsum(p * m * (1.0 - p)
        / (1.0 - pi)). A term of C takes three roundings and one of N five;
        their nonnegative correctly rounded sums add one more, so C is
        within gamma(4) of S2 / pi and N within gamma(6) of S1 / (1 - pi),
        with S2 = sum(m p**2) and S1 = sum(m p (1 - p)). The rounded mean
        moves S2 / pi from S2 / P by S2 |e| / (pi P), and S1 / (1 - pi) by
        S1 |e| / ((1 - pi) (1 - P)). The two means nearly cancel, so their
        errors, not the result's size, set the bound; the difference adds
        half an ulp."""
        table, pi, exact_pi, e = _nondegenerate(n, seed)
        got, exact = integrated_discrimination(table), ref.integrated_discrimination(table)
        s2, s1 = ref.prevalence_moments(table)
        pi = Fraction(pi)
        bound = (
            half_ulp(got)
            + gamma(4) * s2 / pi
            + gamma(6) * s1 / (1 - pi)
            + abs(e) * (s2 / (pi * exact_pi) + s1 / ((1 - pi) * (1 - exact_pi)))
        )
        _within(got, exact, bound)

    @settings(max_examples=150, deadline=None)
    @given(SIZES, SEEDS)
    def test_concordance(self, n, seed):
        """fsum(h0 * (0.5 * h1 + above)) over risk levels, highest first.

        A case weight m * p / pi takes two roundings and a noncase weight
        m * (1.0 - p) / (1.0 - pi) four. np.bincount adds a level's k weights
        one by one from 0.0, k - 1 roundings, and np.cumsum adds the levels
        above, one rounding per level; a weight passes through at most
        n - 1 of these, as the levels hold n groups. So above and h1 are
        within gamma(n + 1) of their values at the rounded pi, 0.5 * h1 +
        above within gamma(n + 2), h0 within gamma(n + 3), and each product
        within gamma(2 n + 6); the nonnegative terms' correctly rounded sum
        adds half an ulp. Every term is a case weight times a noncase
        weight, so the value at the rounded pi is the exact one times
        k = P (1 - P) / (pi (1 - pi)).
        """
        table, pi, exact_pi, _ = _nondegenerate(n, seed)
        got, exact = concordance(table), ref.concordance(table)
        pi = Fraction(pi)
        k = exact_pi * (1 - exact_pi) / (pi * (1 - pi))
        _within(got, exact, half_ulp(got) + gamma(2 * n + 6) * exact * k + exact * abs(k - 1))


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


def _joint(n: int, seed: int):
    """A joint table of n drawn cells in up to 6 model-1 groups and up to n
    model-2 groups, each group with a risk of its own; cells that share
    both keys merge."""
    rng = np.random.default_rng(seed)
    g1, g2 = rng.integers(0, rng.integers(1, 7), size=n), rng.integers(0, n, size=n)
    risks = _values(rng, 6)[g1], _values(rng, n)[g2]
    prevalence, mass = _values(rng, n), _masses(rng, n)
    keys = [f"a{i}" for i in g1.tolist()], [f"b{j}" for j in g2.tolist()]
    return make_joint_table(Columns(keys, risks, mass, prevalence))


def _subgroups(n: int, seed: int):
    """_joint(n, seed)'s subgroup report, and each of its rows' exact
    (mass, mean, variance), in row order."""
    joint = _joint(n, seed)
    report, exact = subgroup_precision_gain(joint), ref.subgroup_gains(joint)
    return joint, report, [exact[key] for key in report.rows.key.tolist()]


def _group_variance_bound(got: float, mass: float, exact) -> Fraction:
    """Bound on |got - V| for a model-1 group's got = T / mass, with T =
    fsum(m * (d * d)), d = p - c' and c' = fsum(m * p) / mass the rounded
    group mean; exact is the group's (M, c, V), V = W / M and W = sum(m (p - c)**2).

    A correctly rounded sum of nonnegative terms of k roundings is within
    ulp / 2 + gamma(k) of its exact value, and ulp(x) / 2 <= u |x|, so
    within gamma(k + 1) of it. So mass is within gamma(1) M, and the mean's
    numerator, terms of one rounding, within gamma(2) c M. Then
    |numerator / mass - c| <= E1 = c M (gamma(2) + gamma(1)) / mass, and the
    division adds u (c + E1): |c' - c| <= e. The terms of T take four
    roundings (d counts twice), so T is within gamma(5) of W(c'), and W(c')
    = W + M (c' - c)**2 exactly, as sum(m (p - c)) = 0: _variance_bound's
    shift term, with the weights divided by their sum. So |T - W| <= ET =
    gamma(5) (W + M e**2) + M e**2, |T / mass - V| <= (ET + V gamma(1) M) / mass,
    and the quotient's rounding adds ulp(got) / 2.
    """
    exact_mass, c, v = exact
    e1 = c * exact_mass * (gamma(2) + gamma(1)) / Fraction(mass)
    shift = exact_mass * (e1 + U * (c + e1)) ** 2
    et = gamma(5) * (v * exact_mass + shift) + shift
    return half_ulp(got) + (et + v * gamma(1) * exact_mass) / Fraction(mass)


class TestSubgroupGains:
    @settings(max_examples=150, deadline=None)
    @given(SIZES, SEEDS)
    def test_mass(self, n, seed):
        """fsum of the group's cell masses, correctly rounded: ulp(got) / 2."""
        _, report, exact = _subgroups(n, seed)
        for got, (mass, _, _) in zip(report.rows.mass.tolist(), exact):
            _within(got, mass, half_ulp(got))

    @settings(max_examples=150, deadline=None)
    @given(SIZES, SEEDS)
    def test_variance(self, n, seed):
        """Within _group_variance_bound of the exact within-group variance."""
        _, report, exact = _subgroups(n, seed)
        rows = report.rows
        for got, mass, group in zip(rows.variance.tolist(), rows.mass.tolist(), exact):
            _within(got, group[2], _group_variance_bound(got, mass, group))

    @settings(max_examples=150, deadline=None)
    @given(SIZES, SEEDS)
    def test_sd(self, n, seed):
        """sqrt(variance), checked in squares against V, as the root of a
        fraction need not be one. The variance is within b =
        _group_variance_bound of V, and the correctly rounded root gives
        got**2 = variance (1 + t)**2 with |(1 + t)**2 - 1| <= gamma(2), so
        |got**2 - V| <= b + gamma(2) (V + b)."""
        _, report, exact = _subgroups(n, seed)
        rows = report.rows
        for got, var, mass, group in zip(
            rows.sd.tolist(), rows.variance.tolist(), rows.mass.tolist(), exact
        ):
            b = _group_variance_bound(var, mass, group)
            _within(Fraction(got) ** 2, group[2], b + gamma(2) * (group[2] + b))

    @settings(max_examples=150, deadline=None)
    @given(SIZES, SEEDS)
    def test_total_gain(self, n, seed):
        """fsum(mass * variance) over the groups, against sum(M V). A term's
        product takes one rounding, u mass variance, and mass variance - M V
        is at most mass b + V ulp(mass) / 2, b the variance's
        _group_variance_bound; the correctly rounded sum adds ulp(got) / 2."""
        joint, report, exact = _subgroups(n, seed)
        rows = report.rows
        bound = half_ulp(report.total_gain)
        for var, mass, group in zip(rows.variance.tolist(), rows.mass.tolist(), exact):
            b = _group_variance_bound(var, mass, group)
            bound += U * Fraction(mass) * Fraction(var) + mass * b + group[2] * half_ulp(mass)
        _within(report.total_gain, ref.total_gain(joint), bound)


def _measure_bound(name: str, table) -> Fraction:
    """The bound on the error of evaluate(table)'s field name that its test
    in TestTableMeasures derives; see that test's docstring."""
    report = evaluate(table)
    got, pi, exact_pi = getattr(report, name), report.population_mean, ref.population_mean(table)
    e, p = Fraction(pi) - exact_pi, Fraction(pi)
    if name == "bias_sq":
        return half_ulp(got) + gamma(4) * ref.bias_sq(table)
    if name == "brier":
        return half_ulp(got) + gamma(5) * ref.brier(table)
    if name == "precision_loss":
        variance = report.prevalence_variance
        variance_error = _variance_bound(
            variance, ref.prevalence_variance(table), table.mass, pi, exact_pi
        )
        return half_ulp(got) + _outcome_variance_bound(pi, exact_pi) + variance_error
    if name == "integrated_discrimination":
        s2, s1 = ref.prevalence_moments(table)
        cancel = abs(e) * (s2 / (p * exact_pi) + s1 / ((1 - p) * (1 - exact_pi)))
        return half_ulp(got) + gamma(4) * s2 / p + gamma(6) * s1 / (1 - p) + cancel
    assert name == "concordance", name
    exact, k = ref.concordance(table), exact_pi * (1 - exact_pi) / (p * (1 - p))
    return half_ulp(got) + gamma(2 * len(table.mass) + 6) * exact * k + exact * abs(k - 1)


# Each difference field of ComparisonReport, the MetricsReport field it is
# the difference of.
DIFFERENCES = {
    "brier_difference": "brier",
    "bias_sq_difference": "bias_sq",
    "precision_difference": "precision_loss",
    "idi": "integrated_discrimination",
    "concordance_difference": "concordance",
}


class TestComparisonReport:
    @settings(max_examples=150, deadline=None)
    @given(SIZES, SEEDS)
    def test_fields(self, n, seed):
        """compare of _joint(n, seed)'s two marginals, each with a population
        mean in (0, 1). population_mean is model 1's, bounded as in
        test_population_mean. A difference field subtracts two measures that
        evaluate computed, each within the bound E that its test derives
        (_measure_bound), and takes one rounding: its error is at most
        ulp(got) / 2 + E1 + E2, and idi's carries IDI's cancellation term."""
        joint = _joint(n, seed)
        tables = joint.marginal(1), joint.marginal(2)
        assume(all(0.0 < t.population_mean < 1.0 for t in tables))
        report, exact = compare(*tables), ref.comparison(*tables)
        pi = report.population_mean
        bounds = {"population_mean": half_ulp(pi) + gamma(1) * exact["population_mean"]}
        for field, measure in DIFFERENCES.items():
            got = getattr(report, field)
            bounds[field] = half_ulp(got) + sum(_measure_bound(measure, t) for t in tables)
        for field, bound in bounds.items():
            error = abs(Fraction(getattr(report, field)) - exact[field])
            assert error <= bound, f"{field}: error {float(error)!r} exceeds bound {float(bound)!r}"
