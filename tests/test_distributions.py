"""Discrete risk distributions: construction, moments, extremes, merge rules."""

import math

import pytest
import reference_tables as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from riskeval import (
    EmptyInput,
    MassSumOutOfTolerance,
    NonFiniteValue,
    RiskOutOfRange,
    constant_distribution,
    deterministic_distribution,
    make_distribution,
)

TOL = 1e-12


class TestMakeDistribution:
    def test_single_point_is_constant(self):
        d = make_distribution([(0.1, 1.0)])
        assert d.points == ((0.1, 1.0),)
        assert d.mean() == 0.1
        assert d.variance() == 0.0

    def test_two_point_extreme(self):
        d = make_distribution([(0.0, 0.9), (1.0, 0.1)])
        assert d.points == ((0.0, 0.9), (1.0, 0.1))
        assert abs(d.mean() - 0.1) <= TOL

    def test_equal_risks_merge(self):
        d = make_distribution([(0.5, 0.5), (0.5, 0.5)])
        assert d.points == ((0.5, 1.0),)

    def test_near_equal_risks_merge_within_tolerance(self):
        d = make_distribution([(0.5, 0.5), (0.5 + 5e-13, 0.5)])
        assert len(d.points) == 1
        assert abs(d.points[0][0] - 0.5) < 1e-12

    def test_sorts_by_risk(self):
        d = make_distribution([(0.7, 0.2), (0.1, 0.5), (0.4, 0.3)])
        assert tuple(d.risk.tolist()) == (0.1, 0.4, 0.7)

    def test_zero_mass_points_dropped(self):
        d = make_distribution([(0.2, 0.0), (0.3, 1.0)])
        assert tuple(d.risk.tolist()) == (0.3,)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            make_distribution([])

    def test_all_zero_mass_rejected(self):
        with pytest.raises(EmptyInput):
            make_distribution([(0.2, 0.0), (0.3, 0.0)])

    def test_risk_out_of_range_rejected(self):
        with pytest.raises(RiskOutOfRange):
            make_distribution([(1.2, 1.0)])
        with pytest.raises(RiskOutOfRange):
            make_distribution([(-0.1, 1.0)])

    def test_negative_mass_rejected(self):
        with pytest.raises(MassSumOutOfTolerance):
            make_distribution([(0.5, 1.1), (0.6, -0.1)])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValue):
            make_distribution([(float("nan"), 1.0)])
        with pytest.raises(NonFiniteValue):
            make_distribution([(0.5, float("inf"))])

    def test_mass_sum_tolerance(self):
        with pytest.raises(MassSumOutOfTolerance):
            make_distribution([(0.5, 0.98)])
        # 1e-10 off is inside the 1e-9 budget
        make_distribution([(0.5, 1.0 - 1e-10)])

    def test_masses_summing_past_the_float_range_rejected(self):
        # Two finite masses whose sum overflows fail the mass check.
        with pytest.raises(MassSumOutOfTolerance, match="masses sum to inf"):
            make_distribution([(0.1, 1e308), (0.2, 1e308)])


class TestExtremes:
    def test_constant(self):
        assert constant_distribution(0.3).points == ((0.3, 1.0),)
        assert constant_distribution(0.0).points == ((0.0, 1.0),)
        assert constant_distribution(1.0).points == ((1.0, 1.0),)
        assert constant_distribution(0.1).variance() == 0.0

    def test_constant_out_of_range(self):
        with pytest.raises(RiskOutOfRange):
            constant_distribution(1.5)

    def test_deterministic(self):
        d = deterministic_distribution(0.1)
        assert d.points == ((0.0, 0.9), (1.0, 0.1))
        assert abs(d.variance() - 0.09) <= TOL
        assert abs(math.sqrt(d.variance()) - 0.30) <= TOL

    def test_deterministic_boundary_degenerates(self):
        assert deterministic_distribution(0.0).points == ((0.0, 1.0),)
        assert deterministic_distribution(1.0).points == ((1.0, 1.0),)

    def test_deterministic_symmetric_maximum(self):
        assert abs(deterministic_distribution(0.5).variance() - 0.25) <= TOL

    def test_deterministic_out_of_range(self):
        with pytest.raises(RiskOutOfRange):
            deterministic_distribution(-0.2)
        with pytest.raises(NonFiniteValue):
            deterministic_distribution(float("nan"))


points_strategy = st.lists(
    st.tuples(st.integers(0, 1000), st.integers(1, 100)),
    min_size=1,
    max_size=10,
    unique_by=lambda t: t[0],
).map(
    lambda raw: [
        (r / 1000.0, w / sum(w for _, w in raw)) for r, w in raw
    ]
)


class TestProperties:
    @given(points_strategy)
    def test_variance_bounds(self, points):
        d = make_distribution(points)
        m, v = d.mean(), d.variance()
        assert v >= 0.0
        assert v <= m * (1.0 - m) + TOL

    @given(points_strategy)
    def test_mean_within_support(self, points):
        d = make_distribution(points)
        assert min(d.risk.tolist()) - TOL <= d.mean() <= max(d.risk.tolist()) + TOL

    @given(points_strategy)
    def test_rebuild_is_identity(self, points):
        d = make_distribution(points)
        assert make_distribution(d.points) == d

    @given(points_strategy, st.integers(0, 20))
    def test_splitting_a_point_changes_nothing(self, points, which):
        d = make_distribution(points)
        i = which % len(d.points)
        split = list(d.points)
        r, f = split.pop(i)
        split += [(r, f / 2), (r, f / 2)]
        d2 = make_distribution(split)
        assert len(d2.points) == len(d.points)
        assert all(abs(a - b) <= TOL for a, b in zip(d2.risk.tolist(), d.risk.tolist()))
        assert abs(d2.mean() - d.mean()) <= TOL
        assert abs(d2.variance() - d.variance()) <= TOL

    @given(points_strategy)
    def test_sub_tolerance_perturbation_gives_same_support(self, points):
        d = make_distribution(points)
        nudged = make_distribution(
            (r + 2e-13 if r < 0.5 else r - 2e-13, f) for r, f in d.points
        )
        assert len(nudged.points) == len(d.points)
        assert all(
            abs(a - b) <= 1e-12 for a, b in zip(nudged.risk.tolist(), d.risk.tolist())
        )


# ---------------------------------------------------------------------------
# the tie rule: risks joined by a chain of sorted gaps of at most 1e-12 merge


class TestTieRule:
    def test_a_chain_of_small_gaps_is_one_tie(self):
        # The ends are 1.6e-12 apart, joined by gaps of 0.9e-12 and 0.7e-12.
        d = make_distribution([(0.5, 0.25), (0.5 + 0.9e-12, 0.5), (0.5 + 1.6e-12, 0.25)])
        assert len(d.points) == 1
        assert tuple(d.mass.tolist()) == (1.0,)

    @pytest.mark.parametrize("masses", [(0.01, 0.98, 0.01), (0.98, 0.01, 0.01)])
    def test_ties_do_not_depend_on_the_masses(self, masses):
        d = make_distribution(zip((0.0, 1e-12, 1.8e-12), masses))
        assert len(d.points) == 1
        assert 0.0 <= d.risk.tolist()[0] <= 1.8e-12

    def test_a_rounded_mean_does_not_come_within_the_gap_of_its_neighbour(self):
        # The two equal risks' mass-weighted mean rounds one ulp above them,
        # and the third risk is just over 1e-12 above them.
        p = 0.11587106515186939
        q = 0.11587106515286939
        assert (p * 0.1737929899285008 + p * 0.5017279849959574) / 0.6755209749244582 > p
        d = make_distribution(
            [(p, 0.1737929899285008), (p, 0.5017279849959574), (q, 0.3244790250755418)]
        )
        assert tuple(d.risk.tolist()) == (p, q)


# Gaps between neighbouring planted risks: equal risks, gaps on either side of
# 1e-12, and wide ones.
GAPS = st.sampled_from([0.0, 0.0, 3e-13, 7e-13, 9e-13, 1e-12, 1.1e-12, 1.6e-12, 1e-9, 0.01])


@st.composite
def near_ties(draw):
    """(risk, mass) pairs: runs of planted gaps from random starts, some masses zero."""
    risks = []
    for start in draw(st.lists(st.floats(0.0, 0.99), min_size=1, max_size=4)):
        risk = start
        for gap in draw(st.lists(GAPS, min_size=1, max_size=8)):
            risk = min(risk + gap, 1.0)
            risks.append(risk)
    weights = draw(st.lists(st.integers(0, 100), min_size=len(risks), max_size=len(risks)))
    if not any(weights):
        weights[0] = 1
    return [(r, w / sum(weights)) for r, w in zip(risks, weights)]


class TestTieRuleProperties:
    @settings(max_examples=500, deadline=None)
    @given(near_ties())
    def test_points_are_the_runs_between_wide_gaps(self, points):
        d = make_distribution(points)
        live = sorted(r for r, m in points if m > 0.0)
        wide = sum(b - a > 1e-12 for a, b in zip(live, live[1:]))
        assert len(d.points) == 1 + wide
        assert all(b - a > 1e-12 for a, b in zip(d.risk.tolist(), d.risk.tolist()[1:]))
        assert make_distribution(points[::-1]) == d


def _old_distribution(points):
    """make_distribution through the running-mean loop it replaced."""
    pairs = sorted((float(r), float(m)) for r, m in points if m > 0.0)
    return [(r, m) for r, m, _ in ref._merge_tied_risks((r, m, None) for r, m in pairs)]


def _same_bits_as_the_old_loop(points):
    got = [(r.hex(), m.hex()) for r, m in make_distribution(points).points]
    assert got == [(r.hex(), m.hex()) for r, m in _old_distribution(points)]


@st.composite
def separated_ties(draw, max_size):
    """(risk, mass) pairs in ties of 1 to max_size members within 0.9e-12 of
    each other, the ties 1e-5 or more apart: each tie is one point under the
    old loop and the new rule alike."""
    starts = draw(st.lists(st.integers(0, 99_999), min_size=1, max_size=6, unique=True))
    points = []
    for start in starts:
        for step in draw(st.lists(st.integers(0, 9), min_size=1, max_size=max_size)):
            points.append((start * 1e-5 + step * 1e-13, draw(st.floats(0.001, 1.0))))
    total = math.fsum(m for _, m in points)
    return [(r, m / total) for r, m in points]


class TestAgainstTheRunningMean:
    @settings(max_examples=400, deadline=None)
    @given(separated_ties(2))
    def test_singletons_and_pairs_keep_their_bits(self, points):
        _same_bits_as_the_old_loop(points)

    @pytest.mark.parametrize(
        "points",
        [
            [(-0.0, 1.0)],
            [(-0.0, 0.5), (-0.0, 0.5)],
            [(-0.0, 0.3), (0.0, 0.7)],
            [(0.0, 0.3), (-0.0, 0.7)],
            [(-0.0, 0.2), (1e-13, 0.3), (0.0, 0.5)],
        ],
    )
    def test_signed_zeros_keep_their_bits(self, points):
        _same_bits_as_the_old_loop(points)

    @settings(max_examples=400, deadline=None)
    @given(separated_ties(8))
    def test_ties_keep_their_partition(self, points):
        got, want = make_distribution(points).points, _old_distribution(points)
        assert [m for _, m in got] == [m for _, m in want]
        assert all(abs(a - b) <= 1e-15 * b for (a, _), (b, _) in zip(got, want))
