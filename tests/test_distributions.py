"""Discrete risk distributions: construction, moments, extremes, merge rules."""

import math

import pytest
from hypothesis import given
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
        assert d.risks == (0.1, 0.4, 0.7)

    def test_zero_mass_points_dropped(self):
        d = make_distribution([(0.2, 0.0), (0.3, 1.0)])
        assert d.risks == (0.3,)

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
        assert min(d.risks) - TOL <= d.mean() <= max(d.risks) + TOL

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
        assert all(abs(a - b) <= TOL for a, b in zip(d2.risks, d.risks))
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
            abs(a - b) <= 1e-12 for a, b in zip(nudged.risks, d.risks)
        )
