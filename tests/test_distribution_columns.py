"""RiskDistribution as columns: read-only risk and mass arrays, points a view,
and moments with the bits of math.fsum over the (risk, mass) pairs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskeval import make_distribution


def _pair_moments(points):
    """mean and variance as math.fsum over the (risk, mass) pairs."""
    m = math.fsum(p * f for p, f in points)
    return m, math.fsum(f * ((p - m) * (p - m)) for p, f in points)


def _same_moments_as_the_pair_loops(d):
    __tracebackhide__ = True
    want = _pair_moments(d.points)
    assert (d.mean().hex(), d.variance().hex()) == tuple(x.hex() for x in want)


@st.composite
def float_points(draw):
    """1 to 60 (risk, mass) pairs with arbitrary float risks, masses normalized."""
    risks = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60))
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(risks), max_size=len(risks)))
    total = math.fsum(weights)
    return [(r, w / total) for r, w in zip(risks, weights)]


def test_columns_are_read_only_float64_and_nothing_else_is_stored():
    d = make_distribution([(0.2, 0.5), (0.1, 0.5)])
    assert sorted(vars(d)) == ["mass", "risk"]
    for column in (d.risk, d.mass):
        assert column.dtype == np.float64 and not column.flags.writeable
    assert d.points == ((0.1, 0.5), (0.2, 0.5))
    assert not hasattr(d, "risks") and not hasattr(d, "masses")


def test_repr_hash_and_equality_go_through_the_points():
    d = make_distribution([(0.2, 0.5), (0.1, 0.5)])
    assert repr(d) == "RiskDistribution(points=((0.1, 0.5), (0.2, 0.5)))"
    assert hash(d) == hash((d.points,))
    assert d == make_distribution([(0.1, 0.5), (0.2, 0.5)])
    assert d != make_distribution([(0.1, 0.4), (0.2, 0.6)])


@settings(max_examples=300, deadline=None)
@given(float_points())
def test_moments_keep_the_pair_loops_bits(points):
    _same_moments_as_the_pair_loops(make_distribution(points))


@pytest.mark.parametrize("size", [1024, 3000])
def test_moments_of_a_long_distribution_keep_the_pair_loops_bits(size):
    # 1024 points or more take _exact_sums' array path.
    rng = np.random.default_rng(size)
    weights = rng.random(size) + 1e-3
    d = make_distribution(zip(rng.random(size).tolist(), (weights / weights.sum()).tolist()))
    assert len(d.points) >= 1024
    _same_moments_as_the_pair_loops(d)
