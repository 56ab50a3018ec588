"""Exact arithmetic: correctly rounded squares and sums with math.fsum's bits.

The metrics must give each square correctly rounded, which
`fractions.Fraction` checks exactly on the calibration term of one-group
tables; the C library's pow(x, 2.0), behind Python's x ** 2, misrounds some
of the values below. The array sum kernel
`distributions._exact_sums` must give math.fsum's bits for a whole array and
for each contiguous segment, compared through `float.hex`, over the double
range: subnormals to 2**1023, exact cancellation, +-0, inf and nan (the same
value or the same exception type), and an intermediate overflow.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riskeval import distributions
from riskeval.distributions import _check_total_mass, _exact_sum, _exact_sums, _nonnegative_sum
from riskeval.errors import MassSumOutOfTolerance
from riskeval.metrics import calibration_bias_sq
from riskeval.tables import GroupedModelTable, coded


def _rounded_square(x: float) -> float:
    return float(Fraction(x) ** 2)


def _squares(values) -> list[float]:
    """Each value squared as the metrics square: the calibration term of a
    table with one group of mass 1, risk x and prevalence 0. The table is
    built directly, unchecked, so that x may lie outside [0, 1]."""
    key, one, zero = coded(["g"]), np.ones(1), np.zeros(1)
    return [
        calibration_bias_sq(GroupedModelTable(key, np.array([x]), one, zero, 0.0))
        for x in values
    ]


# Squares that libm pow(x, 2.0) rounds the wrong way on x86-64 glibc.
MISROUNDED = ["0x1.e694e2eadbec4p-1", "0x1.6e74f70d7fe2cp-2", "0x1.9ce89a257ee2ap-1"]


@pytest.mark.parametrize("text", MISROUNDED)
def test_squares_are_correctly_rounded_where_pow_is_not(text):
    x = float.fromhex(text)
    (square,) = _squares([x])
    assert square.hex() == _rounded_square(x).hex()


def test_squares_are_correctly_rounded_on_random_values():
    x = np.random.default_rng(12).random(20_000)
    got = _squares(x.tolist())
    assert [s.hex() for s in got] == [_rounded_square(v).hex() for v in x.tolist()]


@given(st.lists(st.floats(min_value=-(2.0**511), max_value=2.0**511), min_size=1, max_size=50))
def test_squares_are_correctly_rounded(values):
    got = _squares(values)
    assert [s.hex() for s in got] == [_rounded_square(v).hex() for v in values]


# ---------------------------------------------------------------------------
# the exact sum kernel


@pytest.fixture
def every_length(monkeypatch):
    """Run the array passes on inputs of any length, not only long ones."""
    monkeypatch.setattr(distributions, "_EXACT_CUTOFF", 0)


# The fixture sets one constant, the same for every example.
with_fixture = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


def _outcome(total, values):
    """total(values) as float.hex, or the type of the exception it raises."""
    try:
        return total(values).hex()
    except (OverflowError, ValueError) as error:
        return type(error)


def _kernel(values) -> float:
    x = np.array(values, dtype=np.float64)
    return float(_exact_sums(x, np.array([len(x)]))[0])


def _same_as_fsum(values):
    assert _outcome(_kernel, values) == _outcome(math.fsum, values)
    assert _outcome(_exact_sum, values) == _outcome(math.fsum, values)


wide = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023))
narrow = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-60, 0))
zeros_and_tiny = st.sampled_from([0.0, -0.0, 5e-324])
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, math.inf, -math.inf, math.nan])


@with_fixture
@given(st.lists(st.one_of(wide, narrow, special), min_size=1, max_size=60))
def test_sum_is_fsum_over_the_double_range(every_length, values):
    _same_as_fsum(values)


@with_fixture
@given(st.lists(st.one_of(wide, narrow), min_size=1, max_size=40), st.randoms())
def test_sum_is_fsum_under_exact_cancellation(every_length, values, rnd):
    # The terms cancel to exactly zero, then to a last tiny term.
    terms = values + [-v for v in values]
    rnd.shuffle(terms)
    _same_as_fsum(terms)
    _same_as_fsum(terms + [rnd.choice(values) * 2.0**-60])


@given(st.lists(narrow, min_size=1, max_size=40), st.integers(2, 1000))
def test_long_sums_are_fsum(values, repeat):
    # Long enough for the array passes at the default cutoff.
    terms = np.resize(np.array(values), 1024 + repeat)
    terms[::7] *= -1.0
    _same_as_fsum(terms.tolist())


@pytest.mark.parametrize(
    "values",
    [
        [-0.0],
        [-0.0, -0.0, 0.0],
        [0.0] * 3000,
        [-0.0] * 3000,
        [5e-324] * 5,
        [1e308, 1e308, -1e308],  # fsum: intermediate overflow
        [1e308] * 3000,
        [1.0, math.inf, -math.inf],
        [math.nan, 1.0],
        [math.inf, 1.0] * 2000,
        [2.0**1023, -(2.0**1023), 1.0],
        [2.0**-1000, 2.0**-1074],
        [1.0, 2.0**-1074] * 1500,
        [1.0, 1e-16, 1e-16] * 1000,
        [1.0, 2.0**-53, 2.0**-200],  # three parts; adding them in turn rounds twice
        [-(2.0**-200), -(2.0**-53), -1.0] * 700,
    ],
)
def test_sum_is_fsum_on_edge_inputs(every_length, values):
    _same_as_fsum(values)


@pytest.mark.parametrize("bits", [7, 11, 13])
def test_sums_of_near_maximal_terms_are_exact(every_length, bits):
    # n = 2**bits - 2 terms near the largest magnitude: the partial sums reach
    # n times it, which the extraction must leave room for (2**k >= n + 2).
    x = np.random.default_rng(bits).uniform(0.5, 1.0, 2**bits - 2)
    _same_as_fsum(x.tolist())
    _same_as_fsum((-x).tolist())


def test_sum_takes_any_iterable():
    values = [0.1 * i for i in range(3000)]
    assert _exact_sum(iter(values)).hex() == math.fsum(values).hex()
    assert _exact_sum(v for v in values[:10]).hex() == math.fsum(values[:10]).hex()
    assert _exact_sum([]) == 0.0


def test_total_mass_keeps_its_rules():
    _check_total_mass(m for m in [0.25] * 4)
    _check_total_mass(np.full(4000, 1 / 4000))
    assert _nonnegative_sum([1e308] * 3000) == math.inf
    with pytest.raises(MassSumOutOfTolerance, match="sum to inf"):
        _check_total_mass(np.full(3000, 1e308))


# ---------------------------------------------------------------------------
# segment sums


def _per_slice(x: np.ndarray, sizes: np.ndarray) -> list:
    starts = np.cumsum(sizes) - sizes
    return [math.fsum(x[s : s + n].tolist()).hex() for s, n in zip(starts, sizes)]


def _same_per_segment(x, sizes):
    x, sizes = np.array(x, dtype=np.float64), np.array(sizes)
    assert [s.hex() for s in _exact_sums(x, sizes).tolist()] == _per_slice(x, sizes)


@with_fixture
@given(
    st.lists(
        st.lists(st.one_of(wide, narrow, zeros_and_tiny), min_size=1, max_size=12),
        min_size=1,
        max_size=20,
    )
)
def test_segment_sums_are_per_slice_fsum(every_length, segments):
    _same_per_segment([v for s in segments for v in s], [len(s) for s in segments])


def test_segment_sums_on_long_inputs():
    rng = np.random.default_rng(5)
    sizes = rng.integers(1, 40, 3000)
    sizes[::5] = 1  # one-cell segments
    x = rng.random(sizes.sum()) ** 9 * np.exp2(rng.integers(-70, 1, sizes.sum()))
    x[rng.random(len(x)) < 0.2] *= -1.0
    starts = np.cumsum(sizes) - sizes
    for s, n in zip(starts[::7], sizes[::7]):
        x[s : s + n] = -0.0  # all-zero segments
    x[starts[3] : starts[3] + sizes[3]] = 1e-310  # subnormal: summed by fsum
    x[starts[11]] = math.nan
    _same_per_segment(x, sizes)


def test_one_cell_segments_are_their_value_plus_zero():
    x = np.array([0.3, -0.0, 0.0, -2.5, 1e-300, 7.0] * 300)
    sums = _exact_sums(x, np.ones(len(x), dtype=np.int64))
    assert [s.hex() for s in sums.tolist()] == [(v + 0.0).hex() for v in x.tolist()]
