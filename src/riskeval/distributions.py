"""Discrete distributions of true outcome risk over a population.

A risk distribution assigns probability mass to a finite set of risk values in
[0, 1]. Its mean is the population outcome rate; its variance measures risk
heterogeneity and is bounded above by mean*(1 - mean).

The package's exact sums live here too: `_exact_sum` and `_exact_sums` give
math.fsum's bits for a whole array or for each of its contiguous segments.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, MassSumOutOfTolerance, NonFiniteValue, RiskOutOfRange

MASS_SUM_TOL = 1e-9
RISK_MERGE_TOL = 1e-12

# Fewer terms than this are summed by math.fsum over a list, which is cheaper
# than the array passes below.
_EXACT_CUTOFF = 1024
_EXACT_PASSES = 8
# Beyond these magnitudes a segment is summed by math.fsum: its passes could
# overflow (fsum's OverflowError is kept) or lose bits to underflow.
_EXACT_HUGE, _EXACT_TINY = 2.0**900, 2.0**-900


def _exact_sums(x: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """math.fsum of each contiguous segment of x, sizes[j] terms (at least 1) each.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008): with max|r| < 2**e
    over a segment of n terms and 2**k >= n + 2, sigma = 2**(e + k) splits
    each r into q = (sigma + r) - sigma and r - q, both exact, and every
    partial sum of the q is exact, so numpy may add them in any order. The
    remainders are split again until they are all zero; fsum of the few exact
    parts is then fsum of the terms (+0.0 for an exact zero), and when at most
    two parts are nonzero one addition rounds their sum as fsum does.
    Segments holding a non-finite value, a magnitude beyond the _EXACT_HUGE
    and _EXACT_TINY bounds, or a remainder left after _EXACT_PASSES passes,
    and every segment of a short x, are summed by math.fsum itself.
    """
    starts = np.cumsum(sizes) - sizes
    slow = np.full(len(sizes), len(x) < _EXACT_CUTOFF)
    _, k = np.frexp(sizes + 1.0)  # the least k with 2**k > n + 1
    parts, r = [], x
    for _ in range(_EXACT_PASSES):
        if slow.all():
            break
        top = np.maximum.reduceat(np.abs(r), starts)  # NaN where a NaN is
        fall = ~slow & ~((top < _EXACT_HUGE) & ((top > _EXACT_TINY) | (top == 0.0)))
        if fall.any():
            slow |= fall
            r = np.where(np.repeat(slow, sizes), 0.0, r)
        top[slow] = 0.0
        if not top.any():
            break
        sigma = np.repeat(np.ldexp(1.0, np.frexp(top)[1] + k), sizes)
        q = (sigma + r) - sigma
        parts.append(np.add.reduceat(q, starts))
        r = r - q
    else:
        slow |= np.maximum.reduceat(np.abs(r), starts) > 0.0
    parts = np.array(parts).reshape(-1, len(sizes))
    sums = parts.sum(axis=0)
    for j in np.flatnonzero(np.count_nonzero(parts, axis=0) > 2):
        sums[j] = math.fsum(parts[:, j].tolist())
    for j in np.flatnonzero(slow).tolist():
        sums[j] = math.fsum(x[starts[j] : starts[j] + sizes[j]].tolist())
    return sums


def _exact_sum(values) -> float:
    """math.fsum(values), bit for bit; values is a float64 array or any iterable."""
    x = values if isinstance(values, np.ndarray) else np.fromiter(values, dtype=float)
    if len(x) < _EXACT_CUTOFF:
        return math.fsum(x.tolist())
    return float(_exact_sums(x, np.array([len(x)]))[0])


def _check_unit_interval(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteValue(f"non-finite {name} {x}")
    if not 0.0 <= x <= 1.0:
        raise RiskOutOfRange(f"{name} {x} outside [0, 1]")
    return x


def _check_mass(f: float) -> float:
    f = float(f)
    if not math.isfinite(f):
        raise NonFiniteValue(f"non-finite mass {f}")
    if f < 0.0:
        raise MassSumOutOfTolerance(f"negative mass {f}")
    return f


def _nonnegative_sum(values) -> float:
    """Exact sum of nonnegative values; inf when it exceeds the float range."""
    try:
        return _exact_sum(values)
    except OverflowError:  # raised for an intermediate sum of finite values
        return math.inf


def _check_total_mass(masses) -> None:
    """Nonnegative masses must sum to 1 within MASS_SUM_TOL."""
    total = _nonnegative_sum(masses)
    if abs(total - 1.0) > MASS_SUM_TOL:
        raise MassSumOutOfTolerance(f"masses sum to {total!r}, not 1 within {MASS_SUM_TOL}")


def _merge_tied_risks(rows) -> list[list]:
    """Merge risk-sorted (risk, mass, label) rows whose risks tie.

    For callers whose risk is also the prevalence. Consecutive rows whose
    risks agree within RISK_MERGE_TOL become one [risk, mass, labels] entry,
    risk mass-weighted, labels in row order.
    """
    merged: list[list] = []
    for risk, mass, label in rows:
        if merged and risk - merged[-1][0] <= RISK_MERGE_TOL:
            r0, m0, labels = merged[-1]
            m = m0 + mass
            merged[-1] = [(r0 * m0 + risk * mass) / m, m, labels + [label]]
        else:
            merged.append([risk, mass, [label]])
    return merged


@dataclass(frozen=True)
class RiskDistribution:
    """Finite support distribution of true risk.

    points holds (risk, mass) pairs sorted by risk, with risks pairwise
    distinct beyond merge tolerance and masses positive. Construct with
    make_distribution rather than directly.
    """

    points: tuple[tuple[float, float], ...]

    @property
    def risks(self) -> tuple[float, ...]:
        return tuple(p for p, _ in self.points)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(f for _, f in self.points)

    def mean(self) -> float:
        return math.fsum(p * f for p, f in self.points)

    def variance(self) -> float:
        m = self.mean()
        return math.fsum(f * ((p - m) * (p - m)) for p, f in self.points)


def make_distribution(points) -> RiskDistribution:
    """Build a RiskDistribution from (risk, mass) pairs.

    Zero-mass points are dropped, risks equal within 1e-12 are merged
    (mass-weighted), and the result is sorted by risk. Masses must sum to 1
    within 1e-9 after validation.
    """
    pairs = [(_check_unit_interval("risk", p), _check_mass(f)) for p, f in points]
    if not pairs:
        raise EmptyInput("risk distribution needs at least one support point")
    pairs = [(p, f) for p, f in pairs if f > 0.0]
    if not pairs:
        raise EmptyInput("all support points have zero mass")
    _check_total_mass(f for _, f in pairs)
    pairs.sort()
    merged = _merge_tied_risks((p, f, None) for p, f in pairs)
    return RiskDistribution(points=tuple((p, f) for p, f, _ in merged))


def constant_distribution(pi: float) -> RiskDistribution:
    """All mass at a single risk equal to the population rate pi."""
    return make_distribution([(pi, 1.0)])


def deterministic_distribution(pi: float) -> RiskDistribution:
    """Mass 1 - pi at risk 0 and mass pi at risk 1: maximal heterogeneity.

    Variance is pi*(1 - pi), the upper bound for any distribution with mean pi.
    """
    pi = _check_unit_interval("rate", pi)
    return make_distribution([(0.0, 1.0 - pi), (1.0, pi)])
