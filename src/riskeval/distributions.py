"""Discrete distributions of true outcome risk over a population.

A risk distribution assigns probability mass to a finite set of risk values in
[0, 1]. Its mean is the population outcome rate; its variance measures risk
heterogeneity and is bounded above by mean*(1 - mean).

The package's exact sums live here too: `_exact_sum` and `_exact_sums` give
math.fsum's bits for a whole array or for each of its contiguous segments.
So do the one merge kernel, `_merge`, for table keys and tied risks alike,
`_rows`, the one builder of every holder's rows from its columns, and the row
views: `_RowView` for distributions and tables, `_RowSequence` for the rest.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat

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


def _merge(codes: np.ndarray, mass: np.ndarray, prev: np.ndarray):
    """Summed mass and mass-weighted prevalence, sum(m p) / sum(m), per code.

    Sums run in row order, as a running Python sum does. bincount starts
    each sum at +0.0, so a code whose m p terms are all -0.0 is given back
    the -0.0 that a running sum of them keeps.
    """
    total = np.bincount(codes, weights=mass)
    wp = mass * prev
    wsum = np.bincount(codes, weights=wp)
    wsum[np.bincount(codes, weights=~(np.signbit(wp) & (wp == 0.0))) == 0] = -0.0
    with np.errstate(invalid="ignore"):  # an infinite total fails the mass check later
        return total, wsum / total


def _merge_ties(risk: np.ndarray, mass: np.ndarray):
    """Merge sorted risks joined by a chain of gaps of at most RISK_MERGE_TOL.

    The masses play no part. Each tie merges by _merge, risks as prevalences;
    a risk tied with no other keeps its bits. Returns each entry's tie and each
    tie's mass and risk, neighbouring tie risks more than 1e-12 apart.
    """
    tie = np.concatenate(([0], np.cumsum(np.diff(risk) > RISK_MERGE_TOL)))
    total, mean = _merge(tie, mass, risk)
    size = np.bincount(tie)
    lo, hi = risk[np.cumsum(size) - size], risk[np.cumsum(size) - 1]
    point = np.where(size == 1, lo, mean)
    # A rounded mean can leave its tie's range toward a neighbour just over 1e-12 away.
    while (near := np.diff(point) <= RISK_MERGE_TOL).any():
        move = np.append(near, False) | np.insert(near, 0, False)
        point = np.where(move & (point < lo), lo, np.where(move & (point > hi), hi, point))
    return tie, total, point


def _sealed(a: np.ndarray) -> np.ndarray:
    """a made read-only: a fresh array that its maker hands to a holder, which keeps it uncopied."""
    a.flags.writeable = False
    return a


def _own_arrays(holder) -> None:
    """Give a frozen dataclass read-only arrays of its own: it keeps a read-only
    array and copies a writable one, so a caller's array is never frozen."""
    for name, value in vars(holder).items():
        if isinstance(value, np.ndarray) and value.flags.writeable:
            object.__setattr__(holder, name, _sealed(value.copy()))


def _rows(holder, at: slice = slice(None)):
    """The holder's rows at the slice at, built lazily: its first dataclass fields
    are the columns of its _row NamedTuple. A numpy column gives Python values,
    a key column its str keys, and a column that is None gives None on every row."""
    columns = [getattr(holder, f.name) for f in fields(holder)[: len(holder._row._fields)]]
    return map(holder._row, *(repeat(None) if c is None else c[at].tolist() for c in columns))


class _RowView:
    """Equality, hash and repr through the row view, as for a table of rows."""

    _repr_fields: tuple[str, ...]
    _compare_fields: tuple[str, ...]

    __post_init__ = _own_arrays

    def _compared(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compare_fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_fields)
        return f"{type(self).__name__}({fields})"


class _RowSequence(_RowView, Sequence):
    """A read-only sequence of _row rows, held by a frozen dataclass whose
    fields are their columns; rows are built by _rows on access, and it
    compares and hashes as the tuple of its rows."""

    def _compared(self) -> tuple:
        return tuple(self)

    def columns(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(self.columns()[0])

    def __iter__(self):
        return _rows(self)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(_rows(self, i))
        i = range(len(self))[i]  # a whole index in range, or IndexError
        return next(_rows(self, slice(i, i + 1)))


@dataclass(frozen=True, eq=False, repr=False)
class RiskDistribution(_RowView):
    """Finite support distribution of true risk; construct with make_distribution.

    Columns risk and mass are sorted by risk, masses positive and neighbouring
    risks more than 1e-12 apart (risks joined by a chain of gaps of at most
    1e-12 are one point). points, the (risk, mass) pairs, is a view.
    """

    risk: np.ndarray
    mass: np.ndarray

    _repr_fields = _compare_fields = ("points",)
    points = property(lambda self: tuple(zip(self.risk.tolist(), self.mass.tolist())))

    def mean(self) -> float:
        return _exact_sum(self.risk * self.mass)

    def variance(self) -> float:
        d = self.risk - self.mean()
        return _exact_sum(self.mass * (d * d))


def make_distribution(points) -> RiskDistribution:
    """Build a RiskDistribution from (risk, mass) pairs.

    Zero-mass points are dropped and the rest sorted by risk. Risks joined
    by a chain of sorted gaps of at most 1e-12 tie, whatever their masses or
    input order, and merge into one point (summed mass, mass-weighted risk).
    Masses must sum to 1 within 1e-9 after validation.
    """
    pairs = [(_check_unit_interval("risk", p), _check_mass(f)) for p, f in points]
    if not pairs:
        raise EmptyInput("risk distribution needs at least one support point")
    pairs = [(p, f) for p, f in pairs if f > 0.0]
    if not pairs:
        raise EmptyInput("all support points have zero mass")
    _check_total_mass(f for _, f in pairs)
    _, mass, risk = _merge_ties(*np.array(sorted(pairs)).T)
    return RiskDistribution(_sealed(risk), _sealed(mass))


def constant_distribution(pi: float) -> RiskDistribution:
    """All mass at a single risk equal to the population rate pi."""
    return make_distribution([(pi, 1.0)])


def deterministic_distribution(pi: float) -> RiskDistribution:
    """Mass 1 - pi at risk 0 and mass pi at risk 1: maximal heterogeneity.

    Variance is pi*(1 - pi), the upper bound for any distribution with mean pi.
    """
    pi = _check_unit_interval("rate", pi)
    return make_distribution([(0.0, 1.0 - pi), (1.0, pi)])
