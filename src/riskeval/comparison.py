"""Head-to-head comparison of two risk models on one population.

The Brier score difference between two models splits into a calibration part
and a precision part; the precision part equals the population outcome
variance times the integrated discrimination improvement. Cross-classifying
both models exposes where the finer model adds precision: within each group
of the coarser model, the spread of cross-classified prevalences is exactly
that group's contribution to the precision gain.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import _RowSequence, _exact_sum, _exact_sums, _sealed
from .errors import (
    GroupKeyMismatch,
    InternalInvariantError,
    MeanMismatch,
    MissingAssignment,
)
from .metrics import IDENTITY_TOL, evaluate
from .tables import (
    Columns,
    GroupedModelTable,
    JointModelTable,
    KeyColumn,
    _first,
    make_grouped_table,
    rows_of,
)

MEAN_MATCH_RTOL = 1e-9


class ComparisonReport(NamedTuple):
    """Differences between model 1 and model 2, positive when model 2 wins."""

    population_mean: float
    brier_difference: float
    bias_sq_difference: float
    precision_difference: float
    idi: float
    concordance_difference: float


def compare(table1: GroupedModelTable, table2: GroupedModelTable) -> ComparisonReport:
    """Compare two models of the same population.

    brier_difference is model 1's Brier score minus model 2's; likewise for
    the bias and precision parts. idi is the integrated discrimination
    improvement of model 2 over model 1.
    """
    pi1, pi2 = table1.population_mean, table2.population_mean
    if abs(pi1 - pi2) > MEAN_MATCH_RTOL * max(abs(pi1), abs(pi2)):
        raise MeanMismatch(f"population means differ: {pi1!r} vs {pi2!r}")
    m1, m2 = evaluate(table1), evaluate(table2)
    report = ComparisonReport(
        population_mean=pi1,
        brier_difference=m1.brier - m2.brier,
        bias_sq_difference=m1.bias_sq - m2.bias_sq,
        precision_difference=m1.precision_loss - m2.precision_loss,
        idi=m2.integrated_discrimination - m1.integrated_discrimination,
        concordance_difference=m2.concordance - m1.concordance,
    )
    gap = report.brier_difference - (report.bias_sq_difference + report.precision_difference)
    if not abs(gap) <= IDENTITY_TOL:
        raise InternalInvariantError(f"Brier difference split violated by {gap!r}")
    gap = report.precision_difference - pi1 * (1.0 - pi1) * report.idi
    if not abs(gap) <= IDENTITY_TOL:
        raise InternalInvariantError(f"precision/discrimination relation violated by {gap!r}")
    return report


def transfer_calibration(
    source: GroupedModelTable, target: GroupedModelTable
) -> GroupedModelTable:
    """Apply risks learned on one population to another.

    The source's group prevalences become the assigned risks; masses and
    prevalences come from the target. Both tables must have identical group
    keys (the same model structure).
    """
    rows = rows_of(source, target.key_column)
    # Keys are unique, so every target key found and equal counts mean equal key sets.
    if len(source.mass) != len(rows) or (rows < 0).any():
        missing = sorted(set(source.key.tolist()) ^ set(target.key.tolist()))
        raise GroupKeyMismatch(f"group keys differ between source and target: {missing}")
    risk = (source.prevalence[rows],)
    return make_grouped_table(Columns((target.key_column,), risk, target.mass, target.prevalence))


class CellBias(NamedTuple):
    """Assigned risks and their biases for one cross-classified cell."""

    key1: str
    key2: str
    mass: float
    prevalence: float
    risk1: float
    risk2: float
    bias1: float
    bias2: float


@dataclass(frozen=True, eq=False)
class CellBiasTable(_RowSequence):
    """Per-cell biases of a joint table, one column per CellBias field, in
    the joint table's cell order."""

    key1_column: KeyColumn
    key2_column: KeyColumn
    mass: np.ndarray
    prevalence: np.ndarray
    risk1: np.ndarray
    risk2: np.ndarray
    bias1: np.ndarray
    bias2: np.ndarray
    key1 = property(lambda self: self.key1_column.array())
    key2 = property(lambda self: self.key2_column.array())
    _row = CellBias


def cross_classified_bias(
    joint: JointModelTable, table1: GroupedModelTable, table2: GroupedModelTable
) -> CellBiasTable:
    """Per-cell bias of each model's assigned risk against the cell prevalence.

    table1 and table2 are the two models' grouped tables; each cell takes the
    risk of the group whose key it carries. The first cell, in cell order,
    whose model-1 or else model-2 key has no group raises. For risks learned
    on another population, pass transfer_calibration(source, joint.marginal(k)).
    """
    keys = joint.key1_column, joint.key2_column
    # Row -1, a key with no group, picks the appended NaN; a table's risks are never NaN.
    r1, r2 = (np.append(t.risk, np.nan)[rows_of(t, k)] for t, k in zip((table1, table2), keys))
    i = _first(np.isnan(r1) | np.isnan(r2))
    if i < len(r1):
        key = (joint.key1 if np.isnan(r1[i]) else joint.key2)[i]
        raise MissingAssignment(f"no assigned risk for group {key!r}")
    p = joint.prevalence
    return CellBiasTable(*keys, joint.mass, p, *map(_sealed, (r1, r2, r1 - p, r2 - p)))


class SubgroupGain(NamedTuple):
    """Spread of cross-classified prevalences within one model-1 group."""

    key: str
    risk: float
    mass: float
    prevalence_low: float
    prevalence_high: float
    variance: float
    sd: float


@dataclass(frozen=True, eq=False)
class SubgroupGainTable(_RowSequence):
    """Prevalence spread of model-1 groups, one column per SubgroupGain
    field, with groups sorted by (risk, key)."""

    key_column: KeyColumn
    risk: np.ndarray
    mass: np.ndarray
    prevalence_low: np.ndarray
    prevalence_high: np.ndarray
    variance: np.ndarray
    sd: np.ndarray
    key = property(lambda self: self.key_column.array())
    _row = SubgroupGain


class SubgroupGainReport(NamedTuple):
    """Where model 2 refines model 1, and by how much in Brier precision;
    rows holds one SubgroupGain per model-1 group (a SubgroupGainTable)."""

    population_mean: float
    rows: Sequence[SubgroupGain]
    total_gain: float


def subgroup_precision_gain(joint: JointModelTable) -> SubgroupGainReport:
    """Within-group prevalence spread of the cross-classification.

    Each row summarizes one model-1 group: the range and variance of the
    cross-classified prevalences inside it, with the risk of its first cell.
    The mass-weighted sum of the within-group variances is the total Brier
    precision gained by refining model 1 with the cross-classification.
    Group sums equal math.fsum's bits; of equal extremes, such as 0.0 and
    -0.0, the first in cell order is reported.
    """
    keys = joint.key1_column
    # Cells grouped by model-1 key, in cell order within each group.
    order = np.argsort(keys.codes, kind="stable")
    sizes = np.bincount(keys.codes)
    sizes = sizes[sizes > 0]  # the vocabulary may hold labels of no cell
    starts = np.cumsum(sizes) - sizes
    m, p = joint.mass[order], joint.prevalence[order]
    mass = _exact_sums(m, sizes)
    mean = _exact_sums(m * p, sizes) / mass
    d = p - np.repeat(mean, sizes)
    var = _exact_sums(m * (d * d), sizes) / mass
    heads = order[starts]  # each group's first cell
    risk = joint.risk1[heads]
    rank = np.lexsort((keys.codes[heads], risk))
    low, high = _first_extreme(np.minimum, p, starts), _first_extreme(np.maximum, p, starts)
    columns = [_sealed(x[rank]) for x in (risk, mass, low, high, var, np.sqrt(var))]
    return SubgroupGainReport(
        population_mean=joint.population_mean,
        rows=SubgroupGainTable(keys[heads[rank]], *columns),
        total_gain=_exact_sum(mass * var),
    )


def _first_extreme(extreme, p: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Python's min or max (extreme is np.minimum or np.maximum) of each
    segment of prevalences p: of equal extremes, the first in order.

    In [0, 1] only 0.0 and -0.0 are equal with other bits, so a segment whose
    extreme is zero takes its first zero.
    """
    out = extreme.reduceat(p, starts)
    at = np.flatnonzero(out == 0.0)
    if len(at):
        zeros = np.flatnonzero(p == 0.0)
        out[at] = p[zeros[np.searchsorted(zeros, starts[at])]]
    return out
