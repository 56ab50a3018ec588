"""Head-to-head comparison of two risk models on one population.

The Brier score difference between two models splits into a calibration part
and a precision part; the precision part equals the population outcome
variance times the integrated discrimination improvement. Cross-classifying
both models exposes where the finer model adds precision: within each group
of the coarser model, the spread of cross-classified prevalences is exactly
that group's contribution to the precision gain.
"""

import math
from dataclasses import dataclass
from typing import Mapping

from .distributions import _check_unit_interval
from .errors import (
    GroupKeyMismatch,
    InternalInvariantError,
    MeanMismatch,
    MissingAssignment,
)
from .metrics import IDENTITY_TOL, evaluate
from .tables import GroupedModelTable, JointModelTable, make_grouped_table

MEAN_MATCH_RTOL = 1e-9


@dataclass(frozen=True)
class ComparisonReport:
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
    source_prev = {g.key: g.prevalence for g in source.groups}
    if set(source_prev) != {g.key for g in target.groups}:
        missing = sorted(set(source_prev) ^ {g.key for g in target.groups})
        raise GroupKeyMismatch(f"group keys differ between source and target: {missing}")
    return make_grouped_table(
        (g.key, source_prev[g.key], g.mass, g.prevalence) for g in target.groups
    )


@dataclass(frozen=True)
class CellBias:
    """Assigned risks and their biases for one cross-classified cell."""

    key1: str
    key2: str
    mass: float
    prevalence: float
    risk1: float
    risk2: float
    bias1: float
    bias2: float


def cross_classified_bias(
    joint: JointModelTable,
    risks1: Mapping[str, float],
    risks2: Mapping[str, float],
) -> list[CellBias]:
    """Per-cell bias of each model's assigned risk against the cell prevalence.

    risks1 and risks2 map group keys of each model to assigned risks; every
    joint cell's keys must be covered.
    """
    rows = []
    for c in joint.cells:
        for key, risks in ((c.key1, risks1), (c.key2, risks2)):
            if key not in risks:
                raise MissingAssignment(f"no assigned risk for group {key!r}")
        r1 = _check_unit_interval("risk1", risks1[c.key1])
        r2 = _check_unit_interval("risk2", risks2[c.key2])
        rows.append(
            CellBias(
                key1=c.key1,
                key2=c.key2,
                mass=c.mass,
                prevalence=c.prevalence,
                risk1=r1,
                risk2=r2,
                bias1=r1 - c.prevalence,
                bias2=r2 - c.prevalence,
            )
        )
    return rows


@dataclass(frozen=True)
class SubgroupGain:
    """Spread of cross-classified prevalences within one model-1 group."""

    key: str
    risk: float
    mass: float
    prevalence_low: float
    prevalence_high: float
    variance: float
    sd: float


@dataclass(frozen=True)
class SubgroupGainReport:
    """Where model 2 refines model 1, and by how much in Brier precision."""

    population_mean: float
    rows: tuple[SubgroupGain, ...]
    total_gain: float


def subgroup_precision_gain(joint: JointModelTable) -> SubgroupGainReport:
    """Within-group prevalence spread of the cross-classification.

    Each row summarizes one model-1 group: the range and variance of the
    cross-classified prevalences inside it. The mass-weighted sum of the
    within-group variances is the total Brier precision gained by refining
    model 1 with the cross-classification.
    """
    by_group: dict[str, list] = {}
    for c in joint.cells:
        by_group.setdefault(c.key1, []).append(c)
    rows = []
    for key, cells in by_group.items():
        mass = math.fsum(c.mass for c in cells)
        mean = math.fsum(c.mass * c.prevalence for c in cells) / mass
        var = math.fsum(c.mass * (c.prevalence - mean) ** 2 for c in cells) / mass
        rows.append(
            SubgroupGain(
                key=key,
                risk=cells[0].risk1,
                mass=mass,
                prevalence_low=min(c.prevalence for c in cells),
                prevalence_high=max(c.prevalence for c in cells),
                variance=var,
                sd=math.sqrt(var),
            )
        )
    rows.sort(key=lambda r: (r.risk, r.key))
    total = math.fsum(r.mass * r.variance for r in rows)
    return SubgroupGainReport(
        population_mean=joint.population_mean, rows=tuple(rows), total_gain=total
    )
