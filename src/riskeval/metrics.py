"""Measures of how well one risk model's assignments match outcomes.

All measures are exact functions of a grouped model table: the Brier score
splits into a calibration term (squared bias) plus a precision term that
depends only on the outcome prevalences across groups, never on the assigned
risk values themselves. Discrimination measures (correlation with outcome,
integrated discrimination, concordance) likewise depend only on prevalences
and masses, with concordance using the rank order of the assigned risks.

Each measure is an array expression over the table's columns reduced by an
exact sum with math.fsum's bits. Squares are products x * x, which IEEE
arithmetic rounds correctly; the C library's pow(x, 2.0), behind Python's
x ** 2, need not.
"""

import math
from typing import NamedTuple

import numpy as np

from .distributions import RiskDistribution, _exact_sum, make_distribution
from .errors import DegenerateOutcome, InternalInvariantError
from .tables import GroupedModelTable

IDENTITY_TOL = 1e-12


def _require_nondegenerate(table: GroupedModelTable) -> float:
    pi = table.population_mean
    if pi <= 0.0 or pi >= 1.0:
        raise DegenerateOutcome(
            f"population outcome rate {pi} leaves no outcome variation to discriminate"
        )
    return pi


def calibration_bias_sq(table: GroupedModelTable) -> float:
    """Mass-weighted squared gap between assigned risk and group prevalence."""
    d = table.risk - table.prevalence
    return _exact_sum(table.mass * (d * d))


def prevalence_variance(table: GroupedModelTable) -> float:
    """Variance of group prevalences around the population mean."""
    d = table.prevalence - table.population_mean
    return _exact_sum(table.mass * (d * d))


def brier_score(table: GroupedModelTable) -> float:
    """Expected squared difference between assigned risk and binary outcome."""
    p, d = table.prevalence, table.risk - table.prevalence
    return _exact_sum(table.mass * (p * (1.0 - p) + d * d))


def precision_loss(table: GroupedModelTable) -> float:
    """Brier score of the model after perfect recalibration.

    Equals pi*(1 - pi) minus the variance of group prevalences: the floor any
    model with these groups can reach, met when every assigned risk equals its
    group's prevalence.
    """
    pi = table.population_mean
    return pi * (1.0 - pi) - prevalence_variance(table)


def ro_correlation(table: GroupedModelTable) -> float:
    """Correlation between recalibrated risk and the binary outcome."""
    pi = _require_nondegenerate(table)
    return math.sqrt(prevalence_variance(table) / (pi * (1.0 - pi)))


class ConditionalRiskDistributions(NamedTuple):
    """Distributions of group membership among cases and among noncases.

    Both reuse RiskDistribution with the group prevalence as the support
    value; groups a condition cannot reach (prevalence 0 among cases,
    prevalence 1 among noncases) drop out.
    """

    cases: RiskDistribution
    noncases: RiskDistribution


def conditional_distributions(table: GroupedModelTable) -> ConditionalRiskDistributions:
    """Split the group masses by outcome status."""
    pi = _require_nondegenerate(table)
    m, p = table.mass, table.prevalence
    cases = make_distribution(zip(p.tolist(), (m * p / pi).tolist()))
    noncases = make_distribution(zip(p.tolist(), (m * (1.0 - p) / (1.0 - pi)).tolist()))
    return ConditionalRiskDistributions(cases=cases, noncases=noncases)


def integrated_discrimination(table: GroupedModelTable) -> float:
    """Mean prevalence among cases minus mean prevalence among noncases.

    Equals the squared outcome correlation.
    """
    pi = _require_nondegenerate(table)
    m, p = table.mass, table.prevalence
    among_cases = _exact_sum(p * m * p / pi)
    among_noncases = _exact_sum(p * m * (1.0 - p) / (1.0 - pi))
    return among_cases - among_noncases


def concordance(table: GroupedModelTable) -> float:
    """Probability a random case outranks a random noncase, ties split evenly.

    Ranking is by assigned risk. Groups of equal risk are pooled, so a case
    and a noncase of equal risk count half (the Mann-Whitney form). Exactly
    0.5 for a single-risk table and 1.0 when group prevalences are all 0 or 1.
    """
    pi = _require_nondegenerate(table)
    m, p, risk = table.mass[::-1], table.prevalence[::-1], table.risk[::-1]
    # Tie blocks from the highest risk down; each block's case (h1) and
    # noncase (h0) mass is summed from 0.0 in that order.
    block = np.cumsum(np.concatenate(([0], risk[1:] != risk[:-1])))
    h1 = np.bincount(block, weights=m * p / pi)
    h0 = np.bincount(block, weights=m * (1.0 - p) / (1.0 - pi))
    # Case mass in the blocks ranked above each block.
    above = np.concatenate(([0.0], np.cumsum(h1)[:-1]))
    return _exact_sum(h0 * (0.5 * h1 + above))


def attributes_diagram(table: GroupedModelTable) -> list[tuple[float, float, float]]:
    """(assigned risk, prevalence, mass) points sorted by assigned risk."""
    return list(zip(table.risk.tolist(), table.prevalence.tolist(), table.mass.tolist()))


class MetricsReport(NamedTuple):
    """All single-model measures for one table."""

    population_mean: float
    bias_sq: float
    precision_loss: float
    brier: float
    prevalence_variance: float
    ro_correlation: float
    integrated_discrimination: float
    concordance: float


def evaluate(table: GroupedModelTable) -> MetricsReport:
    """Compute every measure and verify the decomposition identities.

    Raises DegenerateOutcome when the population rate is 0 or 1, and
    InternalInvariantError if the independently computed measures fail to
    satisfy their exact algebraic relations within 1e-12.
    """
    pi = _require_nondegenerate(table)
    variance = prevalence_variance(table)
    report = MetricsReport(
        population_mean=pi,
        bias_sq=calibration_bias_sq(table),
        precision_loss=pi * (1.0 - pi) - variance,
        brier=brier_score(table),
        prevalence_variance=variance,
        ro_correlation=math.sqrt(variance / (pi * (1.0 - pi))),
        integrated_discrimination=integrated_discrimination(table),
        concordance=concordance(table),
    )
    checks = (
        ("brier = bias_sq + precision_loss", report.brier - (report.bias_sq + report.precision_loss)),
        (
            "integrated_discrimination = prevalence_variance / (pi (1 - pi))",
            report.integrated_discrimination
            - report.prevalence_variance / (pi * (1.0 - pi)),
        ),
        (
            "ro_correlation^2 = integrated_discrimination",
            report.ro_correlation * report.ro_correlation
            - report.integrated_discrimination,
        ),
    )
    for name, gap in checks:
        if not abs(gap) <= IDENTITY_TOL:
            raise InternalInvariantError(f"{name} violated by {gap!r}")
    return report
