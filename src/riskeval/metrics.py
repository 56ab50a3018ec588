"""Measures of how well one risk model's assignments match outcomes.

All measures are exact functions of a grouped model table: the Brier score
splits into a calibration term (squared bias) plus a precision term that
depends only on the outcome prevalences across groups, never on the assigned
risk values themselves. Discrimination measures (correlation with outcome,
integrated discrimination, concordance) likewise depend only on prevalences
and masses, with concordance using the rank order of the assigned risks.
"""

import math
from dataclasses import dataclass

from .distributions import RiskDistribution, make_distribution
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
    return math.fsum(g.mass * (g.risk - g.prevalence) ** 2 for g in table.groups)


def prevalence_variance(table: GroupedModelTable) -> float:
    """Variance of group prevalences around the population mean."""
    pi = table.population_mean
    return math.fsum(g.mass * (g.prevalence - pi) ** 2 for g in table.groups)


def brier_score(table: GroupedModelTable) -> float:
    """Expected squared difference between assigned risk and binary outcome."""
    return math.fsum(
        g.mass * (g.prevalence * (1.0 - g.prevalence) + (g.risk - g.prevalence) ** 2)
        for g in table.groups
    )


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


@dataclass(frozen=True)
class ConditionalRiskDistributions:
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
    cases = make_distribution(
        (g.prevalence, g.mass * g.prevalence / pi) for g in table.groups
    )
    noncases = make_distribution(
        (g.prevalence, g.mass * (1.0 - g.prevalence) / (1.0 - pi)) for g in table.groups
    )
    return ConditionalRiskDistributions(cases=cases, noncases=noncases)


def integrated_discrimination(table: GroupedModelTable) -> float:
    """Mean prevalence among cases minus mean prevalence among noncases.

    Equals the squared outcome correlation.
    """
    pi = _require_nondegenerate(table)
    among_cases = math.fsum(g.prevalence * g.mass * g.prevalence / pi for g in table.groups)
    among_noncases = math.fsum(
        g.prevalence * g.mass * (1.0 - g.prevalence) / (1.0 - pi) for g in table.groups
    )
    return among_cases - among_noncases


def concordance(table: GroupedModelTable) -> float:
    """Probability a random case outranks a random noncase, ties split evenly.

    Ranking is by assigned risk. Groups of equal risk are pooled, so a case
    and a noncase of equal risk count half (the Mann-Whitney form). Exactly
    0.5 for a single-risk table and 1.0 when group prevalences are all 0 or 1.
    """
    pi = _require_nondegenerate(table)
    terms = []
    above = 0.0  # case mass in groups ranked above the current tie block
    h1 = h0 = 0.0  # case and noncase mass of the current tie block
    risk = table.groups[-1].risk
    for g in reversed(table.groups):
        if g.risk != risk:
            terms.append(h0 * (0.5 * h1 + above))
            above += h1
            h1 = h0 = 0.0
        risk = g.risk
        h1 += g.mass * g.prevalence / pi
        h0 += g.mass * (1.0 - g.prevalence) / (1.0 - pi)
    terms.append(h0 * (0.5 * h1 + above))
    return math.fsum(terms)


def attributes_diagram(table: GroupedModelTable) -> list[tuple[float, float, float]]:
    """(assigned risk, prevalence, mass) points sorted by assigned risk."""
    return [(g.risk, g.prevalence, g.mass) for g in table.groups]


@dataclass(frozen=True)
class MetricsReport:
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
    report = MetricsReport(
        population_mean=pi,
        bias_sq=calibration_bias_sq(table),
        precision_loss=precision_loss(table),
        brier=brier_score(table),
        prevalence_variance=prevalence_variance(table),
        ro_correlation=ro_correlation(table),
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
            report.ro_correlation**2 - report.integrated_discrimination,
        ),
    )
    for name, gap in checks:
        if not abs(gap) <= IDENTITY_TOL:
            raise InternalInvariantError(f"{name} violated by {gap!r}")
    return report
