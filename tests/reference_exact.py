"""Exact values of the measures, in fractions.Fraction, from float columns.

Each function reads a grouped or joint table's or a risk distribution's
float64 columns, converts every entry to the Fraction it stands for, and
evaluates the measure's defining formula with no rounding. The mean in a
variance is the exact mass-weighted sum, as the code's is before it rounds:
masses are not renormalized, so they need only sum to 1 within 1e-9. A
model-1 group's mean in a joint table divides by the group's mass, as the
code's does.
"""

from fractions import Fraction


def _exact(column) -> list[Fraction]:
    return [Fraction(x) for x in column.tolist()]


def weighted_sum(mass, value) -> Fraction:
    """sum(m v)."""
    return sum((m * v for m, v in zip(_exact(mass), _exact(value))), Fraction(0))


def weighted_variance(mass, value) -> Fraction:
    """sum(m (v - c)**2) with c = sum(m v)."""
    m, v = _exact(mass), _exact(value)
    c = sum((a * b for a, b in zip(m, v)), Fraction(0))
    return sum((a * (b - c) ** 2 for a, b in zip(m, v)), Fraction(0))


def distribution_mean(dist) -> Fraction:
    """RiskDistribution.mean: sum(mass risk)."""
    return weighted_sum(dist.mass, dist.risk)


def distribution_variance(dist) -> Fraction:
    """RiskDistribution.variance: sum(mass (risk - mean)**2)."""
    return weighted_variance(dist.mass, dist.risk)


def population_mean(table) -> Fraction:
    """sum(mass prevalence)."""
    return weighted_sum(table.mass, table.prevalence)


def prevalence_variance(table) -> Fraction:
    """sum(mass (prevalence - population mean)**2)."""
    return weighted_variance(table.mass, table.prevalence)


def bias_sq(table) -> Fraction:
    """sum(mass (risk - prevalence)**2)."""
    r, m, p = _exact(table.risk), _exact(table.mass), _exact(table.prevalence)
    return sum((b * (a - c) ** 2 for a, b, c in zip(r, m, p)), Fraction(0))


def brier(table) -> Fraction:
    """sum(mass (prevalence (1 - prevalence) + (risk - prevalence)**2))."""
    r, m, p = _exact(table.risk), _exact(table.mass), _exact(table.prevalence)
    return sum((b * (c * (1 - c) + (a - c) ** 2) for a, b, c in zip(r, m, p)), Fraction(0))


def precision_loss(table) -> Fraction:
    """pi (1 - pi) - prevalence variance, pi the population mean."""
    pi = population_mean(table)
    return pi * (1 - pi) - prevalence_variance(table)


def ro_correlation_sq(table) -> Fraction:
    """ro_correlation squared, prevalence variance / (pi (1 - pi)): the root
    of a fraction need not be one."""
    pi = population_mean(table)
    return prevalence_variance(table) / (pi * (1 - pi))


def prevalence_moments(table) -> tuple[Fraction, Fraction]:
    """sum(mass prevalence**2) and sum(mass prevalence (1 - prevalence))."""
    m, p = _exact(table.mass), _exact(table.prevalence)
    return (
        sum((a * b * b for a, b in zip(m, p)), Fraction(0)),
        sum((a * b * (1 - b) for a, b in zip(m, p)), Fraction(0)),
    )


def integrated_discrimination(table) -> Fraction:
    """Mean prevalence among cases minus among noncases:
    sum(m p**2) / pi - sum(m p (1 - p)) / (1 - pi)."""
    pi = population_mean(table)
    cases, noncases = prevalence_moments(table)
    return cases / pi - noncases / (1 - pi)


def concordance(table) -> Fraction:
    """sum over risk levels r of H0(r) (H1(r) / 2 + H1(above r)): H1 sums
    m p / pi and H0 sums m (1 - p) / (1 - pi) over the groups at a level."""
    pi = population_mean(table)
    h1: dict[float, Fraction] = {}
    h0: dict[float, Fraction] = {}
    for r, m, p in zip(table.risk.tolist(), _exact(table.mass), _exact(table.prevalence)):
        h1[r] = h1.get(r, Fraction(0)) + m * p / pi
        h0[r] = h0.get(r, Fraction(0)) + m * (1 - p) / (1 - pi)
    total, above = Fraction(0), Fraction(0)
    for r in sorted(h1, reverse=True):
        total += h0[r] * (h1[r] / 2 + above)
        above += h1[r]
    return total


def subgroup_gains(joint) -> dict[str, tuple[Fraction, Fraction, Fraction]]:
    """Each model-1 group's mass M = sum(m), mean c = sum(m p) / M and
    within-group variance sum(m (p - c)**2) / M over its cells, by group key;
    the group's sd is the root of its variance."""
    cells: dict[str, list[tuple[Fraction, Fraction]]] = {}
    for key, m, p in zip(joint.key1.tolist(), _exact(joint.mass), _exact(joint.prevalence)):
        cells.setdefault(key, []).append((m, p))
    gains = {}
    for key, group in cells.items():
        mass = sum((m for m, _ in group), Fraction(0))
        mean = sum((m * p for m, p in group), Fraction(0)) / mass
        gains[key] = mass, mean, sum((m * (p - mean) ** 2 for m, p in group), Fraction(0)) / mass
    return gains


def total_gain(joint) -> Fraction:
    """sum over model-1 groups of mass * within-group variance."""
    return sum((mass * var for mass, _, var in subgroup_gains(joint).values()), Fraction(0))


def comparison(table1, table2) -> dict[str, Fraction]:
    """Each ComparisonReport field as the difference of exact measures:
    model 1's minus model 2's, but for idi and concordance, model 2's minus
    model 1's; population_mean is model 1's."""
    return {
        "population_mean": population_mean(table1),
        "brier_difference": brier(table1) - brier(table2),
        "bias_sq_difference": bias_sq(table1) - bias_sq(table2),
        "precision_difference": precision_loss(table1) - precision_loss(table2),
        "idi": integrated_discrimination(table2) - integrated_discrimination(table1),
        "concordance_difference": concordance(table2) - concordance(table1),
    }
