"""Row-at-a-time reference table builder and formulas for differential tests.

These are the per-row builder and the row-wise metric, subgroup, cell-bias
and transfer formulas that the columnar tables in `riskeval.tables`
replaced, kept in behaviour: one frozen `Group` or `JointCell` per row,
merges in a dict, Python floats throughout. The table classes keep their
old names, so `repr` of a reference table is the text the columnar tables
must reproduce. The scalar checks are shared with the library.

`_merge_tied_risks` is the running-mean loop that merged tied risks before
`distributions._merge_ties`, kept verbatim.
"""

import math
from dataclasses import dataclass, field

from riskeval import (
    CellBias,
    ComparisonReport,
    DegenerateOutcome,
    GroupKeyMismatch,
    Group,
    InternalInvariantError,
    InvariantViolation,
    JointCell,
    MeanMismatch,
    MetricsReport,
    MissingAssignment,
    SubgroupGain,
    SubgroupGainReport,
)
from riskeval.comparison import MEAN_MATCH_RTOL
from riskeval.distributions import (
    RISK_MERGE_TOL,
    _check_mass,
    _check_total_mass,
    _check_unit_interval,
)
from riskeval.errors import EmptyInput
from riskeval.metrics import IDENTITY_TOL

# --------------------------------------------------------------------------
# builder


def _merge_by_key(rows):
    acc: dict = {}
    for key, risks, mass, prev in rows:
        slot = acc.get(key)
        if slot is None:
            acc[key] = [risks, mass, mass * prev]
            continue
        if risks != slot[0] and any(abs(a - b) > RISK_MERGE_TOL for a, b in zip(risks, slot[0])):
            raise InvariantViolation(
                f"group {key!r} carries conflicting assigned risks {slot[0]!r} and {risks!r}"
            )
        slot[1] += mass
        slot[2] += mass * prev
    return ((key, risks, mass, wsum / mass) for key, (risks, mass, wsum) in acc.items())


def _checked(rows, risk_names):
    for key, risks, mass, prev in rows:
        mass = _check_mass(mass)
        if mass != 0.0:
            risks = tuple(map(_check_unit_interval, risk_names, risks))
            yield key, risks, mass, _check_unit_interval("prevalence", prev)


def _keyed_rows(rows, risk_names, empty_message):
    merged = sorted(_merge_by_key(_checked(rows, risk_names)), key=lambda row: (*row[1], row[0]))
    if not merged:
        raise EmptyInput(empty_message)
    _check_total_mass(m for _, _, m, _ in merged)
    return merged, math.fsum(m * p for _, _, m, p in merged)


@dataclass(frozen=True)
class GroupedModelTable:
    groups: tuple[Group, ...]
    population_mean: float
    declared_calibrated: bool = field(default=False, compare=False)


def make_grouped_table(entries, *, declared_calibrated: bool = False) -> GroupedModelTable:
    rows, mean = _keyed_rows(
        ((str(k), (r,), m, p) for k, r, m, p in entries),
        ("risk",),
        "table needs at least one group with positive mass",
    )
    return GroupedModelTable(
        groups=tuple(Group(key=k, risk=r, mass=m, prevalence=p) for k, (r,), m, p in rows),
        population_mean=mean,
        declared_calibrated=declared_calibrated,
    )


@dataclass(frozen=True)
class JointModelTable:
    cells: tuple[JointCell, ...]
    population_mean: float

    def marginal(self, axis: int) -> GroupedModelTable:
        if axis == 1:
            return make_grouped_table((c.key1, c.risk1, c.mass, c.prevalence) for c in self.cells)
        return make_grouped_table((c.key2, c.risk2, c.mass, c.prevalence) for c in self.cells)


def make_joint_table(cells) -> JointModelTable:
    rows, mean = _keyed_rows(
        (((str(k1), str(k2)), (r1, r2), m, p) for k1, k2, r1, r2, m, p in cells),
        ("risk1", "risk2"),
        "joint table needs at least one cell with positive mass",
    )
    cells_out = tuple(
        JointCell(key1=k1, key2=k2, risk1=r1, risk2=r2, mass=m, prevalence=p)
        for (k1, k2), (r1, r2), m, p in rows
    )
    return JointModelTable(cells=cells_out, population_mean=mean)


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


# --------------------------------------------------------------------------
# single-model measures


def _require_nondegenerate(table) -> float:
    pi = table.population_mean
    if pi <= 0.0 or pi >= 1.0:
        raise DegenerateOutcome(
            f"population outcome rate {pi} leaves no outcome variation to discriminate"
        )
    return pi



def _square(d: float) -> float:
    """d * d: correctly rounded, as the library squares (Python's d ** 2 calls libm pow)."""
    return d * d

def calibration_bias_sq(table) -> float:
    return math.fsum(g.mass * _square(g.risk - g.prevalence) for g in table.groups)


def prevalence_variance(table) -> float:
    pi = table.population_mean
    return math.fsum(g.mass * _square(g.prevalence - pi) for g in table.groups)


def brier_score(table) -> float:
    return math.fsum(
        g.mass * (g.prevalence * (1.0 - g.prevalence) + _square(g.risk - g.prevalence))
        for g in table.groups
    )


def precision_loss(table) -> float:
    pi = table.population_mean
    return pi * (1.0 - pi) - prevalence_variance(table)


def ro_correlation(table) -> float:
    pi = _require_nondegenerate(table)
    return math.sqrt(prevalence_variance(table) / (pi * (1.0 - pi)))


def integrated_discrimination(table) -> float:
    pi = _require_nondegenerate(table)
    among_cases = math.fsum(g.prevalence * g.mass * g.prevalence / pi for g in table.groups)
    among_noncases = math.fsum(
        g.prevalence * g.mass * (1.0 - g.prevalence) / (1.0 - pi) for g in table.groups
    )
    return among_cases - among_noncases


def concordance(table) -> float:
    pi = _require_nondegenerate(table)
    terms = []
    above = 0.0
    h1 = h0 = 0.0
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


def evaluate(table) -> MetricsReport:
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


# --------------------------------------------------------------------------
# two-model comparison


def compare(table1, table2) -> ComparisonReport:
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


def transfer_calibration(source, target) -> GroupedModelTable:
    source_prev = {g.key: g.prevalence for g in source.groups}
    if set(source_prev) != {g.key for g in target.groups}:
        missing = sorted(set(source_prev) ^ {g.key for g in target.groups})
        raise GroupKeyMismatch(f"group keys differ between source and target: {missing}")
    return make_grouped_table(
        (g.key, source_prev[g.key], g.mass, g.prevalence) for g in target.groups
    )


def cross_classified_bias(joint, risks1, risks2) -> list[CellBias]:
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


def subgroup_precision_gain(joint) -> SubgroupGainReport:
    by_group: dict[str, list] = {}
    for c in joint.cells:
        by_group.setdefault(c.key1, []).append(c)
    rows = []
    for key, cells in by_group.items():
        mass = math.fsum(c.mass for c in cells)
        mean = math.fsum(c.mass * c.prevalence for c in cells) / mass
        var = math.fsum(c.mass * _square(c.prevalence - mean) for c in cells) / mass
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
