"""Model tables: assigned risks, group masses, and outcome prevalences.

A grouped table describes one risk model applied to a population: each group
carries the model's assigned risk, the fraction of the population in the
group, and the group's observed (or exactly computed) outcome prevalence.
A joint table cross-classifies two models over the same population.

Group keys are identity. Entries that share a key are one group; distinct
keys stay distinct groups even when their assigned risks are equal, so a
shared risk value never merges two groups. Matching between tables
(calibration transfer, risk assignment to joint cells) is by key, never by
risk value.
"""

import math
from dataclasses import dataclass, field

from .distributions import (
    RISK_MERGE_TOL,
    RiskDistribution,
    _check_mass,
    _check_total_mass,
    _check_unit_interval,
)
from .errors import EmptyInput, InvariantViolation


def format_label(x: float) -> str:
    """Canonical 12-significant-digit label for a numeric group key."""
    return format(float(x), ".12g")


def _merge_by_key(rows):
    """Merge validated (key, risks, mass, prevalence) rows by key.

    Masses add in row order and each key's risks tuple must agree within
    RISK_MERGE_TOL. Returns an iterator over (key, risks, mass, prevalence),
    one per key in order of first appearance, with the prevalence divided
    once as sum(m p) / sum(m).
    """
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
    """Positive-mass (key, risks, mass, prevalence) rows, every value validated."""
    for key, risks, mass, prev in rows:
        mass = _check_mass(mass)
        if mass != 0.0:
            risks = tuple(map(_check_unit_interval, risk_names, risks))
            yield key, risks, mass, _check_unit_interval("prevalence", prev)


def _keyed_rows(rows, risk_names, empty_message):
    """Build path shared by grouped and joint tables.

    rows are (key, risks, mass, prevalence). Zero-mass rows are dropped,
    rows sharing a key merge, and the result is sorted by (risks, key);
    masses must sum to 1 within 1e-9. Returns the merged rows and the
    population mean.
    """
    merged = sorted(_merge_by_key(_checked(rows, risk_names)), key=lambda row: (*row[1], row[0]))
    if not merged:
        raise EmptyInput(empty_message)
    _check_total_mass(math.fsum(m for _, _, m, _ in merged))
    return merged, math.fsum(m * p for _, _, m, p in merged)


@dataclass(frozen=True)
class Group:
    """One risk group: assigned risk, population mass, outcome prevalence."""

    key: str
    risk: float
    mass: float
    prevalence: float


@dataclass(frozen=True)
class GroupedModelTable:
    """One model's risk groups over a population, sorted by (risk, key).

    Keys are identity and unique. Groups are never merged for sharing an
    assigned risk: several groups may carry the same risk. population_mean
    is the mass-weighted prevalence. declared_calibrated marks tables whose
    prevalences were defaulted to the assigned risks at load time.
    """

    groups: tuple[Group, ...]
    population_mean: float
    declared_calibrated: bool = field(default=False, compare=False)

    @property
    def risks(self) -> tuple[float, ...]:
        return tuple(g.risk for g in self.groups)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(g.mass for g in self.groups)

    @property
    def prevalences(self) -> tuple[float, ...]:
        return tuple(g.prevalence for g in self.groups)

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(g.key for g in self.groups)


def make_grouped_table(
    entries, *, declared_calibrated: bool = False
) -> GroupedModelTable:
    """Build a GroupedModelTable from (key, risk, mass, prevalence) entries.

    Keys are identity: zero-mass entries are dropped, and entries sharing a
    key merge into one group with mass-weighted prevalence (their risks must
    agree within 1e-12). Distinct keys are never merged, even at equal risk;
    groups are sorted by (risk, key).
    """
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


def perfect_model_table(dist: RiskDistribution) -> GroupedModelTable:
    """Table of a model that assigns everyone their true risk.

    Groups are the support points of the risk distribution; assigned risk and
    prevalence both equal the true risk.
    """
    return make_grouped_table(
        (format_label(p), p, f, p) for p, f in dist.points
    )


@dataclass(frozen=True)
class JointCell:
    """One cell of a two-model cross-classification."""

    key1: str
    key2: str
    risk1: float
    risk2: float
    mass: float
    prevalence: float


@dataclass(frozen=True)
class JointModelTable:
    """Cross-classification of two models over one population.

    Cells are keyed by (first-model group, second-model group) pairs and
    sorted by (risk1, risk2, key1, key2). Marginalizing over either model
    reproduces the other model's grouped table.
    """

    cells: tuple[JointCell, ...]
    population_mean: float

    def marginal(self, axis: int) -> GroupedModelTable:
        """Grouped table of model 1 (axis=1) or model 2 (axis=2).

        Within each group the assigned risk is constant by construction; the
        prevalence is the mass-weighted mean over the group's cells.
        """
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        if axis == 1:
            return make_grouped_table((c.key1, c.risk1, c.mass, c.prevalence) for c in self.cells)
        return make_grouped_table((c.key2, c.risk2, c.mass, c.prevalence) for c in self.cells)


def make_joint_table(cells) -> JointModelTable:
    """Build a JointModelTable from (key1, key2, risk1, risk2, mass, prevalence).

    Zero-mass cells are dropped; duplicate (key1, key2) cells are merged with
    mass-weighted prevalence and must agree on both assigned risks.
    """
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
