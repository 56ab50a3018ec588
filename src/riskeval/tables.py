"""Model tables: assigned risks, group masses, and outcome prevalences.

A grouped table describes one risk model applied to a population: each group
carries the model's assigned risk, the fraction of the population in the
group, and the group's observed (or exactly computed) outcome prevalence.
A joint table cross-classifies two models over the same population.

Group keys are opaque labels. Matching between tables (calibration transfer,
risk assignment to joint cells) is by key, never by risk value: two distinct
groups of one model may legitimately share an assigned risk under another.
"""

import math
from dataclasses import dataclass, field

from .distributions import (
    RISK_MERGE_TOL,
    RiskDistribution,
    _check_mass,
    _check_total_mass,
    _check_unit_interval,
    _merge_tied_risks,
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


@dataclass(frozen=True)
class Group:
    """One risk group: assigned risk, population mass, outcome prevalence."""

    key: str
    risk: float
    mass: float
    prevalence: float


@dataclass(frozen=True)
class GroupedModelTable:
    """One model's risk groups over a population, sorted by assigned risk.

    Assigned risks are pairwise distinct (groups sharing a risk within 1e-12
    are merged at construction, prevalence mass-weighted). population_mean is
    the mass-weighted prevalence. declared_calibrated marks tables whose
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

    Zero-mass groups are dropped. Groups whose risks agree within 1e-12 are
    merged: mass-weighted risk and prevalence, member keys joined with "|" in
    sorted order.
    """
    rows = []
    for key, risk, mass, prev in entries:
        mass = _check_mass(mass)
        if mass == 0.0:
            continue
        rows.append(
            (
                _check_unit_interval("risk", risk),
                mass,
                _check_unit_interval("prevalence", prev),
                str(key),
            )
        )
    if not rows:
        raise EmptyInput("table needs at least one group with positive mass")
    _check_total_mass(math.fsum(m for _, m, _, _ in rows))
    rows.sort()
    merged = _merge_tied_risks(rows)
    groups = tuple(
        Group(key="|".join(sorted(keys)), risk=r, mass=m, prevalence=p)
        for r, m, p, keys in merged
    )
    seen = set()
    for g in groups:
        if g.key in seen:
            raise InvariantViolation(f"duplicate group key {g.key!r}")
        seen.add(g.key)
    mean = math.fsum(g.mass * g.prevalence for g in groups)
    return GroupedModelTable(
        groups=groups,
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
            rows = ((c.key1, (c.risk1,), c.mass, c.prevalence) for c in self.cells)
        else:
            rows = ((c.key2, (c.risk2,), c.mass, c.prevalence) for c in self.cells)
        return make_grouped_table((k, risks[0], m, p) for k, risks, m, p in _merge_by_key(rows))


def _validated_cells(cells):
    """Positive-mass cells as ((key1, key2), (risk1, risk2), mass, prevalence) rows."""
    for key1, key2, r1, r2, mass, prev in cells:
        mass = _check_mass(mass)
        if mass == 0.0:
            continue
        yield (
            (str(key1), str(key2)),
            (_check_unit_interval("risk1", r1), _check_unit_interval("risk2", r2)),
            mass,
            _check_unit_interval("prevalence", prev),
        )


def make_joint_table(cells) -> JointModelTable:
    """Build a JointModelTable from (key1, key2, risk1, risk2, mass, prevalence).

    Zero-mass cells are dropped; duplicate (key1, key2) cells are merged with
    mass-weighted prevalence and must agree on both assigned risks.
    """
    cells_out = tuple(
        sorted(
            (
                JointCell(key1=k1, key2=k2, risk1=r1, risk2=r2, mass=m, prevalence=p)
                for (k1, k2), (r1, r2), m, p in _merge_by_key(_validated_cells(cells))
            ),
            key=lambda c: (c.risk1, c.risk2, c.key1, c.key2),
        )
    )
    if not cells_out:
        raise EmptyInput("joint table needs at least one cell with positive mass")
    _check_total_mass(math.fsum(c.mass for c in cells_out))
    mean = math.fsum(c.mass * c.prevalence for c in cells_out)
    return JointModelTable(cells=cells_out, population_mean=mean)
