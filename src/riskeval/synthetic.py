"""Synthetic four-covariate population with exactly known risks.

One ternary covariate z0 in {-1, 0, 1} and three binary covariates z1, z2, z3
define 24 cells. True risk depends on z0's branch and doubles with each active
binary covariate; a single parameter alpha (the probability that each binary
covariate is active) controls how much risk heterogeneity the population has
without moving its mean, which is 0.10 for every alpha.

Projecting onto a covariate subset yields the well-calibrated model that
assigns each subgroup its exact outcome prevalence. Cross-classifying two
subsets yields the joint table of both models.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import RiskDistribution, _merge, _merge_ties, make_distribution
from .errors import ParameterOutOfRange
from .tables import (
    Columns,
    GroupedModelTable,
    JointModelTable,
    coded,
    make_grouped_table,
    make_joint_table,
    rows_of,
)

COVARIATES = ("z0", "z1", "z2", "z3")

_TAU = {-1: 0.8, 0: 0.1, 1: 0.1}


class CovariateCell(NamedTuple):
    z0: int
    z1: int
    z2: int
    z3: int
    mass: float
    risk: float


@dataclass(frozen=True)
class SyntheticPopulation:
    """All 24 covariate cells for one alpha. Boundary alphas keep zero-mass cells."""

    alpha: float
    cells: tuple[CovariateCell, ...]


def _cell_risk(z0: int, s: int) -> float:
    # s = z1 + z2 + z3; the high-risk branch z0 = 1 uses an 8x larger slope.
    if z0 == 1:
        return 0.1 + 0.08 * 2**s
    return 0.1 + 0.01 * z0 * 2**s


def build_population(alpha: float) -> SyntheticPopulation:
    """Enumerate the 24 cells for binary-covariate activation probability alpha."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or not 0.0 <= alpha <= 1.0:
        raise ParameterOutOfRange(f"alpha {alpha} outside [0, 1]")
    cells = []
    for z0, z1, z2, z3 in itertools.product((-1, 0, 1), (0, 1), (0, 1), (0, 1)):
        s = z1 + z2 + z3
        mass = _TAU[z0] * alpha**s * (1.0 - alpha) ** (3 - s)
        cells.append(CovariateCell(z0, z1, z2, z3, mass, _cell_risk(z0, s)))
    return SyntheticPopulation(alpha=alpha, cells=tuple(cells))


def risk_distribution(pop: SyntheticPopulation) -> RiskDistribution:
    """Distribution of true risk: nine support points for interior alpha."""
    return make_distribution((c.risk, c.mass) for c in pop.cells)


def _canonical_subset(subset) -> tuple[str, ...]:
    names = list(subset)
    if not names:
        raise ParameterOutOfRange("covariate subset must be nonempty")
    for name in names:
        if name not in COVARIATES:
            raise ParameterOutOfRange(f"unknown covariate {name!r}")
    if len(set(names)) != len(names):
        raise ParameterOutOfRange(f"duplicate covariate in subset {names}")
    return tuple(n for n in COVARIATES if n in names)


def _project(pop: SyntheticPopulation, subset):
    """Grouped table for a covariate subset, and the key column of the group
    of each positive-mass cell.

    Well-calibrated convention: assigned risk equals the class prevalence,
    so classes joined by a chain of sorted prevalence gaps of at most 1e-12
    form one group, keyed by their labels joined with "|" in label order.
    """
    subset = _canonical_subset(subset)
    cells = [c for c in pop.cells if c.mass != 0.0]
    classes = coded(",".join(f"{n}={getattr(c, n)}" for n in subset) for c in cells)
    mass, prev = _merge(classes.codes, *np.array([(c.mass, c.risk) for c in cells]).T)
    order = np.lexsort((mass, prev))  # by prevalence, then mass, then class
    tie, mass, prev = _merge_ties(prev[order], mass[order])
    # A class's code ranks its label, so sorted codes give the labels in order.
    members = np.split(order, np.cumsum(np.bincount(tie))[:-1])
    keys = np.array(["|".join(classes.labels[np.sort(m)]) for m in members], dtype=object)
    key_of = keys[tie[np.argsort(order)]]  # group key of each class
    table = make_grouped_table(Columns((keys,), (prev,), mass, prev))
    return table, coded(key_of[classes.codes])


def project_model(pop: SyntheticPopulation, subset) -> GroupedModelTable:
    """Well-calibrated model using only the given covariates.

    Groups are covariate-value classes, each assigned its exact prevalence.
    Classes joined by a chain of sorted prevalence gaps of at most 1e-12 form
    one group, whatever their masses, keyed by the class labels joined with
    "|". Zero-mass classes are dropped.
    """
    table, _ = _project(pop, subset)
    return table


def cross_classify(pop: SyntheticPopulation, subset1, subset2) -> JointModelTable:
    """Joint table of the two projected models, cells keyed by group pairs."""
    (table1, keys1), (table2, keys2) = _project(pop, subset1), _project(pop, subset2)
    risks = (table1.risk[rows_of(table1, keys1)], table2.risk[rows_of(table2, keys2)])
    mass, risk = np.array([(c.mass, c.risk) for c in pop.cells if c.mass != 0.0]).T
    return make_joint_table(Columns((keys1, keys2), risks, mass, risk))
