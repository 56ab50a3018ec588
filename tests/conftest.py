"""Shared fixtures: the worked-example tables and randomized-table factories."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import riskeval as rv

settings.register_profile(
    "suite", derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

SUBSET_1 = ("z0", "z1")
SUBSET_2 = ("z0", "z1", "z2")


@pytest.fixture(scope="session")
def pop_a():
    return rv.build_population(0.2)


@pytest.fixture(scope="session")
def pop_b():
    return rv.build_population(0.8)


@pytest.fixture(scope="session")
def dist_a(pop_a):
    return rv.risk_distribution(pop_a)


@pytest.fixture(scope="session")
def dist_b(pop_b):
    return rv.risk_distribution(pop_b)


@pytest.fixture(scope="session")
def model1_a(pop_a):
    return rv.project_model(pop_a, SUBSET_1)


@pytest.fixture(scope="session")
def model2_a(pop_a):
    return rv.project_model(pop_a, SUBSET_2)


@pytest.fixture(scope="session")
def model1_b(pop_b):
    return rv.project_model(pop_b, SUBSET_1)


@pytest.fixture(scope="session")
def model2_b(pop_b):
    return rv.project_model(pop_b, SUBSET_2)


@pytest.fixture(scope="session")
def joint_a(pop_a):
    return rv.cross_classify(pop_a, SUBSET_1, SUBSET_2)


@pytest.fixture(scope="session")
def joint_b(pop_b):
    return rv.cross_classify(pop_b, SUBSET_1, SUBSET_2)


def random_grouped_table(rng, max_groups: int = 8, calibrated: bool = False):
    """Random valid grouped table; risks on a 5e-4 grid so none merge."""
    k = int(rng.integers(2, max_groups + 1))
    risks = np.sort(rng.choice(np.arange(1, 2000), size=k, replace=False)) / 2000.0
    masses = rng.dirichlet(np.ones(k))
    prevalences = risks if calibrated else rng.uniform(0.01, 0.99, size=k)
    return rv.make_grouped_table(
        (f"g{i}", float(risks[i]), float(masses[i]), float(prevalences[i]))
        for i in range(k)
    )


def random_joint_table(rng, max_side: int = 5):
    """Random valid joint table with every (group1, group2) cell populated."""
    k1 = int(rng.integers(2, max_side + 1))
    k2 = int(rng.integers(2, max_side + 1))
    risks1 = np.sort(rng.choice(np.arange(1, 1000), size=k1, replace=False)) / 1000.0
    risks2 = np.sort(rng.choice(np.arange(1, 1000), size=k2, replace=False)) / 1000.0
    masses = rng.dirichlet(np.ones(k1 * k2)).reshape(k1, k2)
    prevs = rng.uniform(0.01, 0.99, size=(k1, k2))
    return rv.make_joint_table(
        (f"a{i}", f"b{j}", float(risks1[i]), float(risks2[j]),
         float(masses[i, j]), float(prevs[i, j]))
        for i in range(k1)
        for j in range(k2)
    )


def pair_concordance_oracle(table) -> float:
    """O(k^2) pair-counting concordance: cases vs noncases, ties half-weighted."""
    pi = table.population_mean
    terms = []
    for gi in table.groups:
        h1 = gi.mass * gi.prevalence / pi
        for gj in table.groups:
            h0 = gj.mass * (1.0 - gj.prevalence) / (1.0 - pi)
            if gi.risk > gj.risk:
                terms.append(h1 * h0)
            elif gi.risk == gj.risk:
                terms.append(0.5 * h1 * h0)
    return math.fsum(terms)


def joint_as_grouped(joint):
    """The cross-classified model itself as a (well-calibrated) grouped table."""
    return rv.make_grouped_table(
        (f"{c.key1}/{c.key2}", c.prevalence, c.mass, c.prevalence)
        for c in joint.cells
    )


def relabeled(table, transform):
    """Same groups, transformed assigned risks."""
    return rv.make_grouped_table(
        (g.key, transform(g.risk), g.mass, g.prevalence) for g in table.groups
    )


def renamed(table, key):
    """Same groups, with group key renamed to key + "?", so that cells
    carrying key find no group."""
    return rv.make_grouped_table(
        (g.key + "?" if g.key == key else g.key, g.risk, g.mass, g.prevalence)
        for g in table.groups
    )


def risk_mapping(table) -> dict:
    """A grouped table's assigned risks by key."""
    return dict(zip(table.key.tolist(), table.risk.tolist()))


@pytest.fixture
def grouped_factory():
    return random_grouped_table


@pytest.fixture
def joint_factory():
    return random_joint_table
