"""Four-covariate synthetic family: cells, projections, cross-classification."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskeval import (
    ParameterOutOfRange,
    build_population,
    cross_classify,
    perfect_model_table,
    project_model,
    risk_distribution,
)

TOL = 1e-12
SUPPORT = (0.02, 0.06, 0.08, 0.09, 0.10, 0.18, 0.26, 0.42, 0.74)

# prevalence/mass layout of the two-covariate model at alpha = 0.2 and 0.8
MODEL1_A = ((0.0712, 0.16), (0.0856, 0.64), (0.1, 0.1), (0.2152, 0.08), (0.3304, 0.02))
MODEL1_B = ((0.0352, 0.64), (0.0676, 0.16), (0.1, 0.1), (0.3592, 0.02), (0.6184, 0.08))
# three-covariate model
MODEL2_A = (
    (0.052, 0.032), (0.076, 0.256), (0.088, 0.512), (0.1, 0.1),
    (0.196, 0.064), (0.292, 0.032), (0.484, 0.004),
)
MODEL2_B = (
    (0.028, 0.512), (0.064, 0.256), (0.082, 0.032), (0.1, 0.1),
    (0.244, 0.004), (0.388, 0.032), (0.676, 0.064),
)

alphas = st.integers(0, 1000).map(lambda i: i / 1000.0)
interior_alphas = st.integers(1, 999).map(lambda i: i / 1000.0)


def closed_form_variance(alpha: float) -> float:
    return 7.2e-4 * (1.0 + 3.0 * alpha) ** 3


def closed_form_prevalence_oracle(alpha: float, z0: int, z1: int, z2: int | None = None) -> float:
    """Exact subgroup prevalence for the two- or three-covariate model.

    Averaging the doubling rule over the unobserved binary covariates gives a
    factor (1 + alpha) per hidden covariate.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or not 0.0 <= alpha <= 1.0:
        raise ParameterOutOfRange(f"alpha {alpha} outside [0, 1]")
    if z0 not in (-1, 0, 1):
        raise ParameterOutOfRange(f"z0 {z0} not in {{-1, 0, 1}}")
    for name, z in (("z1", z1), ("z2", z2)):
        if z is not None and z not in (0, 1):
            raise ParameterOutOfRange(f"{name} {z} not in {{0, 1}}")
    if z0 == 0:
        return 0.1
    slope = 0.08 if z0 == 1 else -0.01
    if z2 is None:
        return 0.1 + slope * ((1.0 + alpha) * (1.0 + alpha)) * 2**z1
    return 0.1 + slope * (1.0 + alpha) * 2 ** (z1 + z2)


class TestBuildPopulation:
    def test_enumerates_24_cells(self, pop_a):
        assert len(pop_a.cells) == 24

    @given(alphas)
    def test_masses_sum_to_one(self, alpha):
        pop = build_population(alpha)
        assert abs(math.fsum(c.mass for c in pop.cells) - 1.0) <= TOL

    def test_highest_cell_risk(self, pop_a):
        top = [c for c in pop_a.cells if (c.z0, c.z1, c.z2, c.z3) == (1, 1, 1, 1)]
        assert top[0].risk == 0.74

    def test_middle_branch_risk_constant(self, pop_b):
        assert all(c.risk == 0.1 for c in pop_b.cells if c.z0 == 0)

    def test_alpha_validation(self):
        with pytest.raises(ParameterOutOfRange):
            build_population(1.5)
        with pytest.raises(ParameterOutOfRange):
            build_population(-0.01)
        with pytest.raises(ParameterOutOfRange):
            build_population(float("nan"))


def same_support(got, want):
    __tracebackhide__ = True
    assert len(got) == len(want)
    assert all(abs(a - b) <= TOL for a, b in zip(got, want))


class TestRiskDistribution:
    def test_interior_support(self, dist_a, dist_b):
        same_support(dist_a.risk.tolist(), SUPPORT)
        same_support(dist_b.risk.tolist(), SUPPORT)

    def test_boundary_support(self):
        same_support(risk_distribution(build_population(0.0)).risk.tolist(), (0.09, 0.10, 0.18))
        same_support(risk_distribution(build_population(1.0)).risk.tolist(), (0.02, 0.10, 0.74))

    @given(alphas)
    def test_mean_pinned_at_ten_percent(self, alpha):
        assert abs(risk_distribution(build_population(alpha)).mean() - 0.10) <= TOL

    @given(alphas)
    def test_variance_closed_form(self, alpha):
        d = risk_distribution(build_population(alpha))
        assert abs(d.variance() - closed_form_variance(alpha)) <= TOL

    def test_worked_example_variances(self, dist_a, dist_b):
        assert abs(dist_a.variance() - 0.00294912) <= TOL
        assert abs(dist_b.variance() - 0.02829888) <= TOL


def check_table(table, expected):
    __tracebackhide__ = True
    assert len(table.groups) == len(expected)
    for g, (prev, mass) in zip(table.groups, expected):
        assert abs(g.prevalence - prev) <= TOL
        assert abs(g.mass - mass) <= TOL
        assert g.risk == g.prevalence  # well-calibrated convention


class TestProjections:
    def test_two_covariate_tables(self, model1_a, model1_b):
        check_table(model1_a, MODEL1_A)
        check_table(model1_b, MODEL1_B)

    def test_three_covariate_tables(self, model2_a, model2_b):
        check_table(model2_a, MODEL2_A)
        check_table(model2_b, MODEL2_B)

    def test_group_keys_carry_covariate_values(self, model1_a):
        assert "z0=1,z1=1" in model1_a.key.tolist()
        # the z0=0 classes share prevalence 0.1 and merge into one group
        assert "z0=0,z1=0|z0=0,z1=1" in model1_a.key.tolist()

    def test_named_worked_groups(self, model1_a, model1_b, model2_b):
        by_key = {g.key: g for g in model1_a.groups}
        assert abs(by_key["z0=1,z1=1"].prevalence - 0.3304) <= TOL
        by_key = {g.key: g for g in model1_b.groups}
        assert abs(by_key["z0=1,z1=1"].prevalence - 0.6184) <= TOL
        assert abs(by_key["z0=1,z1=1"].mass - 0.08) <= TOL
        top_two = sorted(g.prevalence for g in model2_b.groups)[-2:]
        assert abs(top_two[0] - 0.388) <= TOL
        assert abs(top_two[1] - 0.676) <= TOL

    @given(interior_alphas)
    def test_two_covariate_closed_form(self, alpha):
        table = project_model(build_population(alpha), ("z0", "z1"))
        by_key = {m: g for g in table.groups for m in g.key.split("|")}
        for z0 in (-1, 0, 1):
            for z1 in (0, 1):
                want = closed_form_prevalence_oracle(alpha, z0, z1)
                assert abs(by_key[f"z0={z0},z1={z1}"].prevalence - want) <= TOL

    @given(interior_alphas)
    def test_three_covariate_closed_form(self, alpha):
        table = project_model(build_population(alpha), ("z0", "z1", "z2"))
        by_key = {m: g for g in table.groups for m in g.key.split("|")}
        for z0 in (-1, 0, 1):
            for z1 in (0, 1):
                for z2 in (0, 1):
                    want = closed_form_prevalence_oracle(alpha, z0, z1, z2)
                    got = by_key[f"z0={z0},z1={z1},z2={z2}"].prevalence
                    assert abs(got - want) <= TOL

    def test_closed_form_oracle_examples(self):
        assert abs(closed_form_prevalence_oracle(0.2, 1, 1) - 0.3304) <= TOL
        assert abs(closed_form_prevalence_oracle(0.8, -1, 1, 0) - 0.064) <= TOL
        assert closed_form_prevalence_oracle(0.37, 0, 1) == 0.1
        assert closed_form_prevalence_oracle(0.37, 0, 0, 1) == 0.1

    def test_closed_form_oracle_validation(self):
        with pytest.raises(ParameterOutOfRange):
            closed_form_prevalence_oracle(1.2, 1, 1)
        with pytest.raises(ParameterOutOfRange):
            closed_form_prevalence_oracle(0.5, 2, 1)
        with pytest.raises(ParameterOutOfRange):
            closed_form_prevalence_oracle(0.5, 1, 3)

    def test_subset_order_does_not_matter(self, pop_a):
        assert project_model(pop_a, ("z1", "z0")) == project_model(pop_a, ("z0", "z1"))

    def test_full_subset_matches_perfect_model(self, pop_b, dist_b):
        full = project_model(pop_b, ("z0", "z1", "z2", "z3"))
        perfect = perfect_model_table(dist_b)
        assert len(full.groups) == len(perfect.groups) == 9
        for a, b in zip(full.groups, perfect.groups):
            assert abs(a.risk - b.risk) <= TOL
            assert abs(a.mass - b.mass) <= TOL
            assert abs(a.prevalence - b.prevalence) <= TOL

    def test_subset_validation(self, pop_a):
        with pytest.raises(ParameterOutOfRange):
            project_model(pop_a, ())
        with pytest.raises(ParameterOutOfRange):
            project_model(pop_a, ("z5",))
        with pytest.raises(ParameterOutOfRange):
            project_model(pop_a, ("z0", "z0"))

    def test_boundary_alpha_projects(self):
        table = project_model(build_population(0.0), ("z0",))
        assert abs(math.fsum(table.mass) - 1.0) <= TOL


class TestCrossClassify:
    def test_nine_cells(self, joint_a, joint_b):
        assert len(joint_a.cells) == 9
        assert len(joint_b.cells) == 9

    def test_marginals_reproduce_projections(self, joint_b, model1_b, model2_b):
        for axis, want in ((1, model1_b), (2, model2_b)):
            got = joint_b.marginal(axis)
            assert got.key.tolist() == want.key.tolist()
            for a, b in zip(got.groups, want.groups):
                assert abs(a.risk - b.risk) <= TOL
                assert abs(a.mass - b.mass) <= TOL
                assert abs(a.prevalence - b.prevalence) <= TOL

    def test_self_cross_is_diagonal(self, pop_a, model1_a):
        joint = cross_classify(pop_a, ("z0", "z1"), ("z0", "z1"))
        assert len(joint.cells) == len(model1_a.groups)
        for c in joint.cells:
            assert c.key1 == c.key2
            assert c.risk1 == c.risk2
            assert abs(c.prevalence - c.risk1) <= TOL

    def test_highest_group_split(self, joint_b):
        cells = [c for c in joint_b.cells if c.key1 == "z0=1,z1=1"]
        got = sorted((c.prevalence, c.mass) for c in cells)
        assert len(got) == 2
        assert abs(got[0][0] - 0.388) <= TOL and abs(got[0][1] - 0.016) <= TOL
        assert abs(got[1][0] - 0.676) <= TOL and abs(got[1][1] - 0.064) <= TOL

    def test_population_mean_carried(self, joint_a):
        assert abs(joint_a.population_mean - 0.10) <= TOL

    @given(interior_alphas)
    def test_variance_decomposition_over_alpha(self, alpha):
        # spread of joint prevalences = spread of first-model prevalences
        # plus the mass-weighted within-group spread
        pop = build_population(alpha)
        joint = cross_classify(pop, ("z0", "z1"), ("z0", "z1", "z2"))
        pi = joint.population_mean
        var_joint = math.fsum(c.mass * (c.prevalence - pi) ** 2 for c in joint.cells)
        m1 = joint.marginal(1)
        var_1 = math.fsum(g.mass * (g.prevalence - pi) ** 2 for g in m1.groups)
        within = {}
        for c in joint.cells:
            within.setdefault(c.key1, []).append(c)
        total_within = 0.0
        for key, cells in within.items():
            mass = math.fsum(c.mass for c in cells)
            mean = math.fsum(c.mass * c.prevalence for c in cells) / mass
            total_within += math.fsum(
                c.mass * (c.prevalence - mean) ** 2 for c in cells
            )
        assert abs(var_joint - (var_1 + total_within)) <= TOL
