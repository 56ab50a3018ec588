"""Single-model measures: decomposition, discrimination, concordance."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import riskeval.metrics
from conftest import pair_concordance_oracle, random_grouped_table, relabeled
from riskeval import (
    DegenerateOutcome,
    InternalInvariantError,
    InvariantViolation,
    attributes_diagram,
    brier_score,
    calibration_bias_sq,
    concordance,
    conditional_distributions,
    constant_distribution,
    deterministic_distribution,
    evaluate,
    integrated_discrimination,
    make_grouped_table,
    make_joint_table,
    perfect_model_table,
    precision_loss,
    prevalence_variance,
    ro_correlation,
    transfer_calibration,
)

TOL = 1e-12

# frozen enumeration-oracle values for the worked example
VAR_1A, VAR_2A = 0.0023887872, 0.002654208
VAR_1B, VAR_2B = 0.0256981248, 0.026967168
BRIER_1A, BRIER_2A = 0.0876112128, 0.087345792
BRIER_1B, BRIER_2B = 0.0643018752, 0.063032832
ZETA_1A, ZETA_2A, ZETA_PA = 0.593696, 0.5992256, 0.60319872
ZETA_1B, ZETA_2B, ZETA_PB = 0.805856, 0.8210624, 0.83286912
RHO_PA, RHO_PB = 0.18101933598375622, 0.5607423650840019

seeds = st.integers(0, 10_000)


def random_table(seed, **kw):
    return random_grouped_table(np.random.default_rng(seed), **kw)


class TestGroupKeys:
    def test_equal_risks_stay_distinct_groups(self):
        table = make_grouped_table(
            [("b", 0.2, 0.25, 0.1), ("c", 0.1, 0.25, 0.3), ("a", 0.2, 0.5, 0.3)]
        )
        assert table.key.tolist() == ["c", "a", "b"]
        assert table.risk.tolist() == [0.1, 0.2, 0.2]
        assert table.prevalence.tolist() == [0.3, 0.3, 0.1]

    def test_repeated_key_is_one_group(self):
        table = make_grouped_table([("k", 0.2, 0.5, 0.1), ("k", 0.2, 0.5, 0.3)])
        assert table.key.tolist() == ["k"]
        assert table.mass.tolist() == [1.0]
        assert abs(table.groups[0].prevalence - 0.2) <= TOL

    def test_repeated_key_with_conflicting_risks_rejected(self):
        with pytest.raises(InvariantViolation, match="conflicting assigned risks"):
            make_grouped_table([("k", 0.2, 0.5, 0.1), ("k", 0.3, 0.5, 0.3)])

    def test_marginal_keeps_keys_of_tied_risks(self):
        # Model 2's groups x and y both have prevalence 0 and so risk 0.
        joint = make_joint_table(
            [
                (k1, k2, r1, r2, 0.25, prev)
                for k1, r1 in (("a", 0.1), ("b", 0.3))
                for k2, r2, prev in (("x", 0.0, 0.0), ("y", 0.0, 0.0))
            ]
        )
        marginal = joint.marginal(2)
        assert marginal.key.tolist() == ["x", "y"]
        assert marginal.mass.tolist() == [0.5, 0.5]


class TestBrierDecomposition:
    def test_calibrated_tables_have_zero_bias(self, model1_a, model2_b):
        assert calibration_bias_sq(model1_a) <= TOL
        assert calibration_bias_sq(model2_b) <= TOL

    def test_worked_example_briers(self, model1_a, model2_a, model1_b, model2_b):
        assert abs(brier_score(model1_a) - BRIER_1A) <= TOL
        assert abs(brier_score(model2_a) - BRIER_2A) <= TOL
        assert abs(brier_score(model1_b) - BRIER_1B) <= TOL
        assert abs(brier_score(model2_b) - BRIER_2B) <= TOL

    def test_worked_example_variances(self, model1_a, model2_a, model1_b, model2_b):
        assert abs(prevalence_variance(model1_a) - VAR_1A) <= TOL
        assert abs(prevalence_variance(model2_a) - VAR_2A) <= TOL
        assert abs(prevalence_variance(model1_b) - VAR_1B) <= TOL
        assert abs(prevalence_variance(model2_b) - VAR_2B) <= TOL

    def test_precision_loss_definition(self, model1_a):
        pi = model1_a.population_mean
        want = pi * (1.0 - pi) - prevalence_variance(model1_a)
        assert abs(precision_loss(model1_a) - want) <= TOL
        assert abs(brier_score(model1_a) - (0.09 - VAR_1A)) <= TOL

    def test_deterministic_perfect_model_scores_zero(self):
        table = make_grouped_table([("lo", 0.0, 0.9, 0.0), ("hi", 1.0, 0.1, 1.0)])
        assert brier_score(table) == 0.0
        assert precision_loss(table) <= TOL

    def test_constant_model_on_constant_population(self):
        table = perfect_model_table(constant_distribution(0.3))
        assert abs(brier_score(table) - 0.3 * 0.7) <= TOL
        assert abs(precision_loss(table) - 0.21) <= TOL  # maximal loss

    @given(seeds)
    def test_decomposition_identity(self, seed):
        t = random_table(seed)
        lhs = brier_score(t)
        rhs = calibration_bias_sq(t) + precision_loss(t)
        assert abs(lhs - rhs) <= TOL


class TestDiscrimination:
    def test_worked_example_correlations(
        self, model1_a, model1_b, dist_a, dist_b
    ):
        assert abs(ro_correlation(model1_a) - math.sqrt(VAR_1A / 0.09)) <= TOL
        assert abs(ro_correlation(model1_b) - math.sqrt(VAR_1B / 0.09)) <= TOL
        assert abs(ro_correlation(perfect_model_table(dist_a)) - RHO_PA) <= TOL
        assert abs(ro_correlation(perfect_model_table(dist_b)) - RHO_PB) <= TOL

    def test_constant_population_has_zero_correlation(self):
        table = perfect_model_table(constant_distribution(0.1))
        assert ro_correlation(table) == 0.0
        assert abs(integrated_discrimination(table)) <= TOL

    def test_integrated_discrimination_worked_value(self, model1_a):
        assert abs(integrated_discrimination(model1_a) - VAR_1A / 0.09) <= TOL

    def test_deterministic_perfect_discrimination_is_one(self):
        table = make_grouped_table([("lo", 0.0, 0.9, 0.0), ("hi", 1.0, 0.1, 1.0)])
        assert abs(integrated_discrimination(table) - 1.0) <= TOL

    def test_degenerate_outcome_rejected(self):
        dead = make_grouped_table([("a", 0.2, 0.5, 0.0), ("b", 0.4, 0.5, 0.0)])
        sure = make_grouped_table([("a", 0.2, 0.5, 1.0), ("b", 0.4, 0.5, 1.0)])
        for table in (dead, sure):
            with pytest.raises(DegenerateOutcome):
                ro_correlation(table)
            with pytest.raises(DegenerateOutcome):
                evaluate(table)
            # bias and Brier stay defined
            assert brier_score(table) >= 0.0
            assert calibration_bias_sq(table) >= 0.0

    @given(seeds)
    def test_idi_equals_squared_correlation(self, seed):
        t = random_table(seed)
        assert abs(integrated_discrimination(t) - ro_correlation(t) ** 2) <= TOL

    @given(seeds)
    def test_relabeling_moves_only_bias(self, seed):
        t = random_table(seed)
        # non-monotone relabel: reassign risks in shuffled order
        perm = np.random.default_rng(seed + 1).permutation(len(t.groups))
        grid = [(i + 1) / (len(t.groups) + 1) for i in range(len(t.groups))]
        shuffled = make_grouped_table(
            (g.key, grid[perm[i]], g.mass, g.prevalence)
            for i, g in enumerate(t.groups)
        )
        assert abs(prevalence_variance(shuffled) - prevalence_variance(t)) <= TOL
        assert abs(precision_loss(shuffled) - precision_loss(t)) <= TOL
        assert (
            abs(integrated_discrimination(shuffled) - integrated_discrimination(t))
            <= TOL
        )

    def test_bias_does_change_under_relabeling(self, model1_a):
        shifted = relabeled(model1_a, lambda r: min(1.0, r + 0.01))
        assert calibration_bias_sq(model1_a) <= TOL
        assert calibration_bias_sq(shifted) > 1e-5


class TestConditionalDistributions:
    def test_worked_case_mass(self, model1_a):
        cond = conditional_distributions(model1_a)
        points = {round(p, 9): f for p, f in cond.cases.points}
        assert abs(points[0.3304] - 0.06608) <= TOL
        noncase = {round(p, 9): f for p, f in cond.noncases.points}
        assert abs(noncase[0.3304] - 0.02 * (1 - 0.3304) / 0.9) <= TOL

    @given(seeds)
    def test_both_sides_normalize(self, seed):
        cond = conditional_distributions(random_table(seed))
        assert abs(math.fsum(cond.cases.mass.tolist()) - 1.0) <= 1e-9
        assert abs(math.fsum(cond.noncases.mass.tolist()) - 1.0) <= 1e-9

    def test_constant_model_concentrates(self):
        table = perfect_model_table(constant_distribution(0.3))
        cond = conditional_distributions(table)
        assert cond.cases.points == ((0.3, 1.0),)
        assert cond.noncases.points == ((0.3, 1.0),)

    def test_difference_of_means_is_idi(self, model1_b):
        cond = conditional_distributions(model1_b)
        want = cond.cases.mean() - cond.noncases.mean()
        assert abs(integrated_discrimination(model1_b) - want) <= TOL


class TestConcordance:
    def test_worked_example_values(
        self, model1_a, model2_a, model1_b, model2_b, dist_a, dist_b
    ):
        assert abs(concordance(model1_a) - ZETA_1A) <= TOL
        assert abs(concordance(model2_a) - ZETA_2A) <= TOL
        assert abs(concordance(model1_b) - ZETA_1B) <= TOL
        assert abs(concordance(model2_b) - ZETA_2B) <= TOL
        assert abs(concordance(perfect_model_table(dist_a)) - ZETA_PA) <= TOL
        assert abs(concordance(perfect_model_table(dist_b)) - ZETA_PB) <= TOL

    def test_single_group_is_exactly_half(self):
        assert concordance(perfect_model_table(constant_distribution(0.2))) == 0.5

    def test_deterministic_perfect_is_exactly_one(self):
        table = make_grouped_table([("lo", 0.0, 0.63, 0.0), ("hi", 1.0, 0.37, 1.0)])
        assert concordance(table) == 1.0

    @given(seeds)
    def test_matches_pair_counting(self, seed):
        t = random_table(seed)
        assert abs(concordance(t) - pair_concordance_oracle(t)) <= TOL

    @given(seeds)
    def test_tied_risks_match_pair_counting(self, seed):
        # Risks drawn from three values: distinct keys share risks, and the
        # pooled tie blocks must count case/noncase pairs half, as the oracle does.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 13))
        risks = rng.choice([0.1, 0.4, 0.7], size=k)
        masses = rng.dirichlet(np.ones(k))
        prevalences = rng.uniform(0.01, 0.99, size=k)
        t = make_grouped_table(
            (f"g{i}", float(risks[i]), float(masses[i]), float(prevalences[i]))
            for i in range(k)
        )
        assert len(t.groups) == k
        assert abs(concordance(t) - pair_concordance_oracle(t)) <= TOL

    @given(seeds)
    def test_invariant_under_monotone_relabeling(self, seed):
        t = random_table(seed)
        base = concordance(t)
        for transform in (
            lambda r: r * r,
            lambda r: r**3,
            lambda r: 0.25 + r / 2,
            lambda r: math.sqrt(r),
        ):
            assert abs(concordance(relabeled(t, transform)) - base) <= TOL

    @given(seeds)
    def test_rank_index_relabeling(self, seed):
        t = random_table(seed)
        k = len(t.groups)
        ranked = make_grouped_table(
            (g.key, (i + 1) / (k + 1), g.mass, g.prevalence)
            for i, g in enumerate(t.groups)
        )
        assert abs(concordance(ranked) - concordance(t)) <= TOL

    @given(seeds)
    def test_order_reversal_complements(self, seed):
        t = random_table(seed)
        flipped = relabeled(t, lambda r: 1.0 - r)
        assert abs(concordance(flipped) - (1.0 - concordance(t))) <= TOL

    @given(seeds)
    def test_bounds(self, seed):
        assert 0.0 <= concordance(random_table(seed)) <= 1.0


class TestAttributesDiagram:
    def test_calibrated_points_on_diagonal(self, model2_a):
        for r, prev, mass in attributes_diagram(model2_a):
            assert r == prev
            assert mass > 0.0

    def test_five_points_for_two_covariate_model(self, model1_a):
        assert len(attributes_diagram(model1_a)) == 5

    def test_transfer_gap_largest_at_top_risk(self, model1_a, model1_b):
        table = transfer_calibration(model1_a, model1_b)
        points = attributes_diagram(table)
        gaps = [abs(prev - r) for r, prev, _ in points]
        assert gaps.index(max(gaps)) == len(points) - 1
        top_r, top_prev, _ = points[-1]
        assert abs(top_r - 0.3304) <= TOL
        assert abs(top_prev - 0.6184) <= TOL

    def test_sorted_by_risk(self, model2_b):
        risks = [r for r, _, _ in attributes_diagram(model2_b)]
        assert risks == sorted(risks)


class TestEvaluate:
    def test_report_fields_consistent(self, model1_b):
        rep = evaluate(model1_b)
        assert abs(rep.brier - (rep.bias_sq + rep.precision_loss)) <= TOL
        assert abs(rep.ro_correlation**2 - rep.integrated_discrimination) <= TOL
        assert abs(rep.population_mean - 0.1) <= TOL

    def test_identity_guard_raises_when_tightened(self, model1_b, monkeypatch):
        monkeypatch.setattr(riskeval.metrics, "IDENTITY_TOL", -1.0)
        with pytest.raises(InternalInvariantError):
            evaluate(model1_b)
