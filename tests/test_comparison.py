"""Two-model comparison, calibration transfer, subgroup precision gains."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_tables as ref
from conftest import (
    joint_as_grouped,
    random_grouped_table,
    random_joint_table,
    renamed,
    risk_mapping,
)
from riskeval import (
    GroupKeyMismatch,
    MeanMismatch,
    MissingAssignment,
    brier_score,
    calibration_bias_sq,
    compare,
    concordance,
    cross_classified_bias,
    cross_classify,
    integrated_discrimination,
    make_grouped_table,
    precision_loss,
    subgroup_precision_gain,
    transfer_calibration,
)

TOL = 1e-12

GAIN_A, GAIN_B = 0.0002654208, 0.0012690432
TRANSFER_BIAS_SQ_1, TRANSFER_BIAS_SQ_2 = 0.00793152, 0.002996352
# (assigned risk, prevalence) of the transferred two-covariate model, by key
TRANSFER_1_ROWS = {
    "z0=-1,z1=1": (0.0712, 0.0352),
    "z0=-1,z1=0": (0.0856, 0.0676),
    "z0=0,z1=0|z0=0,z1=1": (0.1, 0.1),
    "z0=1,z1=0": (0.2152, 0.3592),
    "z0=1,z1=1": (0.3304, 0.6184),
}
SUBGROUP_SDS_B = (0.0144, 0.0072, 0.0, 0.0576, 0.1152)

seeds = st.integers(0, 10_000)


class TestCompare:
    def test_worked_example_gains(self, model1_a, model2_a, model1_b, model2_b):
        a = compare(model1_a, model2_a)
        b = compare(model1_b, model2_b)
        assert abs(a.precision_difference - GAIN_A) <= TOL
        assert abs(b.precision_difference - GAIN_B) <= TOL
        assert abs(a.brier_difference - (brier_score(model1_a) - brier_score(model2_a))) <= TOL
        assert abs(b.idi - (integrated_discrimination(model2_b) - integrated_discrimination(model1_b))) <= TOL
        assert abs(b.concordance_difference - (concordance(model2_b) - concordance(model1_b))) <= TOL

    def test_self_comparison_is_zero(self, model1_b):
        rep = compare(model1_b, model1_b)
        assert rep.brier_difference == 0.0
        assert rep.bias_sq_difference == 0.0
        assert rep.precision_difference == 0.0
        assert rep.idi == 0.0
        assert rep.concordance_difference == 0.0

    def test_mean_mismatch_rejected(self):
        t1 = make_grouped_table([("a", 0.1, 1.0, 0.1)])
        t2 = make_grouped_table([("a", 0.1, 1.0, 0.11)])
        with pytest.raises(MeanMismatch):
            compare(t1, t2)

    @given(seeds)
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        t1 = random_grouped_table(rng)
        # same groups under different labels: identical population mean
        k = len(t1.groups)
        perm = rng.permutation(k)
        t2 = make_grouped_table(
            (g.key, (perm[i] + 1.0) / (k + 1.0), g.mass, g.prevalence)
            for i, g in enumerate(t1.groups)
        )
        fwd, back = compare(t1, t2), compare(t2, t1)
        assert fwd.brier_difference == -back.brier_difference
        assert fwd.bias_sq_difference == -back.bias_sq_difference
        assert fwd.precision_difference == -back.precision_difference
        assert fwd.idi == -back.idi
        assert fwd.concordance_difference == -back.concordance_difference

    @given(seeds)
    def test_precision_equals_scaled_idi(self, seed):
        rng = np.random.default_rng(seed)
        t1 = random_grouped_table(rng)
        t2 = make_grouped_table(
            (g.key, 1.0 - g.risk, g.mass, g.prevalence) for g in t1.groups
        )
        rep = compare(t1, t2)
        pi = rep.population_mean
        assert abs(rep.precision_difference - pi * (1.0 - pi) * rep.idi) <= TOL
        assert abs(
            rep.brier_difference
            - (rep.bias_sq_difference + rep.precision_difference)
        ) <= TOL


class TestTransferCalibration:
    def test_risks_from_source_rest_from_target(self, model1_a, model1_b):
        table = transfer_calibration(model1_a, model1_b)
        assert set(table.key.tolist()) == set(TRANSFER_1_ROWS)
        for g in table.groups:
            risk, prev = TRANSFER_1_ROWS[g.key]
            assert abs(g.risk - risk) <= TOL
            assert abs(g.prevalence - prev) <= TOL
        assert abs(math.fsum(table.mass) - 1.0) <= TOL

    def test_worked_example_biases(self, model1_a, model1_b, model2_a, model2_b):
        bias1 = calibration_bias_sq(transfer_calibration(model1_a, model1_b))
        bias2 = calibration_bias_sq(transfer_calibration(model2_a, model2_b))
        assert abs(bias1 - TRANSFER_BIAS_SQ_1) <= TOL
        assert abs(bias2 - TRANSFER_BIAS_SQ_2) <= TOL

    def test_self_transfer_stays_calibrated(self, model1_a):
        table = transfer_calibration(model1_a, model1_a)
        assert calibration_bias_sq(table) <= TOL

    def test_equal_source_prevalences_keep_their_groups(self):
        source = make_grouped_table([("a", 0.2, 0.5, 0.1), ("b", 0.3, 0.5, 0.1)])
        target = make_grouped_table([("a", 0.2, 0.5, 0.05), ("b", 0.3, 0.5, 0.25)])
        table = transfer_calibration(source, target)
        assert table.key.tolist() == ["a", "b"]
        assert abs(calibration_bias_sq(table) - 0.0125) <= TOL

    def test_key_mismatch_rejected(self, model1_a, model2_a):
        with pytest.raises(GroupKeyMismatch):
            transfer_calibration(model1_a, model2_a)


class TestCrossClassifiedBias:
    def test_transferred_models_underestimate_top_cell(
        self, joint_b, model1_a, model2_a
    ):
        table1 = transfer_calibration(model1_a, joint_b.marginal(1))
        table2 = transfer_calibration(model2_a, joint_b.marginal(2))
        rows = cross_classified_bias(joint_b, table1, table2)
        assert len(rows) == 9
        top = max(rows, key=lambda c: c.prevalence)
        assert abs(top.prevalence - 0.676) <= TOL
        assert top.bias1 < 0.0 and top.bias2 < 0.0
        assert abs(top.risk1 - 0.3304) <= TOL
        assert abs(top.risk2 - 0.484) <= TOL
        # The source prevalences as a mapping give the same bits.
        risks1 = {g.key: g.prevalence for g in model1_a.groups}
        risks2 = {g.key: g.prevalence for g in model2_a.groups}
        assert repr(list(rows)) == repr(ref.cross_classified_bias(joint_b, risks1, risks2))

    def test_self_scored_diagonal_has_zero_bias(self, pop_a):
        joint = cross_classify(pop_a, ("z0", "z1"), ("z0", "z1"))
        table = joint.marginal(1)
        for row in cross_classified_bias(joint, table, table):
            assert abs(row.bias1) <= TOL
            assert abs(row.bias2) <= TOL

    def test_missing_assignment_rejected(self, joint_b, model1_b, model2_b):
        incomplete = renamed(model1_b, model1_b.key[-1])
        with pytest.raises(MissingAssignment):
            cross_classified_bias(joint_b, incomplete, model2_b)

    @given(st.integers(0, 2**32 - 1))
    def test_grouped_tables_give_the_bits_of_their_mappings(self, seed):
        joint = random_joint_table(np.random.default_rng(seed))
        tables = joint.marginal(1), joint.marginal(2)
        got = cross_classified_bias(joint, *tables)
        want = ref.cross_classified_bias(joint, *map(risk_mapping, tables))
        assert repr(list(got)) == repr(want)

    def test_first_bad_cell_message_is_the_mappings(self, joint_b, model1_b, model2_b):
        """The first bad cell raises as the reference given key-to-risk
        mappings does; a cell missing both keys names its model-1 key."""
        late, early = joint_b.key1[5], joint_b.key2[3]
        renamed1, renamed2 = renamed(model1_b, late), renamed(model2_b, early)
        first1, first2 = renamed(model1_b, joint_b.key1[0]), renamed(model2_b, joint_b.key2[0])
        for table1, table2, key in (
            (renamed1, renamed2, early),
            (renamed1, model2_b, late),
            (model1_b, renamed2, early),
            (first1, first2, joint_b.key1[0]),
        ):
            with pytest.raises(MissingAssignment) as got:
                cross_classified_bias(joint_b, table1, table2)
            with pytest.raises(MissingAssignment) as want:
                ref.cross_classified_bias(joint_b, risk_mapping(table1), risk_mapping(table2))
            assert str(got.value) == str(want.value) == f"no assigned risk for group {key!r}"


class TestSubgroupPrecisionGain:
    def test_worked_example_report(self, joint_b, model1_b):
        report = subgroup_precision_gain(joint_b)
        assert abs(report.total_gain - GAIN_B) <= TOL
        assert len(report.rows) == 5
        for row, want in zip(report.rows, SUBGROUP_SDS_B):
            assert abs(row.sd - want) <= TOL
        # the single-cell group is exactly zero, not merely small
        assert report.rows[2].sd == 0.0
        assert report.rows[2].variance == 0.0
        # rows ordered by the first model's assigned risk
        risks = [row.risk for row in report.rows]
        assert risks == sorted(risks)

    def test_row_extremes_and_masses(self, joint_b):
        report = subgroup_precision_gain(joint_b)
        top = report.rows[-1]
        assert abs(top.risk - 0.6184) <= TOL
        assert abs(top.mass - 0.08) <= TOL
        assert abs(top.prevalence_low - 0.388) <= TOL
        assert abs(top.prevalence_high - 0.676) <= TOL

    def test_within_group_means_match_first_model(self, joint_b, model1_b):
        prev_by_key = {g.key: g.prevalence for g in model1_b.groups}
        by_group = {}
        for c in joint_b.cells:
            by_group.setdefault(c.key1, []).append(c)
        for key, cells in by_group.items():
            mass = math.fsum(c.mass for c in cells)
            mean = math.fsum(c.mass * c.prevalence for c in cells) / mass
            assert abs(mean - prev_by_key[key]) <= TOL

    def test_total_gain_equals_precision_difference_for_nested_models(
        self, joint_a, joint_b, model1_a, model2_a, model1_b, model2_b
    ):
        assert abs(subgroup_precision_gain(joint_a).total_gain - GAIN_A) <= TOL
        for joint, m1, m2 in ((joint_a, model1_a, model2_a), (joint_b, model1_b, model2_b)):
            gain = subgroup_precision_gain(joint).total_gain
            assert abs(gain - compare(m1, m2).precision_difference) <= TOL

    @given(seeds)
    def test_decomposition_identity_on_random_joints(self, seed):
        joint = random_joint_table(np.random.default_rng(seed))
        report = subgroup_precision_gain(joint)
        pi = joint.population_mean
        var_joint = math.fsum(c.mass * (c.prevalence - pi) ** 2 for c in joint.cells)
        m1 = joint.marginal(1)
        var_1 = math.fsum(g.mass * (g.prevalence - pi) ** 2 for g in m1.groups)
        assert abs(report.total_gain - (var_joint - var_1)) <= TOL
        assert all(row.variance >= 0.0 for row in report.rows)
        assert report.total_gain >= -TOL

    @given(seeds)
    def test_total_gain_is_refinement_precision_drop(self, seed):
        joint = random_joint_table(np.random.default_rng(seed))
        gain = subgroup_precision_gain(joint).total_gain
        pl_1 = precision_loss(joint.marginal(1))
        pl_joint = precision_loss(joint_as_grouped(joint))
        assert abs(gain - (pl_1 - pl_joint)) <= TOL
