"""File formats, binning, rate conversion, and the bundled count table."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_grouped_table, random_joint_table
from riskeval import (
    DegenerateBins,
    EmptyInput,
    IndividualRecord,
    InvariantViolation,
    MassSumOutOfTolerance,
    NegativeRate,
    NonFiniteValue,
    ParameterOutOfRange,
    ParseError,
    RiskOutOfRange,
    ZeroPersonYears,
    bin_individuals,
    cross_classify,
    example_cross_decile_path,
    load_cross_decile,
    load_grouped,
    load_individuals,
    load_joint,
    read_cross_decile,
    subgroup_precision_gain,
    ten_year_risk,
    write_grouped,
    write_joint,
)
from riskeval.ingestion import format_csv

TOL = 1e-12

TEN_YEAR_COMPETING = 0.020241816612607693  # (0.0021, 0.0053, 10)
TEN_YEAR_NO_MORTALITY = 0.02078103543054041  # (0.0021, 0, 10)
POOLED_COUNT_RISK = 0.03134946702516232  # (1559/476581, 0.0053, 10)

# frozen expectations for the bundled 40-cell example (see data file);
# within-decile sds of converted prevalences, person-years weighted
FIXTURE_POP_MEAN = 0.03508409891558139
FIXTURE_TOTAL_GAIN = 1.0321263015647934e-05
FIXTURE_SDS = (
    0.005275681877468043, 0.003175183300225639, 0.002874003100945751,
    0.0028951706762241894, 0.002634571417439871, 0.00289665486780775,
    0.0028314712456665708, 0.003004272947995282, 0.002842430537700186,
    0.002863955678071797,
)
FIXTURE_ROW_RISKS = (
    0.006752899031812562, 0.014575458356263003, 0.02026618749143226,
    0.025034690542670254, 0.030542411652054235, 0.038010114221348236,
    0.046565437256978495, 0.05100568752585599, 0.056781060702597266,
    0.06130704237480157,
)

MODEL1_B_CSV = """risk,mass,prevalence
0.0352,0.64,0.0352
0.0676,0.16,0.0676
0.1,0.1,0.1
0.3592,0.02,0.3592
0.6184,0.08,0.6184
"""


class TestTenYearRisk:
    def test_competing_mortality_worked_value(self):
        assert abs(ten_year_risk(0.0021, 0.0053, 10) - TEN_YEAR_COMPETING) <= TOL

    def test_zero_incidence_is_zero(self):
        assert ten_year_risk(0.0, 0.0053, 10) == 0.0
        assert ten_year_risk(0.0, 0.0, 10) == 0.0

    def test_no_mortality_reduces_to_exponential(self):
        assert abs(ten_year_risk(0.0021, 0.0, 10) - TEN_YEAR_NO_MORTALITY) <= TOL
        for lam in (1e-6, 0.003, 0.05, 0.4):
            want = -math.expm1(-lam * 10)
            assert abs(ten_year_risk(lam, 0.0, 10) - want) <= TOL

    def test_small_rate_series_accuracy(self):
        lam = 1e-12
        x = lam * 10
        series = x * (1 - x / 2 + x * x / 6)
        got = ten_year_risk(lam, 0.0, 10)
        assert abs(got - series) <= 1e-15 * series + 1e-30

    def test_monotonicity_and_bound(self):
        grid = [0.001, 0.003, 0.01, 0.03]
        for lo, hi in zip(grid, grid[1:]):
            assert ten_year_risk(lo, 0.005, 10) < ten_year_risk(hi, 0.005, 10)
            assert ten_year_risk(0.01, hi, 10) < ten_year_risk(0.01, lo, 10)
            assert ten_year_risk(0.01, 0.005, 10 * lo) < ten_year_risk(0.01, 0.005, 10 * hi)
        for mu in grid:
            bound = -math.expm1(-0.01 * 10)
            assert ten_year_risk(0.01, mu, 10) <= bound + TOL

    def test_rates_whose_sum_overflows(self):
        # lam + mu is inf; the risk is the finite ratio lam / (lam + mu).
        assert ten_year_risk(1e308, 1e308, 1) == 0.5
        assert abs(ten_year_risk(1.7e308, 1e307, 10) - 17 / 18) <= TOL
        assert ten_year_risk(1.7e308, 0.0, 10) == 1.0

    def test_validation(self):
        with pytest.raises(NegativeRate):
            ten_year_risk(-0.001, 0.005, 10)
        with pytest.raises(NegativeRate):
            ten_year_risk(0.001, -0.005, 10)
        with pytest.raises(ParameterOutOfRange):
            ten_year_risk(0.001, 0.005, 0)
        with pytest.raises(NonFiniteValue):
            ten_year_risk(float("nan"), 0.005, 10)


class TestLoadGrouped:
    def test_worked_table(self, tmp_path):
        path = tmp_path / "b1.csv"
        path.write_text(MODEL1_B_CSV)
        table = load_grouped(path)
        assert len(table.groups) == 5
        assert abs(table.population_mean - 0.10) <= TOL
        assert not table.declared_calibrated

    def test_single_row_constant_model(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("risk,mass,prevalence\n0.1,1.0,0.1\n")
        table = load_grouped(path)
        assert table.groups[0].risk == 0.1
        assert table.groups[0].mass == 1.0

    def test_mass_sum_out_of_tolerance(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("risk,mass,prevalence\n0.1,0.5,0.1\n0.2,0.48,0.2\n")
        with pytest.raises(MassSumOutOfTolerance):
            load_grouped(path)

    def test_missing_prevalence_column_declares_calibrated(self, tmp_path):
        path = tmp_path / "nc.csv"
        path.write_text("risk,mass\n0.1,0.6\n0.3,0.4\n")
        table = load_grouped(path)
        assert table.declared_calibrated
        assert table.prevalence.tolist() == table.risk.tolist()

    def test_empty_prevalence_fields_declare_calibrated(self, tmp_path):
        path = tmp_path / "nc2.csv"
        path.write_text("risk,mass,prevalence\n0.1,0.6,\n0.3,0.4,0.25\n")
        table = load_grouped(path)
        assert table.declared_calibrated
        assert table.groups[0].prevalence == 0.1
        assert table.groups[1].prevalence == 0.25

    def test_parse_errors(self, tmp_path):
        missing = tmp_path / "nothere.csv"
        with pytest.raises(ParseError):
            load_grouped(missing)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ParseError):
            load_grouped(empty)
        badheader = tmp_path / "h.csv"
        badheader.write_text("risk;mass;prevalence\n0.1,1.0,0.1\n")
        with pytest.raises(ParseError):
            load_grouped(badheader)
        headeronly = tmp_path / "ho.csv"
        headeronly.write_text("risk,mass,prevalence\n")
        with pytest.raises(ParseError):
            load_grouped(headeronly)
        badfield = tmp_path / "f.csv"
        badfield.write_text("risk,mass,prevalence\n0.1,one,0.1\n")
        with pytest.raises(ParseError):
            load_grouped(badfield)
        shortrow = tmp_path / "s.csv"
        shortrow.write_text("risk,mass,prevalence\n0.1,1.0\n")
        with pytest.raises(ParseError):
            load_grouped(shortrow)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("risk,mass,prevalence\n\n0.1,1.0,0.1\n\n")
        assert len(load_grouped(path).groups) == 1


class TestLoadJoint:
    def test_cross_classified_round_trip(self, tmp_path, joint_b, model1_b, model2_b):
        path = tmp_path / "joint.csv"
        write_joint(joint_b, path)
        loaded = load_joint(path)
        assert len(loaded.cells) == 9
        for axis, want in ((1, model1_b), (2, model2_b)):
            got = loaded.marginal(axis)
            for a, b in zip(got.groups, want.groups):
                assert abs(a.risk - b.risk) <= TOL
                assert abs(a.mass - b.mass) <= TOL
                assert abs(a.prevalence - b.prevalence) <= TOL

    def test_duplicate_cells_merge(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "r1,r2,mass,prevalence\n"
            "0.1,0.2,0.25,0.1\n"
            "0.1,0.2,0.25,0.3\n"
            "0.4,0.5,0.5,0.2\n"
        )
        table = load_joint(path)
        assert len(table.cells) == 2
        merged = table.cells[0]
        assert abs(merged.mass - 0.5) <= TOL
        assert abs(merged.prevalence - 0.2) <= TOL

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_joint(path)


class TestRoundTrip:
    def test_grouped_byte_stable(self, tmp_path):
        for seed in range(25):
            table = random_grouped_table(np.random.default_rng(seed))
            p1, p2 = tmp_path / f"g{seed}a.csv", tmp_path / f"g{seed}b.csv"
            write_grouped(table, p1)
            loaded = load_grouped(p1)
            write_grouped(loaded, p2)
            assert p1.read_bytes() == p2.read_bytes()
            for a, b in zip(loaded.groups, table.groups):
                assert abs(a.risk - b.risk) <= TOL
                assert abs(a.mass - b.mass) <= TOL
                assert abs(a.prevalence - b.prevalence) <= TOL

    def test_joint_byte_stable(self, tmp_path):
        for seed in range(25):
            table = random_joint_table(np.random.default_rng(seed))
            p1, p2 = tmp_path / f"j{seed}a.csv", tmp_path / f"j{seed}b.csv"
            write_joint(table, p1)
            loaded = load_joint(p1)
            write_joint(loaded, p2)
            assert p1.read_bytes() == p2.read_bytes()
            for a, b in zip(loaded.cells, table.cells):
                assert abs(a.risk1 - b.risk1) <= TOL
                assert abs(a.risk2 - b.risk2) <= TOL
                assert abs(a.mass - b.mass) <= TOL
                assert abs(a.prevalence - b.prevalence) <= TOL


class TestLoadIndividuals:
    def test_basic(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("risk1,risk2,outcome\n0.1,0.2,0\n0.3,0.4,1\n")
        records = load_individuals(path)
        assert records == [
            IndividualRecord(0.1, 0.2, 0),
            IndividualRecord(0.3, 0.4, 1),
        ]

    def test_risk2_optional(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("risk1,risk2,outcome\n0.1,,0\n0.3,,1\n")
        records = load_individuals(path)
        assert all(r.risk2 is None for r in records)

    def test_mixed_risk2_rejected(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("risk1,risk2,outcome\n0.1,0.2,0\n0.3,,1\n")
        with pytest.raises(ParseError):
            load_individuals(path)

    def test_bad_outcome_rejected(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("risk1,risk2,outcome\n0.1,0.2,2\n")
        with pytest.raises(ParseError):
            load_individuals(path)

    def test_out_of_range_risk_rejected(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("risk1,risk2,outcome\n1.5,0.2,0\n")
        with pytest.raises(RiskOutOfRange):
            load_individuals(path)


class TestBinIndividuals:
    def test_uniform_records_form_one_group(self):
        records = [IndividualRecord(0.1, None, int(i < 3)) for i in range(30)]
        grouped, joint = bin_individuals(records)
        assert joint is None
        assert len(grouped.groups) == 1
        g = grouped.groups[0]
        assert g.risk == 0.1 and g.mass == 1.0 and abs(g.prevalence - 0.1) <= TOL

    def test_unique_values_reproduces_sample_means(self):
        rng = np.random.default_rng(7)
        risks = np.array([0.0352, 0.0676, 0.1, 0.3592, 0.6184])
        idx = rng.integers(0, 5, size=2000)
        outcomes = (rng.random(2000) < risks[idx]).astype(int)
        records = [
            IndividualRecord(float(risks[i]), None, int(y))
            for i, y in zip(idx, outcomes)
        ]
        grouped, _ = bin_individuals(records)
        assert len(grouped.groups) == 5
        for g in grouped.groups:
            member = idx == list(risks).index(g.risk)
            assert abs(g.mass - member.mean()) <= TOL
            assert abs(g.prevalence - outcomes[member].mean()) <= TOL

    def test_decile_binning_matches_sorted_chunk_oracle(self):
        rng = np.random.default_rng(123)
        risks = rng.uniform(0.0, 1.0, size=1000)
        outcomes = (rng.random(1000) < risks).astype(int)
        records = [
            IndividualRecord(float(r), None, int(y)) for r, y in zip(risks, outcomes)
        ]
        grouped, _ = bin_individuals(records, k=10)
        assert len(grouped.groups) == 10
        order = np.argsort(risks, kind="stable")
        for i, g in enumerate(grouped.groups):
            chunk = order[100 * i : 100 * (i + 1)]
            assert g.mass == 0.1
            assert abs(g.risk - risks[chunk].mean()) <= TOL
            assert abs(g.prevalence - outcomes[chunk].mean()) <= TOL
        assert grouped.key.tolist() == [f"q{i:02d}" for i in range(1, 11)]

    def test_ties_go_to_the_lower_bin(self):
        records = [IndividualRecord(0.1, None, 0)] * 7 + [
            IndividualRecord(0.2, None, 1)
        ] * 3
        grouped, _ = bin_individuals(records, k=2)
        assert grouped.mass.tolist() == [0.7, 0.3]
        assert grouped.key.tolist() == ["q1", "q2"]

    def test_tie_run_can_empty_a_bin(self):
        # nine ties push both cut points to index 9; the middle bin vanishes
        records = [IndividualRecord(0.1, None, 0)] * 9 + [
            IndividualRecord(r, None, 1) for r in (0.2, 0.3, 0.4)
        ]
        grouped, _ = bin_individuals(records, k=3)
        assert grouped.key.tolist() == ["q1", "q3"]
        assert grouped.mass.tolist() == [0.75, 0.25]
        assert abs(grouped.risk[0] - 0.1) <= TOL
        assert abs(grouped.risk[1] - 0.3) <= TOL

    def test_joint_table_from_paired_risks(self):
        base = [
            (0.1, 0.2, 0), (0.1, 0.2, 0), (0.1, 0.8, 1), (0.1, 0.8, 0),
            (0.9, 0.2, 1), (0.9, 0.2, 0), (0.9, 0.8, 1), (0.9, 0.8, 1),
        ]
        records = [IndividualRecord(*row) for row in base]
        grouped, joint = bin_individuals(records)
        assert len(grouped.groups) == 2
        assert joint is not None and len(joint.cells) == 4
        by_pair = {(c.key1, c.key2): c for c in joint.cells}
        cell = by_pair[("0.1", "0.8")]
        assert abs(cell.mass - 0.25) <= TOL
        assert abs(cell.prevalence - 0.5) <= TOL

    def test_law_of_large_numbers_recovery(self, model1_b):
        n = 1_000_000
        rng = np.random.default_rng(424242)
        risks = model1_b.risk
        masses = model1_b.mass
        prevs = model1_b.prevalence
        idx = rng.choice(len(risks), size=n, p=masses / masses.sum())
        outcomes = (rng.random(n) < prevs[idx]).astype(int)
        records = [
            IndividualRecord(float(r), None, int(y))
            for r, y in zip(risks[idx], outcomes)
        ]
        grouped, _ = bin_individuals(records)
        assert len(grouped.groups) == len(model1_b.groups)
        for g, want in zip(grouped.groups, model1_b.groups):
            n_g = g.mass * n
            sd = math.sqrt(want.prevalence * (1 - want.prevalence) / n_g)
            assert abs(g.prevalence - want.prevalence) <= 3 * sd

    def test_validation(self):
        with pytest.raises(EmptyInput):
            bin_individuals([])
        records = [IndividualRecord(i / 10, None, 0) for i in range(1, 10)]
        with pytest.raises(DegenerateBins):
            bin_individuals(records, k=10)
        with pytest.raises(ParameterOutOfRange):
            bin_individuals(records, k=1)


class TestCrossDecile:
    def test_bundled_example_shape(self):
        table = read_cross_decile(example_cross_decile_path(), 0.0053, 10)
        assert len(table.cells) == 40
        assert len({c.decile1 for c in table.cells}) == 10

    def test_bundled_example_report(self):
        joint = load_cross_decile(example_cross_decile_path(), 0.0053, 10)
        assert abs(joint.population_mean - FIXTURE_POP_MEAN) <= TOL
        report = subgroup_precision_gain(joint)
        assert abs(report.total_gain - FIXTURE_TOTAL_GAIN) <= TOL
        assert len(report.rows) == 10
        for row, sd, risk in zip(report.rows, FIXTURE_SDS, FIXTURE_ROW_RISKS):
            assert abs(row.sd - sd) <= TOL
            assert abs(row.risk - risk) <= TOL
        m1 = joint.marginal(1)
        assert m1.key.tolist() == [f"d{i:02d}" for i in range(1, 11)]
        for g in m1.groups:
            assert abs(g.mass - 0.1) <= TOL

    def test_pooled_single_cell(self, tmp_path):
        path = tmp_path / "pooled.csv"
        path.write_text("decile1,decile2,person_years,cases\n1,1,476581,1559\n")
        joint = load_cross_decile(path, 0.0053, 10)
        assert len(joint.cells) == 1
        assert abs(joint.cells[0].prevalence - POOLED_COUNT_RISK) <= TOL
        assert abs(
            joint.cells[0].prevalence - ten_year_risk(1559 / 476581, 0.0053, 10)
        ) <= TOL

    def test_zero_case_cell_has_zero_prevalence(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text(
            "decile1,decile2,person_years,cases\n1,1,1000,0\n1,2,1000,10\n"
        )
        joint = load_cross_decile(path, 0.0053, 10)
        assert joint.cells[0].prevalence == 0.0

    def test_empty_cells_skipped_but_not_lost_cases(self, tmp_path):
        ok = tmp_path / "ok.csv"
        ok.write_text(
            "decile1,decile2,person_years,cases\n1,1,0,0\n1,2,1000,10\n"
        )
        assert len(read_cross_decile(ok, 0.0053, 10).cells) == 1
        bad = tmp_path / "bad.csv"
        bad.write_text("decile1,decile2,person_years,cases\n1,1,0,5\n")
        with pytest.raises(ZeroPersonYears):
            read_cross_decile(bad, 0.0053, 10)
        allskipped = tmp_path / "skip.csv"
        allskipped.write_text("decile1,decile2,person_years,cases\n1,1,0,0\n")
        with pytest.raises(EmptyInput):
            read_cross_decile(allskipped, 0.0053, 10)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("name", ["mortality", "horizon"])
    def test_non_finite_rate_is_rejected_before_reading(self, tmp_path, name, value):
        rates = {"mortality": 0.0053, "horizon": 10.0, name: float(value)}
        with pytest.raises(NonFiniteValue) as got:
            read_cross_decile(tmp_path / "never_read.csv", **rates)
        assert str(got.value) == f"non-finite {name} {float(value)}"

    def test_validation(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("decile1,decile2,person_years,cases\n1,1,1000,10\n")
        with pytest.raises(NegativeRate):
            read_cross_decile(path, -0.001, 10)
        with pytest.raises(ParameterOutOfRange):
            read_cross_decile(path, 0.0053, 0)
        frac = tmp_path / "frac.csv"
        frac.write_text("decile1,decile2,person_years,cases\n1.5,1,1000,10\n")
        with pytest.raises(ParseError):
            read_cross_decile(frac, 0.0053, 10)
        fcases = tmp_path / "fc.csv"
        fcases.write_text("decile1,decile2,person_years,cases\n1,1,1000,3.7\n")
        with pytest.raises(ParseError):
            read_cross_decile(fcases, 0.0053, 10)
        dup = tmp_path / "dup.csv"
        dup.write_text(
            "decile1,decile2,person_years,cases\n1,1,1000,10\n1,1,500,5\n"
        )
        with pytest.raises(ParseError):
            read_cross_decile(dup, 0.0053, 10)
        toomany = tmp_path / "tm.csv"
        toomany.write_text("decile1,decile2,person_years,cases\n1,1,100,20\n")
        with pytest.raises(InvariantViolation):
            read_cross_decile(toomany, 0.0053, 10)


class TestInputRobustness:
    @pytest.mark.parametrize("cases", ["nan", "inf", "1e400"])
    def test_non_finite_cases_rejected(self, tmp_path, cases):
        path = tmp_path / "x.csv"
        path.write_text(f"decile1,decile2,person_years,cases\n1,1,1000,{cases}\n")
        with pytest.raises(ParseError):
            read_cross_decile(path, 0.0053, 10)

    @pytest.mark.parametrize("where", ["header", "body"])
    def test_non_utf8_rejected(self, tmp_path, where):
        path = tmp_path / "x.csv"
        header, body = b"risk,mass,prevalence\n", b"0.1,1,0.1\n"
        if where == "header":
            header = b"risk,\xff\n"
        else:
            body = b"0.1,1,0.\xff\n"
        path.write_bytes(header + body)
        with pytest.raises(ParseError):
            load_grouped(path)

    @pytest.mark.parametrize("tail", ["", "0.5,{huge},1\n"])
    def test_row_after_a_two_line_row_reported_at_its_line(self, tmp_path, tail):
        # With and without a csv error after it, the short row is on line 4.
        path = tmp_path / "x.csv"
        body = '"0.1\n",0.5,0.1\n0.3,0.4\n' + tail.replace("{huge}", "9" * 200_000)
        path.write_text("risk,mass,prevalence\n" + body)
        with pytest.raises(ParseError, match=r"x\.csv:4: expected 3 fields, got 2"):
            load_grouped(path)


class TestSparsePairBinning:
    def test_distinct_risks_need_no_dense_pair_array(self):
        # 3000 distinct risks per model: a dense pair count would hold 9M slots.
        n = 3000
        records = [
            IndividualRecord(risk1=(i + 0.5) / n, risk2=((i * 7) % n + 0.5) / n, outcome=i % 2)
            for i in range(n)
        ]
        tracemalloc.start()
        try:
            grouped, joint = bin_individuals(records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(grouped.groups) == n and len(joint.cells) == n
        assert all(abs(c.mass - 1 / n) <= TOL for c in joint.cells)
        assert peak < 32 * 2**20


class TestFormatCsv:
    def test_floats_and_quoting(self):
        columns = (["a,b", 'say "hi"', "plain"], np.array([0.1 + 0.2, 1.0, 2.0]))
        text = format_csv(("key", "value"), columns=columns)
        assert text == 'key,value\n"a,b",0.3\n"say ""hi""",1\nplain,2\n'
