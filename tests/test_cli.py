"""End-to-end runs of the command-line front end."""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskeval
from riskeval import evaluate, ten_year_risk, write_grouped, write_joint
from riskeval.cli import main, percent_round

TOL = 1e-12
RHO_PERFECT_A = 0.18101933598375622

MODEL1_B_CSV = """risk,mass,prevalence
0.0352,0.64,0.0352
0.0676,0.16,0.0676
0.1,0.1,0.1
0.3592,0.02,0.3592
0.6184,0.08,0.6184
"""

SYNTH_DEFAULT_FILES = (
    "comparison_alpha0.2.csv",
    "comparison_alpha0.8.csv",
    "metrics_matrix.csv",
    "model_alpha0.2_z0z1.csv",
    "model_alpha0.2_z0z1z2.csv",
    "model_alpha0.8_z0z1.csv",
    "model_alpha0.8_z0z1z2.csv",
    "risk_distribution_alpha0.2.csv",
    "risk_distribution_alpha0.8.csv",
    "subgroup_gain_alpha0.2.csv",
    "subgroup_gain_alpha0.8.csv",
    "transfer_z0z1_alpha0.2_to_alpha0.8.csv",
    "transfer_z0z1z2_alpha0.2_to_alpha0.8.csv",
)


def metric_block(path):
    """The metric,value section of a CSV report as a dict of floats."""
    lines = path.read_text().splitlines()
    idx = lines.index("metric,value")
    out = {}
    for line in lines[idx + 1 :]:
        if not line:
            break
        key, value = line.split(",")
        out[key] = float(value)
    return out


def row_block(path):
    """The tabular section of a CSV report (rows before the blank line)."""
    lines = path.read_text().splitlines()
    end = lines.index("") if "" in lines else len(lines)
    return list(csv.DictReader(lines[:end]))


class TestConvert:
    def test_worked_conversion(self, capsys):
        assert main(["convert", "0.0021", "0.0053", "10"]) == 0
        out = capsys.readouterr().out
        assert out == "risk over 10 years: 0.0202418166126 (2.0%)\n"

    def test_no_competing_mortality(self, capsys):
        assert main(["convert", "0.0021", "0", "10"]) == 0
        out = capsys.readouterr().out
        assert out == "risk over 10 years: 0.0207810354305 (2.1%)\n"

    def test_invalid_rates(self, capsys):
        assert main(["convert", "-0.1", "0.0053", "10"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert main(["convert", "0.0021", "0.0053", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestPercentRound:
    def test_half_even(self):
        assert percent_round(0.5935) == 59.4
        assert percent_round(0.5925) == 59.2
        assert percent_round(0.10046) == 10.0
        assert percent_round(0.020241816612607693) == 2.0


class TestEval:
    def test_grouped_csv_report(self, tmp_path, model1_b, capsys):
        src = tmp_path / "b1.csv"
        src.write_text(MODEL1_B_CSV)
        out = tmp_path / "out"
        assert main(["eval", str(src), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert f"wrote {out / 'attributes.csv'}" in stdout
        assert f"wrote {out / 'metrics.csv'}" in stdout
        report = evaluate(model1_b)
        got = metric_block(out / "metrics.csv")
        for field, value in got.items():
            assert abs(value - getattr(report, field)) <= TOL
        attr = row_block(out / "attributes.csv")
        assert len(attr) == 5
        assert [row["risk"] for row in attr] == [
            "0.0352", "0.0676", "0.1", "0.3592", "0.6184",
        ]

    def test_declared_calibrated_warning(self, tmp_path, capsys):
        src = tmp_path / "nc.csv"
        src.write_text("risk,mass\n0.05,0.5\n0.15,0.5\n")
        out = tmp_path / "out"
        assert main(["eval", str(src), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "declared-calibrated" in err
        assert metric_block(out / "metrics.csv")["bias_sq"] == 0.0

    def test_json_percent_report(self, tmp_path, capsys):
        src = tmp_path / "b1.csv"
        src.write_text(MODEL1_B_CSV)
        out = tmp_path / "out"
        code = main(
            ["eval", str(src), "--out", str(out), "--format", "json", "--percent"]
        )
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["kind"] == "metrics"
        assert payload["population_mean_pct"] == 10.0
        for field in ("brier", "concordance", "ro_correlation"):
            assert field in payload and f"{field}_pct" in payload
        assert payload["concordance_pct"] == percent_round(payload["concordance"])

    def test_individuals_unique_bins(self, tmp_path, capsys):
        rows = ["risk1,risk2,outcome"]
        rows += ["0.1,,0"] * 6 + ["0.1,,1"] * 4 + ["0.4,,1"] * 5 + ["0.4,,0"] * 5
        src = tmp_path / "ind.csv"
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["eval", str(src), "--out", str(out)]) == 0
        attr = row_block(out / "attributes.csv")
        assert [row["risk"] for row in attr] == ["0.1", "0.4"]
        assert [row["prevalence"] for row in attr] == ["0.4", "0.5"]

    def test_individuals_decile_bins(self, tmp_path, capsys):
        rng = np.random.default_rng(55)
        risks = rng.uniform(0.0, 1.0, size=1000)
        outcomes = (rng.random(1000) < risks).astype(int)
        src = tmp_path / "ind.csv"
        src.write_text(
            "risk1,risk2,outcome\n"
            + "".join(f"{float(r)!r},,{y}\n" for r, y in zip(risks, outcomes))
        )
        out = tmp_path / "out"
        assert main(["eval", str(src), "--out", str(out), "--bins", "deciles"]) == 0
        attr = row_block(out / "attributes.csv")
        assert len(attr) == 10
        assert all(row["mass"] == "0.1" for row in attr)

    def test_constant_risk2_does_not_block_deciles(self, tmp_path, capsys):
        # eval scores risk1 only: a risk2 column too coarse for ten bins is
        # validated but never binned.
        rows = [(f"{(i * 7 % 300 + 0.5) / 300!r}", int(i % 3 == 0)) for i in range(300)]
        metrics = {}
        for name, risk2 in (("constant", "0.5"), ("empty", "")):
            src = tmp_path / f"{name}.csv"
            src.write_text(
                "risk1,risk2,outcome\n" + "".join(f"{r},{risk2},{y}\n" for r, y in rows)
            )
            out = tmp_path / name
            assert main(["eval", str(src), "--out", str(out), "--bins", "deciles"]) == 0
            metrics[name] = (out / "metrics.csv").read_bytes()
        assert metrics["constant"] == metrics["empty"]

    def test_bad_risk2_still_rejected(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("risk1,risk2,outcome\n0.1,0.2,0\n0.3,1.5,1\n")
        assert main(["eval", str(src), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {src}:3: risk2 1.5 outside [0, 1]\n"

    def test_bad_bins_flag(self, tmp_path, capsys):
        src = tmp_path / "b1.csv"
        src.write_text(MODEL1_B_CSV)
        assert main(["eval", str(src), "--bins", "sextiles"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_input(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "gone.csv")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_internal_invariant_exit_code(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "b1.csv"
        src.write_text(MODEL1_B_CSV)
        monkeypatch.setattr("riskeval.metrics.IDENTITY_TOL", -1.0)
        assert main(["eval", str(src), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("internal invariant violation:")


class TestCompare:
    def test_joint_table_path(self, tmp_path, model1_b, model2_b, joint_b, capsys):
        src = tmp_path / "joint.csv"
        write_joint(joint_b, src)
        out = tmp_path / "out"
        assert main(["compare", str(src), "--out", str(out)]) == 0
        comp = riskeval.compare(model1_b, model2_b)
        got = metric_block(out / "comparison.csv")
        for field, value in got.items():
            assert abs(value - getattr(comp, field)) <= TOL
        gain_rows = row_block(out / "subgroup_gain.csv")
        assert len(gain_rows) == 5
        cells = row_block(out / "cell_bias.csv")
        assert len(cells) == 9
        assert list(cells[0].keys()) == [
            "group1", "group2", "mass", "prevalence", "risk1", "risk2",
            "bias1", "bias2",
        ]

    def test_grouped_pair_plus_joint(self, tmp_path, model1_b, model2_b, joint_b, capsys):
        g1, g2, jt = (tmp_path / n for n in ("m1.csv", "m2.csv", "joint.csv"))
        write_grouped(model1_b, g1)
        write_grouped(model2_b, g2)
        write_joint(joint_b, jt)
        out = tmp_path / "out"
        assert main(["compare", str(g1), str(g2), str(jt), "--out", str(out)]) == 0
        comp = riskeval.compare(model1_b, model2_b)
        got = metric_block(out / "comparison.csv")
        assert abs(got["idi"] - comp.idi) <= TOL
        assert abs(got["brier_difference"] - comp.brier_difference) <= TOL

    def test_mean_mismatch(self, tmp_path, model2_b, joint_b, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(MODEL1_B_CSV.replace("0.6184,0.08,0.6184", "0.6184,0.08,0.9"))
        g2, jt = tmp_path / "m2.csv", tmp_path / "joint.csv"
        write_grouped(model2_b, g2)
        write_joint(joint_b, jt)
        assert main(["compare", str(bad), str(g2), str(jt)]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_cross_decile_needs_rates(self, capsys):
        path = str(riskeval.example_cross_decile_path())
        assert main(["compare", path]) == 2
        assert "--mortality" in capsys.readouterr().err
        out_code = main(["compare", path, "--mortality", "0.0053", "--horizon", "10"])
        assert out_code == 0

    def test_cross_decile_report(self, tmp_path, capsys):
        path = str(riskeval.example_cross_decile_path())
        out = tmp_path / "out"
        code = main(
            ["compare", path, "--mortality", "0.0053", "--horizon", "10",
             "--out", str(out), "--percent"]
        )
        assert code == 0
        gain = metric_block(out / "subgroup_gain.csv")
        assert "total_gain" in gain and "total_gain_pct" in gain
        rows = row_block(out / "subgroup_gain.csv")
        assert len(rows) == 10
        assert "sd_pct" in rows[0] and "group" in rows[0]

    def test_wrong_header(self, tmp_path, capsys):
        src = tmp_path / "b1.csv"
        src.write_text(MODEL1_B_CSV)
        assert main(["compare", str(src)]) == 2
        assert "expected header" in capsys.readouterr().err

    def test_wrong_arity(self, tmp_path, model1_b, capsys):
        g1, g2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        write_grouped(model1_b, g1)
        write_grouped(model1_b, g2)
        assert main(["compare", str(g1), str(g2)]) == 2
        assert "compare takes" in capsys.readouterr().err


class TestSynth:
    def test_default_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == list(SYNTH_DEFAULT_FILES)
        assert stdout.count("wrote ") == len(SYNTH_DEFAULT_FILES)
        assert "note:" not in stdout
        matrix = row_block(out / "metrics_matrix.csv")
        assert len(matrix) == 6
        perfect = {
            (row["alpha"], row["model"]): row for row in matrix
        }[("0.2", "perfect")]
        assert abs(float(perfect["ro_correlation"]) - RHO_PERFECT_A) <= TOL
        assert float(perfect["bias_sq"]) == 0.0
        dist = row_block(out / "risk_distribution_alpha0.2.csv")
        assert len(dist) == 9
        assert list(dist[0].keys()) == ["risk", "mass"]

    def test_single_alpha_skips_transfer(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--alpha", "0.2", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "note: transfer tables need two alpha values; skipped" in stdout
        names = sorted(p.name for p in out.iterdir())
        assert not any(n.startswith("transfer_") for n in names)
        assert "comparison_alpha0.2.csv" in names

    def test_boundary_alpha_single_subset(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--alpha", "0.0", "--models", "z0", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["metrics_matrix.csv", "model_alpha0_z0.csv",
                         "risk_distribution_alpha0.csv"]

    def test_validation(self, capsys):
        assert main(["synth", "--alpha", "2.0"]) == 2
        assert main(["synth", "--alpha", "abc"]) == 2
        assert main(["synth", "--models", "z9"]) == 2
        assert main(["synth", "--models", "z0,z0"]) == 2
        capsys.readouterr()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(out1), "--format", "json"]) == 0
        assert main(["synth", "--out", str(out2), "--format", "json"]) == 0
        capsys.readouterr()
        names1 = sorted(p.name for p in out1.iterdir())
        assert names1 == sorted(p.name for p in out2.iterdir())
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_subgroup_keys_with_commas_are_quoted(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = row_block(out / "subgroup_gain_alpha0.8.csv")
        assert [row["group"] for row in rows] == [
            "z0=-1,z1=1", "z0=-1,z1=0", "z0=0,z1=0|z0=0,z1=1", "z0=1,z1=0", "z0=1,z1=1",
        ]
        for alpha in ("0.2", "0.8"):
            for row in row_block(out / f"subgroup_gain_alpha{alpha}.csv"):
                assert None not in row and None not in row.values()
                assert float(row["sd"]) >= 0.0

    def test_json_matrix_shape(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--format", "json"]) == 0
        capsys.readouterr()
        payload = json.loads((out / "metrics_matrix.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["kind"] == "metrics_matrix"
        assert len(payload["rows"]) == 6
        assert {row["model"] for row in payload["rows"]} == {
            "z0z1", "z0z1z2", "perfect",
        }


class TestParser:
    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


INPUT_HEADERS = (
    "risk,mass,prevalence",
    "risk,mass",
    "r1,r2,mass,prevalence",
    "risk1,risk2,outcome",
    "decile1,decile2,person_years,cases",
)
TOKENS = ("0", "1", "2", "0.5", "0.25", "-1", "1e400", "nan", "inf", "", " ", "x", '"', "\xff")
ROWS = st.lists(
    st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5).map(",".join), max_size=6
).map("\n".join)


class TestArbitraryInput:
    @settings(max_examples=300, deadline=None)
    @given(
        header=st.sampled_from(INPUT_HEADERS),
        body=st.one_of(
            st.text().map(lambda t: t.encode("utf-8", "surrogatepass")),
            st.binary(),
            ROWS.map(str.encode),
        ),
    )
    def test_exit_code_is_0_or_2(self, header, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.csv"
            path.write_bytes(header.encode() + b"\n" + body)
            out = str(Path(tmp) / "out")
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                assert main(["eval", str(path), "--out", out]) in (0, 2)
                assert main(
                    ["compare", str(path), "--mortality", "0.005", "--horizon", "10", "--out", out]
                ) in (0, 2)
