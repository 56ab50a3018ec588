"""Byte-level golden outputs of the command line.

Each scenario runs `main([...])` on inputs built without a random stream and
checks the exit code, the standard output (with the output directory
replaced by `<out>`) and the SHA-256 of every written file against recorded
values. A changed digit at 12 significant digits, a renamed file or a moved
column fails here.
"""

import hashlib

import pytest

import riskeval
from riskeval import build_population, cross_classify, project_model, write_grouped, write_joint
from riskeval.cli import main

SUBSET_1 = ("z0", "z1")
SUBSET_2 = ("z0", "z1", "z2")
XDEC_RATES = ["--mortality", "0.0053", "--horizon", "10"]


def _records_csv(path):
    """3000 two-risk records on a 3-decimal grid, built by arithmetic.

    Every risk1 value occurs three times, so quantile cuts meet tie runs;
    risk2 cycles over 997 values, so the joint table has many cells.
    """
    lines = ["risk1,risk2,outcome"]
    for i in range(3000):
        r1 = i * 37 % 1000
        r2 = (i * 53 + 11) % 997
        outcome = int(i * 7919 % 1000 < r1)
        lines.append(f"0.{r1:03d},0.{r2:03d},{outcome}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _untidy_records_csv(path):
    """600 two-risk records written the way hand-edited files look.

    CRLF line endings, blank lines, whitespace-only and `" , , "` rows,
    quoted numbers and padded fields: every shape that the reader skips or
    strips, so no row takes the plain comma-split path.
    """
    lines = ["risk1,risk2,outcome"]
    for i in range(600):
        r1 = i * 37 % 500
        r2 = (i * 53 + 7) % 499
        outcome = int(i * 7919 % 500 < r1)
        fields = [f"0.{r1:03d}", f"0.{r2:03d}", str(outcome)]
        if i % 5 == 1:
            fields[0] = f'"{fields[0]}"'
        if i % 7 == 2 and i % 5 != 1:
            fields = [f"  {fields[0]} ", f" {fields[1]}", f"{fields[2]}  "]
        if i % 11 == 3:
            fields[1] = f'" {fields[1].strip()} "'
        lines.append(",".join(fields))
        if i % 13 == 4:
            lines.append("")
        if i % 17 == 5:
            lines.append("   ")
        if i % 19 == 6:
            lines.append(" , , ")
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    return path


def _model_files(tmp_path):
    pop = build_population(0.8)
    g1, g2, joint = (tmp_path / n for n in ("g1.csv", "g2.csv", "joint.csv"))
    write_grouped(project_model(pop, SUBSET_1), g1)
    write_grouped(project_model(pop, SUBSET_2), g2)
    write_joint(cross_classify(pop, SUBSET_1, SUBSET_2), joint)
    return g1, g2, joint


def _no_prevalence_csv(path):
    path.write_text("risk,mass\n0.05,0.25\n0.1,0.5\n0.3,0.125\n0.6,0.125\n", encoding="utf-8")
    return path


def _xdec():
    return str(riskeval.example_cross_decile_path())


# name -> tmp_path -> argv (without --out)
SCENARIOS = {
    "synth_csv": lambda t: ["synth"],
    "synth_json_percent": lambda t: ["synth", "--format", "json", "--percent"],
    "compare_xdec_csv": lambda t: ["compare", _xdec(), *XDEC_RATES],
    "compare_xdec_json_percent": lambda t: [
        "compare", _xdec(), *XDEC_RATES, "--format", "json", "--percent"
    ],
    "compare_joint": lambda t: ["compare", str(_model_files(t)[2])],
    "compare_grouped_pair_joint": lambda t: ["compare", *map(str, _model_files(t))],
    "eval_records_deciles": lambda t: [
        "eval", str(_records_csv(t / "rec.csv")), "--bins", "deciles"
    ],
    "eval_records_unique": lambda t: [
        "eval", str(_records_csv(t / "rec.csv")), "--bins", "unique"
    ],
    "eval_records_quantiles7": lambda t: [
        "eval", str(_records_csv(t / "rec.csv")), "--bins", "quantiles:7"
    ],
    "eval_untidy_records_deciles": lambda t: [
        "eval", str(_untidy_records_csv(t / "untidy.csv")), "--bins", "deciles"
    ],
    "eval_untidy_records_unique": lambda t: [
        "eval", str(_untidy_records_csv(t / "untidy.csv")), "--bins", "unique"
    ],
    "eval_grouped_no_prevalence": lambda t: ["eval", str(_no_prevalence_csv(t / "np.csv"))],
    "convert": lambda t: ["convert", "0.0021", "0.0053", "10"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_scenario(name, tmp_path, capsys):
    """(exit code, SHA-256 of normalized stdout, {file name: SHA-256})."""
    out = tmp_path / "out"
    argv = SCENARIOS[name](tmp_path)
    if argv[0] != "convert":
        argv += ["--out", str(out)]
    code = main(argv)
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    files = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())} if out.exists() else {}
    return code, _sha(stdout.encode("utf-8")), files


# Recorded before the merge-kernel refactor. Since then only synth_csv's two
# subgroup_gain_alpha*.csv files changed: their comma-holding group keys are
# now quoted. The two eval_untidy_records scenarios were recorded before the
# columnar record reader replaced the per-row one.
GOLDEN = {
    "compare_grouped_pair_joint": (
        0,
        "5029ac139695f1618c5d93a1bbdec63709ec844b31235af0e0f1844c0cd45840",
        {
            "cell_bias.csv": "f61667aee801add6ddff25f3a82e7671d7a9e48856db8ffac3261e18ec1d9eca",
            "comparison.csv": "7c040d6999fa261fc0608f7eef63e1888d05411794a16f68844a6b0353eb35dc",
            "subgroup_gain.csv": "6383d7f21a007261d4616dab57c09d06961e03ef02580728b7010f72b56b02eb",
        },
    ),
    "compare_joint": (
        0,
        "5029ac139695f1618c5d93a1bbdec63709ec844b31235af0e0f1844c0cd45840",
        {
            "cell_bias.csv": "f61667aee801add6ddff25f3a82e7671d7a9e48856db8ffac3261e18ec1d9eca",
            "comparison.csv": "55ac7543b90952222da52640892ea03bd26e6870476132b6fc4ad1a1c8416734",
            "subgroup_gain.csv": "6383d7f21a007261d4616dab57c09d06961e03ef02580728b7010f72b56b02eb",
        },
    ),
    "compare_xdec_csv": (
        0,
        "5029ac139695f1618c5d93a1bbdec63709ec844b31235af0e0f1844c0cd45840",
        {
            "cell_bias.csv": "b21e1dac6f0082421d344e1a2b67b40aa1f3e4c697b9e4d2a95b9c881f35b3c5",
            "comparison.csv": "6551345c3c469b1f155c259f94ba4fac45ed49b8fb64120ab4019d846f9a40f6",
            "subgroup_gain.csv": "aeca5123e40b344c91ac455b3c6e73ccb45495a2743a42ad9d7386f1d6b62259",
        },
    ),
    "compare_xdec_json_percent": (
        0,
        "599a6fe048333452f58d7752fd5dee39b6b2b4aaf3625787ce4e91addaa3238e",
        {
            "cell_bias.csv": "b21e1dac6f0082421d344e1a2b67b40aa1f3e4c697b9e4d2a95b9c881f35b3c5",
            "comparison.json": "b7c5635e7e911bfa0b9dce6741b5811028a3b41e2033b0f53392d5df1667003e",
            "subgroup_gain.json": "e663833fbed966b3c1eb7e12092698ed0f790f8821654879949c259ae8ed800c",
        },
    ),
    "convert": (
        0,
        "de5862eb03af5115e76636bbe5d84f152382dfccda3874ac32e62721f567f958",
        {},
    ),
    "eval_grouped_no_prevalence": (
        0,
        "7e70a6d35b20c6f14c838c454b8e1bd5e9c38af83e8bcb615404dbb19cd99c19",
        {
            "attributes.csv": "239f6188aa3e3f20173fd2961b54634ffc9bc471211d949f59d5a0e51f6c9b83",
            "metrics.csv": "78356538a2048630c18388356090a23b7e0f2ccedd4dd28eb3fabf422e6db3a5",
        },
    ),
    "eval_records_deciles": (
        0,
        "7e70a6d35b20c6f14c838c454b8e1bd5e9c38af83e8bcb615404dbb19cd99c19",
        {
            "attributes.csv": "210b658b6f40da09217d33ca36dc91af5e68fdaaf7ac0a568d9b30a50e00efb6",
            "metrics.csv": "58fec8356e77a52e5f929eaebeb413d19c417f7d68ea38a6632fea135df05968",
        },
    ),
    "eval_records_quantiles7": (
        0,
        "7e70a6d35b20c6f14c838c454b8e1bd5e9c38af83e8bcb615404dbb19cd99c19",
        {
            "attributes.csv": "403f2ae75515c005a90f97a9b14bc8accec1b8197d36452d34775c237361aae2",
            "metrics.csv": "86790b73bbd247480c510c3ef07982f932194b901148f7addcfa6e088d11a9c9",
        },
    ),
    "eval_records_unique": (
        0,
        "7e70a6d35b20c6f14c838c454b8e1bd5e9c38af83e8bcb615404dbb19cd99c19",
        {
            "attributes.csv": "7d2f02235b742f10595c8e19276eda31cda3113f243ffa0c3182f04ee0463e36",
            "metrics.csv": "0491b28de2e9818b887ee103b124314d8c7dc3a26077345604247a72c43f3764",
        },
    ),
    "eval_untidy_records_deciles": (
        0,
        "7e70a6d35b20c6f14c838c454b8e1bd5e9c38af83e8bcb615404dbb19cd99c19",
        {
            "attributes.csv": "d866290eebb58a92b3e266b233d0667f698e1dcf0ebdb88ec96fb2fb55e68b70",
            "metrics.csv": "9e89f91ca5ec7912eedfc20cf28b070ba836e4c8efb18c380a57a00b4cdfd447",
        },
    ),
    "eval_untidy_records_unique": (
        0,
        "7e70a6d35b20c6f14c838c454b8e1bd5e9c38af83e8bcb615404dbb19cd99c19",
        {
            "attributes.csv": "a33ab341fb930ae90acc6dffaa325a2526f9b4f0afe6294305138c40d6e1b585",
            "metrics.csv": "d97b093ef70398e36d164322068a46487d8d184a943bbca138f1e7de337eca50",
        },
    ),
    "synth_csv": (
        0,
        "c285e85ec3eee7083ce5a37f0dd5e3a25e402a25b18acc35b51a3b547317bd5a",
        {
            "comparison_alpha0.2.csv": "c8ead1e6b138d96b349dda3389c292ef1493d3c83db8d0673ef1b2bc752fc63c",
            "comparison_alpha0.8.csv": "7c040d6999fa261fc0608f7eef63e1888d05411794a16f68844a6b0353eb35dc",
            "metrics_matrix.csv": "3dbdadd9be5508420655a05a5e9c018525191f23fda40e8eeb220b13c6480e6f",
            "model_alpha0.2_z0z1.csv": "7f9a699ce354143bc14bad55d27449151d31f44b755c0893d8f108fb551b8133",
            "model_alpha0.2_z0z1z2.csv": "1b7283bc15bf2c6fc19e1eb5e2d03de16c4b2c65c5ec360f3174d0964e0a9965",
            "model_alpha0.8_z0z1.csv": "b97623eecb3fc2a187fdc3fe086678c2ff6131635d89736bc2285a550bf5f760",
            "model_alpha0.8_z0z1z2.csv": "f2b15b744762a1906d4e498aebf09cae042427cb15517d75c62cc014142cbae9",
            "risk_distribution_alpha0.2.csv": "535f156bcd90faf4fa411b9b906557dacedaab0534710c894989e070dd58c3e0",
            "risk_distribution_alpha0.8.csv": "5908275b49c6d0f23a0aa118717aff71d329dfa9add68fb4814a6993c5349146",
            "subgroup_gain_alpha0.2.csv": "8673f8b8bd7bfac928bdbca75a252a5fe699fecffcfe7aaebe0b28649f7ed697",
            "subgroup_gain_alpha0.8.csv": "6be093a111434b85807c9508df52f7215bf33cbb647e15300d0f1548c19abee0",
            "transfer_z0z1_alpha0.2_to_alpha0.8.csv": "fb2478964c23ff23f3f6b64d45b4c5fb868595bf5ca1c46e9c0f7dfb659ad18c",
            "transfer_z0z1z2_alpha0.2_to_alpha0.8.csv": "79217f02d79a5d1eeb91ad060db84051c71caab072c349c2040d099bc76ef527",
        },
    ),
    "synth_json_percent": (
        0,
        "10f6996bea41554e194b28d1f9f8d5b2447425be0692dbf179df6c55cb2a23da",
        {
            "comparison_alpha0.2.json": "5b40752c21f974592855eb5fe152604227abf281d3e65611553df4af4b0c0451",
            "comparison_alpha0.8.json": "6d47201a6b9ceb467e1b319d4b42a4aefe80c1095d2bdc6ef41dee75287a5366",
            "metrics_matrix.json": "61481ff7a9b56c28ebc9cb485cf0366e1e750b4cf932788c727bc315007e7e82",
            "model_alpha0.2_z0z1.csv": "7f9a699ce354143bc14bad55d27449151d31f44b755c0893d8f108fb551b8133",
            "model_alpha0.2_z0z1z2.csv": "1b7283bc15bf2c6fc19e1eb5e2d03de16c4b2c65c5ec360f3174d0964e0a9965",
            "model_alpha0.8_z0z1.csv": "b97623eecb3fc2a187fdc3fe086678c2ff6131635d89736bc2285a550bf5f760",
            "model_alpha0.8_z0z1z2.csv": "f2b15b744762a1906d4e498aebf09cae042427cb15517d75c62cc014142cbae9",
            "risk_distribution_alpha0.2.csv": "535f156bcd90faf4fa411b9b906557dacedaab0534710c894989e070dd58c3e0",
            "risk_distribution_alpha0.8.csv": "5908275b49c6d0f23a0aa118717aff71d329dfa9add68fb4814a6993c5349146",
            "subgroup_gain_alpha0.2.json": "e09014d80136abe6926d6b94d605a0f3fa4d36287a803c24b869f1912de5e450",
            "subgroup_gain_alpha0.8.json": "78c26ee827850bceb67778810e6fe045b50846b3475e2bc5661001fd3bb69d90",
            "transfer_z0z1_alpha0.2_to_alpha0.8.csv": "fb2478964c23ff23f3f6b64d45b4c5fb868595bf5ca1c46e9c0f7dfb659ad18c",
            "transfer_z0z1z2_alpha0.2_to_alpha0.8.csv": "79217f02d79a5d1eeb91ad060db84051c71caab072c349c2040d099bc76ef527",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_bytes(name, tmp_path, capsys):
    code, stdout_sha, files = run_scenario(name, tmp_path, capsys)
    want_code, want_stdout, want_files = GOLDEN[name]
    assert code == want_code
    assert stdout_sha == want_stdout
    assert files == want_files
