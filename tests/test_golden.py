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


def _nested_joint_csv(path, swapped=False):
    """A nested joint table of 3000 rows, built by modular arithmetic.

    Model 2 has about 2900 risks on a 1e-5 grid, and model 1 assigns each
    block of 30 consecutive model-2 risks one risk, so model 2 nests in
    model 1. Every 40th row repeats an earlier cell, once with its risk2
    differing below 12 significant digits; a few rows have zero mass. The
    risks `-0` and `0` are distinct keys at tied risk in both models, and
    one cell that occurs once has prevalence `-0`. swapped writes model 2's
    risks in the `r1` column and model 1's in `r2`, so the fine model is
    model 1, with mostly one-cell groups.
    """
    n = 3000
    cells = []  # (r1 text, r2 text, weight, prevalence text)
    r2s = sorted({(j * 7919 % 99991 + 7) for j in range(n)})
    for i in range(n):
        if i % 40 == 39:
            r1, r2, _, _ = cells[i // 40 * 17]
            if i == 79:
                r2 += "00000001"
            cells.append((r1, r2, 1 + i % 5, f"0.{i * 389 % 1000:03d}"))
            continue
        g2 = r2s[(i * 1301) % n]
        block = r2s.index(g2) // 30
        r1 = f"{(block * 30 + 15) / 3000:.6f}"
        r2 = f"{g2 / 100000:.5f}"
        prev = min(0.999, g2 / 100000 * (0.6 + (i * 31 % 61) / 75))
        cells.append((r1, r2, 1 + i * 17 % 23, f"{prev:.6f}"))
    cells[5] = ("-0", "-0", 7, "0.125")
    cells[6] = ("0", "0", 9, "0.25")
    cells[7] = (cells[7][0], cells[7][1], 11, "-0")
    cells[8] = (cells[8][0], cells[8][1], 0, "0.5")
    cells[9] = ("0.5", "0.5", 0, "0.5")
    total = sum(w for _, _, w, _ in cells)
    lines = ["r1,r2,mass,prevalence"]
    if swapped:
        cells = [(r2, r1, w, p) for r1, r2, w, p in cells]
    lines += [f"{r1},{r2},{format(w / total, '.12g')},{p}" for r1, r2, w, p in cells]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _edge_digits_joint_csv(path):
    """A 7-cell joint table whose values reach every branch of `.12g` text.

    Risks and prevalences hold 1 and 0, 1e-4 beside 9.99999999999e-05,
    0.000099999999999996 (whose 12 digits carry to 0.0001), 12th-digit
    half-way decimals such as 0.1000000000005, and a `-0` prevalence; two
    cells carry the masses 1e-300 and 5e-324 (a subnormal).
    """
    rows = [
        "1,1,0.1,1",
        "0,0,0.15,0",
        "1e-4,9.99999999999e-05,0.2,0.0001",
        "0.000099999999999996,0.1000000000005,0.25,-0",
        "0.1000000000005,0.000099999999999996,0.3,0.1000000000015",
        "0.5,0.25,1e-300,0.1000000000025",
        "0.5,0.75,5e-324,0.9999999999995",
    ]
    path.write_text("r1,r2,mass,prevalence\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def _edge_digits_marginal_csv(tmp_path):
    """Model 2's grouped marginal of the edge-digit joint table, as written."""
    joint = riskeval.load_joint(_edge_digits_joint_csv(tmp_path / "edge.csv"))
    path = tmp_path / "edge_marginal.csv"
    write_grouped(joint.marginal(2), path)
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
    "compare_nested_joint_csv": lambda t: ["compare", str(_nested_joint_csv(t / "nj.csv"))],
    "compare_nested_joint_json_percent": lambda t: [
        "compare", str(_nested_joint_csv(t / "nj.csv")), "--format", "json", "--percent"
    ],
    "compare_nested_swapped_csv": lambda t: [
        "compare", str(_nested_joint_csv(t / "ns.csv", swapped=True))
    ],
    "compare_nested_swapped_json_percent": lambda t: [
        "compare", str(_nested_joint_csv(t / "ns.csv", swapped=True)), "--format", "json",
        "--percent",
    ],
    "compare_grouped_pair_joint": lambda t: ["compare", *map(str, _model_files(t))],
    "compare_edge_digits_csv": lambda t: ["compare", str(_edge_digits_joint_csv(t / "edge.csv"))],
    "compare_edge_digits_json_percent": lambda t: [
        "compare", str(_edge_digits_joint_csv(t / "edge.csv")), "--format", "json", "--percent"
    ],
    "eval_edge_digits_marginal": lambda t: ["eval", str(_edge_digits_marginal_csv(t))],
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
# columnar record reader replaced the per-row one. The two compare_nested_joint
# scenarios were recorded before columnar tables replaced the row builder. The
# three edge_digits scenarios were recorded before the vectorized 12-digit
# float formatter replaced per-value `format`. The two compare_nested_swapped
# scenarios were recorded before the subgroup-gain report became columnar.
GOLDEN = {
    "compare_edge_digits_csv": (
        0,
        "5029ac139695f1618c5d93a1bbdec63709ec844b31235af0e0f1844c0cd45840",
        {
            "cell_bias.csv": "62db60924055b00b146f45c10cebff7e21db42976749b4d334e4581c242afb19",
            "comparison.csv": "5004726cb3afd231618fb997bb8bdb2fce1228d92bd55a73817e4e7c34cfcce0",
            "subgroup_gain.csv": "86b5a71b841721e15191f73eaccb7442d11955f66dc08bb72ef43a125d1ab7cd",
        },
    ),
    "compare_edge_digits_json_percent": (
        0,
        "599a6fe048333452f58d7752fd5dee39b6b2b4aaf3625787ce4e91addaa3238e",
        {
            "cell_bias.csv": "62db60924055b00b146f45c10cebff7e21db42976749b4d334e4581c242afb19",
            "comparison.json": "0d6364e8a74ac89084f5f77cd83cfdb48eb30818eb53eb836211e761244c2eb5",
            "subgroup_gain.json": "4e810ae50e01163efc157aa4aa40d3284181d5d0316450c56c2247fe36202b95",
        },
    ),
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
    "compare_nested_joint_csv": (
        0,
        "5029ac139695f1618c5d93a1bbdec63709ec844b31235af0e0f1844c0cd45840",
        {
            "cell_bias.csv": "0f37317620889b071d30f79885bf0f723ff12200c77a85f1fe3e0e5d028648fc",
            "comparison.csv": "e228508e07edb2087825e1ba063e37a3feafb624ca3c89a80834a0eca122bbd5",
            "subgroup_gain.csv": "73b0c7dc21d0ac7c89ae22f8359d677535bfebcd7ac5a19dfa575980171f5b50",
        },
    ),
    "compare_nested_joint_json_percent": (
        0,
        "599a6fe048333452f58d7752fd5dee39b6b2b4aaf3625787ce4e91addaa3238e",
        {
            "cell_bias.csv": "0f37317620889b071d30f79885bf0f723ff12200c77a85f1fe3e0e5d028648fc",
            "comparison.json": "a3a3a65b8ef3cf46059de573f5a31fe687f9c6a3a90b9f80cf2b456202ca78b3",
            "subgroup_gain.json": "b95ba8f82dbeff451b379e73b3727cd684940549e33648911a3418dbcd1edb14",
        },
    ),
    "compare_nested_swapped_csv": (
        0,
        "5029ac139695f1618c5d93a1bbdec63709ec844b31235af0e0f1844c0cd45840",
        {
            "cell_bias.csv": "2a3a84d0738859ebd37933e7380cef5046fce2657c36c9853e82729929f420ba",
            "comparison.csv": "07919dfe356a38c21bf7f455b131ece62a7889cdd7d1a73b741f8223c71329f0",
            "subgroup_gain.csv": "b8f0e889ce513791df939a66b2a6baa5060a36799ebac9a9f5adbcbd18fcaa56",
        },
    ),
    "compare_nested_swapped_json_percent": (
        0,
        "599a6fe048333452f58d7752fd5dee39b6b2b4aaf3625787ce4e91addaa3238e",
        {
            "cell_bias.csv": "2a3a84d0738859ebd37933e7380cef5046fce2657c36c9853e82729929f420ba",
            "comparison.json": "828297b6b678255d56e2652e5ded7bc1ea8c50ec8b8188f65c171855d93a6281",
            "subgroup_gain.json": "a5fb9fa707ab12a74e091853a40a58e008ab6dff4a9edac64cc06a7933d69ee2",
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
    "eval_edge_digits_marginal": (
        0,
        "7e70a6d35b20c6f14c838c454b8e1bd5e9c38af83e8bcb615404dbb19cd99c19",
        {
            "attributes.csv": "57e574b998d962eb8338929fb2705488b5a67cc03deb160308dec888a5905be5",
            "metrics.csv": "28131e2f9113c1db04edff6b9ec399b55d95cc792d2f0f568dde4c99ea43b6fd",
        },
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
