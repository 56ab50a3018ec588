"""Seeded inputs, CLI jobs and numpy reference checks for each workload.

Every input is generated with numpy from the run's seed, so nothing is
downloaded and the same seed gives byte-identical files. Generated inputs
are cached on disk by workload, seed and size. The program under test only
ever sees the generated files (or, for ``paper_tables``, the paper's own
bundled example); the reference values that its outputs are checked against
are computed here from the generating arrays.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Relative and absolute tolerance for a reported 12-significant-digit value
# against the numpy reference. The program sums with math.fsum and the
# reference in another order, so agreement is to ~1e-15 before rounding.
RTOL = 1e-9
ATOL = 1e-12

METRIC_FIELDS = (
    "population_mean",
    "bias_sq",
    "precision_loss",
    "brier",
    "prevalence_variance",
    "ro_correlation",
    "integrated_discrimination",
    "concordance",
)
COMPARISON_FIELDS = (
    "population_mean",
    "brier_difference",
    "bias_sq_difference",
    "precision_difference",
    "idi",
    "concordance_difference",
)

# Values the README documents for the paper's worked example.
README_CONVERT_STDOUT = "risk over 10 years: 0.0202418166126 (2.0%)\n"
README_PRECISION_DIFFERENCE_ALPHA08 = 0.0012690432

# Workload name -> data rows of its generated input. The size is part of the
# cache key, so changing it never reuses a stale file.
SIZES = {
    "records_deciles": 1_000_000,
    "records_unique": 500_000,
    "compare_nested": 200_000,
    "paper_tables": 0,
}
NESTED_GROUPS = 100


@dataclass
class Job:
    """One CLI invocation and how to check what it produced."""

    kind: str
    argv: list[str]  # riskeval arguments, with {out} for the output directory
    rows: int  # input data rows the job reads
    check: Callable[[Path, str], list[str]]  # (out dir, stdout) -> problems, empty if correct


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job]
    inputs: dict  # file name -> {"sha256", "rows"}


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def fsum(x) -> float:
    return math.fsum(np.asarray(x, dtype=float).tolist())


def fmt12(values) -> list[str]:
    """The CLI's own 12-significant-digit float formatting."""
    return list(map("{:.12g}".format, np.asarray(values, dtype=float).tolist()))


def parse(strings) -> np.ndarray:
    """Floats exactly as the program parses the written strings."""
    return np.fromiter(map(float, strings), dtype=float, count=len(strings))


def expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def logit(p):
    return np.log(p) - np.log1p(-p)


# --------------------------------------------------------------------------
# numpy reference measures


def grouped_metrics(risk, mass, prev) -> dict:
    """The eight single-model measures of a grouped table, from its arrays.

    Groups must have pairwise distinct risks: the program merges risks that
    agree within 1e-12, which this reference does not model.
    """
    order = np.argsort(risk, kind="stable")
    risk, mass, prev = risk[order], mass[order], prev[order]
    if len(risk) > 1 and np.min(np.diff(risk)) <= 1e-12:
        raise ValueError("reference needs pairwise distinct group risks")
    pi = fsum(mass * prev)
    pv = fsum(mass * (prev - pi) ** 2)
    h1 = mass * prev / pi
    h0 = mass * (1.0 - prev) / (1.0 - pi)
    above = np.concatenate((np.cumsum(h1[::-1])[::-1][1:], [0.0]))
    return {
        "population_mean": pi,
        "bias_sq": fsum(mass * (risk - prev) ** 2),
        "precision_loss": pi * (1.0 - pi) - pv,
        "brier": fsum(mass * (prev * (1.0 - prev) + (risk - prev) ** 2)),
        "prevalence_variance": pv,
        "ro_correlation": math.sqrt(pv / (pi * (1.0 - pi))),
        "integrated_discrimination": fsum(prev * h1) - fsum(prev * h0),
        "concordance": fsum(h0 * (0.5 * h1 + above)),
    }


def _marginal(ids, cell_risk, mass, prev):
    n = ids.max() + 1
    m = np.bincount(ids, weights=mass, minlength=n)
    w = np.bincount(ids, weights=mass * prev, minlength=n)
    risk = np.zeros(n)
    risk[ids] = cell_risk
    return risk, m, w / m


def joint_reference(ids1, r1, ids2, r2, mass, prev) -> dict:
    """Comparison fields, total subgroup gain and cell count of a joint table.

    ids1/ids2 are dense group ids of each model per cell, r1/r2 the assigned
    risk of the cell's groups.
    """
    m1 = grouped_metrics(*_marginal(ids1, r1, mass, prev))
    m2 = grouped_metrics(*_marginal(ids2, r2, mass, prev))
    g_mass = np.bincount(ids1, weights=mass)
    g_mean = np.bincount(ids1, weights=mass * prev) / g_mass
    within = np.bincount(ids1, weights=mass * (prev - g_mean[ids1]) ** 2)
    return {
        "population_mean": m1["population_mean"],
        "brier_difference": m1["brier"] - m2["brier"],
        "bias_sq_difference": m1["bias_sq"] - m2["bias_sq"],
        "precision_difference": m1["precision_loss"] - m2["precision_loss"],
        "idi": m2["integrated_discrimination"] - m1["integrated_discrimination"],
        "concordance_difference": m2["concordance"] - m1["concordance"],
        "total_gain": fsum(within),
        "cells": int(len(mass)),
        "groups1": int(len(g_mass)),
    }


# --------------------------------------------------------------------------
# reading the CLI's outputs


def read_metric_section(path: Path) -> dict:
    """The `metric,value` section of a CSV report."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = lines.index("metric,value")
    return {k: float(v) for k, v in (line.split(",") for line in lines[start + 1 :])}


def compare_fields(got: dict, want: dict, names, label: str) -> list[str]:
    problems = []
    for name in names:
        if name not in got:
            problems.append(f"{label}: {name} missing")
        elif not close(got[name], want[name]):
            problems.append(f"{label}: {name} {got[name]!r} != reference {want[name]!r}")
    return problems


def metric_identities(m: dict, label: str) -> list[str]:
    """Identities between the reported single-model measures."""
    problems = []
    if not close(m["brier"], m["bias_sq"] + m["precision_loss"]):
        problems.append(f"{label}: brier != bias_sq + precision_loss")
    if not close(m["ro_correlation"] ** 2, m["integrated_discrimination"]):
        problems.append(f"{label}: ro_correlation^2 != integrated_discrimination")
    pi = m["population_mean"]
    if not close(m["integrated_discrimination"], m["prevalence_variance"] / (pi * (1 - pi))):
        problems.append(f"{label}: integrated_discrimination != var / (pi (1 - pi))")
    return problems


def comparison_identities(c: dict, label: str) -> list[str]:
    problems = []
    if not close(c["brier_difference"], c["bias_sq_difference"] + c["precision_difference"]):
        problems.append(f"{label}: brier_difference != bias_sq_ + precision_difference")
    pi = c["population_mean"]
    if not close(c["precision_difference"], pi * (1 - pi) * c["idi"]):
        problems.append(f"{label}: precision_difference != pi (1 - pi) idi")
    return problems


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def check_eval(ref: dict):
    groups = ref["groups"]

    def check(out: Path, stdout: str) -> list[str]:
        got = read_metric_section(out / "metrics.csv")
        problems = compare_fields(got, ref, METRIC_FIELDS, "metrics.csv")
        problems += metric_identities(got, "metrics.csv")
        if count_lines(out / "attributes.csv") != groups + 1:
            problems.append(f"attributes.csv: expected {groups} groups")
        return problems

    return check


def check_compare(ref: dict, nested: bool):
    def check(out: Path, stdout: str) -> list[str]:
        got = read_metric_section(out / "comparison.csv")
        problems = compare_fields(got, ref, COMPARISON_FIELDS, "comparison.csv")
        problems += comparison_identities(got, "comparison.csv")
        gain = read_metric_section(out / "subgroup_gain.csv")
        problems += compare_fields(gain, ref, ("total_gain",), "subgroup_gain.csv")
        # Model 2 refines model 1, so all of its precision gain is within-group.
        if nested and not close(gain["total_gain"], got["precision_difference"]):
            problems.append("nested: total_gain != precision_difference")
        if count_lines(out / "subgroup_gain.csv") != ref["groups1"] + 5:
            problems.append(f"subgroup_gain.csv: expected {ref['groups1']} rows")
        if count_lines(out / "cell_bias.csv") != ref["cells"] + 1:
            problems.append(f"cell_bias.csv: expected {ref['cells']} cells")
        return problems

    return check


def check_synth(out: Path, stdout: str) -> list[str]:
    problems = []
    for alpha in ("0.2", "0.8"):
        comp = read_metric_section(out / f"comparison_alpha{alpha}.csv")
        problems += comparison_identities(comp, f"comparison_alpha{alpha}")
        # The subgroup rows carry unquoted comma keys (z0=-1,z1=1), so only
        # the file's metric section is read.
        gain = read_metric_section(out / f"subgroup_gain_alpha{alpha}.csv")
        if not close(gain["total_gain"], comp["precision_difference"]):
            problems.append(f"alpha {alpha}: total_gain != precision_difference")
    comp = read_metric_section(out / "comparison_alpha0.8.csv")
    if not close(comp["precision_difference"], README_PRECISION_DIFFERENCE_ALPHA08):
        problems.append(f"precision_difference {comp['precision_difference']!r} != README value")
    lines = (out / "metrics_matrix.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        values = {k: float(row[k]) for k in METRIC_FIELDS}
        problems += metric_identities(values, f"metrics_matrix {row['alpha']}/{row['model']}")
    if len(lines) != 1 + 2 * 3:
        problems.append("metrics_matrix.csv: expected 6 model rows")
    return problems


def check_convert(out: Path, stdout: str) -> list[str]:
    if stdout != README_CONVERT_STDOUT:
        return [f"convert printed {stdout!r}"]
    return []


# --------------------------------------------------------------------------
# input generation


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, list(SIZES).index(name)])


def _gen_records(name: str, seed: int, n: int, path: Path) -> dict:
    """risk1,risk2,outcome records; risk2 is risk1 plus logit-scale noise."""
    rng = _rng(name, seed)
    risk1 = rng.beta(2.0, 8.0, n)
    risk2 = expit(logit(risk1) + rng.normal(0.0, 0.5, n))
    outcome = (rng.random(n) < risk1).astype(np.int64)
    if name == "records_unique":
        s1, s2 = fmt12(np.round(risk1, 4)), fmt12(np.round(risk2, 4))
    else:
        s1, s2 = fmt12(risk1), fmt12(risk2)
    ys = np.array(["0", "1"])[outcome].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("risk1,risk2,outcome\n")
        fh.writelines(f"{a},{b},{y}\n" for a, b, y in zip(s1, s2, ys))
    r1, y = parse(s1), outcome.astype(float)
    if name == "records_unique":
        values, ids = np.unique(r1, return_inverse=True)
        counts = np.bincount(ids)
        risk, mass, prev = values, counts / n, np.bincount(ids, weights=y) / counts
    else:
        order = np.argsort(r1, kind="stable")
        sorted_r = r1[order]
        # Decile cuts at n*j//10, pushed past any tie run straddling the cut.
        cuts = [int(np.searchsorted(sorted_r, sorted_r[n * j // 10 - 1], side="right"))
                for j in range(1, 10)]
        starts = np.unique(np.array([0] + cuts))
        counts = np.diff(np.append(starts, n))
        risk = np.add.reduceat(sorted_r, starts) / counts
        mass = counts / n
        prev = np.add.reduceat(y[order], starts) / counts
    ref = grouped_metrics(risk, mass, prev)
    ref["groups"] = int(len(risk))
    return ref


def _gen_nested_joint(name: str, seed: int, n: int, path: Path) -> dict:
    """r1,r2,mass,prevalence cells; model 2's n groups nest in model 1's 100."""
    rng = _rng(name, seed)
    # Model-2 risks on a 1e-7 grid, so distinct values never fall within the
    # program's 1e-12 merge tolerance.
    grid = np.round(rng.beta(2.0, 8.0, 2 * n) * 1e7).astype(np.int64)
    grid = grid[(grid > 0) & (grid < 10**7)]
    _, first = np.unique(grid, return_index=True)
    r2 = grid[np.sort(first)[:n]] / 1e7
    if len(r2) != n:
        raise RuntimeError("not enough distinct model-2 risks")
    prev = expit(logit(r2) + rng.normal(0.0, 0.3, n))
    mass = rng.gamma(2.0, 1.0, n)
    mass /= mass.sum()
    s2, sp, sm = fmt12(r2), fmt12(prev), fmt12(mass)
    r2, prev, mass = parse(s2), parse(sp), parse(sm)
    # Model 1: contiguous blocks of model-2 risks, each assigned its
    # mass-weighted mean model-2 risk.
    order = np.argsort(r2)
    ids1 = np.empty(n, dtype=np.int64)
    ids1[order] = np.arange(n) * NESTED_GROUPS // n
    block_risk = np.bincount(ids1, weights=mass * r2) / np.bincount(ids1, weights=mass)
    s1_block = fmt12(block_risk)
    r1 = parse(s1_block)[ids1]
    s1 = [s1_block[i] for i in ids1.tolist()]
    perm = rng.permutation(n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r1,r2,mass,prevalence\n")
        fh.writelines(f"{s1[i]},{s2[i]},{sm[i]},{sp[i]}\n" for i in perm.tolist())
    ids2 = np.arange(n)
    return joint_reference(ids1, r1, ids2, r2, mass, prev)


def cross_decile_reference(path: Path, mortality: float, horizon: float) -> dict:
    """Reference for `compare` on a decile1,decile2,person_years,cases file."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    d1, d2, py, cases = data.T
    keep = py > 0
    d1, d2, py, cases = d1[keep], d2[keep], py[keep], cases[keep]
    _, ids1 = np.unique(d1, return_inverse=True)
    _, ids2 = np.unique(d2, return_inverse=True)
    lam, mu = cases / py, mortality
    prev = np.where(lam > 0, -lam / (lam + mu) * np.expm1(-(lam + mu) * horizon), 0.0)
    mass = py / np.bincount(ids1, weights=py)[ids1] / (ids1.max() + 1)
    risk1 = (np.bincount(ids1, weights=mass * prev) / np.bincount(ids1, weights=mass))[ids1]
    risk2 = (np.bincount(ids2, weights=mass * prev) / np.bincount(ids2, weights=mass))[ids2]
    return joint_reference(ids1, risk1, ids2, risk2, mass, prev)


def _cached(cache: Path, name: str, seed: int, generate) -> tuple[Path, dict]:
    """Generate name's input once per (workload, seed, size) and reuse it."""
    size = SIZES[name]
    entry = cache / f"{name}-seed{seed}-n{size}"
    meta_path = entry / "meta.json"
    if not meta_path.exists():
        entry.mkdir(parents=True, exist_ok=True)
        data = entry / "input.csv"
        ref = generate(name, seed, size, data)
        meta = {"reference": ref, "sha256": sha256(data), "rows": size}
        tmp = entry / "meta.json.tmp"
        tmp.write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
        os.replace(tmp, meta_path)
    return entry / "input.csv", json.loads(meta_path.read_text(encoding="utf-8"))


def make_workload(name: str, seed: int, cache: Path, src: Path) -> Workload:
    """Generate (or reuse) name's inputs for seed and list its jobs."""
    if name == "paper_tables":
        # The paper's own inputs are fixed; the seed only rotates job order.
        example = src / "riskeval" / "data" / "example_crossdecile.csv"
        rows = count_lines(example) - 1
        ref = cross_decile_reference(example, 0.0053, 10.0)
        jobs = [
            Job("synth", ["synth", "--out", "{out}"], 0, check_synth),
            Job("compare_cross_decile",
                ["compare", str(example), "--mortality", "0.0053", "--horizon", "10",
                 "--out", "{out}"],
                rows, check_compare(ref, nested=False)),
            Job("convert", ["convert", "0.0021", "0.0053", "10"], 0, check_convert),
        ]
        shift = seed % len(jobs)
        inputs = {example.name: {"sha256": sha256(example), "rows": rows}}
        return Workload(name, seed, jobs[shift:] + jobs[:shift], inputs)
    if name == "compare_nested":
        path, meta = _cached(cache, name, seed, _gen_nested_joint)
        job = Job("compare", ["compare", str(path), "--out", "{out}"],
                  meta["rows"], check_compare(meta["reference"], nested=True))
    else:
        path, meta = _cached(cache, name, seed, _gen_records)
        bins = {"records_deciles": "deciles", "records_unique": "unique"}[name]
        job = Job("eval", ["eval", str(path), "--bins", bins, "--out", "{out}"],
                  meta["rows"], check_eval(meta["reference"]))
    inputs = {path.name: {"sha256": meta["sha256"], "rows": meta["rows"]}}
    return Workload(name, seed, [job], inputs)
