"""Command-line front end.

Subcommands:
  synth    rebuild the synthetic-population worked example end to end
  eval     single-model measures for a grouped or individual-level file
  compare  two-model comparison from a joint table, grouped pair + joint,
           or a cross-decile count table
  convert  annual incidence + mortality rates to a T-year absolute risk

`main` owns dispatch and output: each subcommand's handler only adds files
to one Writer, and `main` writes them and prints a `wrote` line per file.

Every run is deterministic: no timestamps, fixed 12-significant-digit float
formatting, sorted JSON keys. Files are written as UTF-8 bytes with LF line
ends on every platform. Exit codes: 0 success, 2 input or validation
error, 3 internal invariant violation.

JSON report schema (schema_version 1): a top-level object with
  schema_version: 1
  kind: "metrics" | "comparison" | "subgroup_gain" | "metrics_matrix"
and the report payload. Float leaves are rounded to 12 significant digits.
With --percent, every float leaf gains a sibling "<name>_pct" rounded
half-even to 0.1 percentage points; CSV reports gain matching *_pct columns.
CSV text fields holding a comma, a double quote or a line break are quoted.

The command line loads numpy with one OpenBLAS thread unless
OPENBLAS_NUM_THREADS is set; `import riskeval` alone is lazy and leaves
BLAS threading to the caller.

Importing this module ends with gc.freeze(): the objects of every module
imported so far live until exit, and frozen objects are skipped by the
collections the interpreter runs as it exits (about 20 ms of a command's
wall time). The saving lies outside every traced layer.
"""

import argparse
import gc
import json
import os
import sys
from collections.abc import Iterable
from dataclasses import replace
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

# The command line does no linear algebra, so OpenBLAS's worker threads, one
# per extra core and spinning at start-up, only burn CPU. Set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .comparison import (
    MEAN_MATCH_RTOL,
    SubgroupGain,
    compare,
    cross_classified_bias,
    subgroup_precision_gain,
    transfer_calibration,
)
from .errors import (
    InternalInvariantError,
    MeanMismatch,
    ParameterOutOfRange,
    ParseError,
    RiskEvalError,
)
from .ingestion import (
    CROSS_DECILE_HEADER,
    INDIVIDUALS_HEADER,
    JOINT_HEADER,
    _check_bin_count,
    bin_individuals,
    csv_chunks,
    format_csv,
    grouped_csv,
    load_cross_decile,
    load_grouped,
    load_individuals,
    load_joint,
    read_header,
    ten_year_risk,
)
from .metrics import MetricsReport, evaluate
from .synthetic import (
    _canonical_subset,
    build_population,
    cross_classify,
    project_model,
    risk_distribution,
)
from .tables import KeyColumn, format_label, perfect_model_table

# The imported modules live until exit; the collector need not walk them again.
gc.freeze()

METRIC_FIELDS = MetricsReport._fields
SUBGROUP_FIELDS = tuple(name for name in SubgroupGain._fields if name != "key")
# Table columns of fractions, which get percent twins; keys, model names and alpha do not.
_PCT_COLUMNS = {*METRIC_FIELDS, *SUBGROUP_FIELDS}


def percent_round(x: float) -> float:
    """Half-even percent rounding to one decimal place."""
    return float((Decimal(repr(float(x))) * 100).quantize(Decimal("0.1"), ROUND_HALF_EVEN))


def round12(x):
    """A float rounded to 12 significant digits, which keeps its CSV text; others as they are."""
    return float(format_label(x)) if isinstance(x, float) else x


class Writer:
    """Collects output files and writes them at the end of the run."""

    def __init__(self, out_dir: Path, out_format: str, percent: bool):
        self.out_dir = out_dir
        self.out_format = out_format
        self.percent = percent
        self.pending: list[tuple[Path, Iterable[bytes]]] = []  # each file's byte chunks

    def add_text(self, name: str, text: str) -> None:
        self.pending.append((self.out_dir / name, [text.encode()]))

    def add_csv(self, name: str, header, columns) -> None:
        """A CSV file of columns, formatted block by block as the file is written."""
        self.pending.append((self.out_dir / name, csv_chunks(header, columns=columns)))

    def add_report(self, name: str, kind: str, pairs, header=(), columns=()) -> None:
        """One report in the configured format.

        pairs are scalar (name, value) entries. A tabular report also names
        its columns in header and gives one column per name (float arrays,
        key columns or other numpy arrays), one entry per row. The percent
        view adds a twin after the pairs for each pair, and after the
        columns for each column of fractions.
        """
        if self.percent:
            pairs = [*pairs, *((f"{k}_pct", percent_round(v)) for k, v in pairs)]
            twins = [(f, c) for f, c in zip(header, columns) if f in _PCT_COLUMNS]
            header = [*header, *(f"{f}_pct" for f, _ in twins)]
            columns = [*columns, *(np.array([*map(percent_round, c.tolist())]) for _, c in twins)]
        if self.out_format == "json":
            # round12 keeps each float's 12-digit CSV text, and a percent value as it is.
            payload = {"schema_version": 1, "kind": kind, **{k: round12(v) for k, v in pairs}}
            if header:
                rows = zip(*([*map(round12, c.tolist())] for c in columns))
                payload["rows"] = [dict(zip(header, row)) for row in rows]
            self.add_text(f"{name}.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
            return
        sections = [format_csv(header, columns=columns)] if header else []
        if pairs:
            names, values = zip(*pairs)
            sections.append(format_csv(("metric", "value"), columns=(names, np.array(values))))
        self.add_text(f"{name}.csv", "\n".join(sections))

    def flush(self) -> list[Path]:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for path, chunks in sorted(self.pending, key=lambda item: str(item[0])):
            with open(path, "wb") as fh:
                fh.writelines(chunks)
            written.append(path)
        return written


def _report_pairs(report):
    """(field name, value) pairs of a report, in field order."""
    return list(zip(report._fields, report))


def _add_gain_report(writer: Writer, name: str, gain) -> None:
    pairs = [("population_mean", gain.population_mean), ("total_gain", gain.total_gain)]
    header = ("group", *SUBGROUP_FIELDS)
    writer.add_report(name, "subgroup_gain", pairs, header, gain.rows.columns())


def _attributes_csv(table) -> str:
    columns = (table.risk, table.prevalence, table.mass)
    return format_csv(("risk", "prevalence", "mass"), columns=columns)


def parse_subset(text: str) -> tuple[str, ...]:
    """Covariate subset written as e.g. "z0z1", in canonical order."""
    rest = text.strip()
    return _canonical_subset(rest[i : i + 2] for i in range(0, len(rest), 2))


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        alphas = tuple(float(a) + 0.0 for a in text.split(","))  # -0 is population 0
    except ValueError:
        raise ParameterOutOfRange(f"cannot parse --alpha {text!r}") from None
    labels = [format_label(a) for a in alphas]
    for a, label in zip(alphas, labels):
        if not 0.0 <= a <= 1.0:
            raise ParameterOutOfRange(f"alpha {a} outside [0, 1]")
        if labels.count(label) > 1:  # its files would be named twice
            raise ParameterOutOfRange(f"--alpha {text!r} repeats {label}")
    return alphas


def _parse_models(text: str) -> tuple[tuple[str, ...], ...]:
    subsets = tuple(parse_subset(s) for s in text.split(",")) if text else ()
    if len(set(subsets)) != len(subsets):
        raise ParameterOutOfRange(f"--models {text!r} repeats a subset")
    return subsets


def parse_bins(text: str) -> int | None:
    """The quantile bin count of --bins, or None for one bin per distinct risk."""
    if text == "unique":
        return None
    if text == "deciles":
        return 10
    if text.startswith("quantiles:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise ParameterOutOfRange(f"cannot parse bin count in {text!r}") from None
        return _check_bin_count(k)
    raise ParameterOutOfRange(f"unknown binning {text!r}; use unique, deciles, or quantiles:K")


def _input_paths(names) -> list[Path]:
    paths = [Path(p) for p in names]
    for p in paths:
        if not p.exists():
            raise ParseError(f"input file {p} does not exist")
    return paths


def cmd_synth(args: argparse.Namespace, writer: Writer) -> None:
    alphas, subsets = _parse_alphas(args.alpha), _parse_models(args.models)
    populations = {a: build_population(a) for a in alphas}
    tables = {(a, s): project_model(pop, s) for a, pop in populations.items() for s in subsets}
    matrix_rows = []  # (alpha, model name, *metrics)
    for alpha, pop in populations.items():
        alabel = format_label(alpha)
        dist = risk_distribution(pop)
        writer.add_text(
            f"risk_distribution_alpha{alabel}.csv",
            format_csv(("risk", "mass"), columns=(dist.risk, dist.mass)),
        )
        for subset in subsets:
            name, table = "".join(subset), tables[(alpha, subset)]
            writer.add_text(f"model_alpha{alabel}_{name}.csv", grouped_csv(table))
            matrix_rows.append((alpha, name, *evaluate(table)))
        matrix_rows.append((alpha, "perfect", *evaluate(perfect_model_table(dist))))
        if len(subsets) >= 2:
            s1, s2 = subsets[0], subsets[1]
            joint = cross_classify(pop, s1, s2)
            comp = compare(tables[(alpha, s1)], tables[(alpha, s2)])
            writer.add_report(f"comparison_alpha{alabel}", "comparison", _report_pairs(comp))
            gain = subgroup_precision_gain(joint)
            _add_gain_report(writer, f"subgroup_gain_alpha{alabel}", gain)
    if len(alphas) >= 2:
        source_alpha, target_alpha = alphas[0], alphas[1]
        for subset in subsets:
            transferred = transfer_calibration(
                tables[(source_alpha, subset)], tables[(target_alpha, subset)]
            )
            writer.add_text(
                f"transfer_{''.join(subset)}_alpha{format_label(source_alpha)}"
                f"_to_alpha{format_label(target_alpha)}.csv",
                _attributes_csv(transferred),
            )
    else:
        print("note: transfer tables need two alpha values; skipped")
    matrix = [np.array(column) for column in zip(*matrix_rows)]
    header = ("alpha", "model") + METRIC_FIELDS
    writer.add_report("metrics_matrix", "metrics_matrix", [], header, matrix)


def cmd_eval(args: argparse.Namespace, writer: Writer) -> None:
    (path,) = _input_paths(args.paths)
    k = parse_bins(args.bins)
    if read_header(path)[: len(INDIVIDUALS_HEADER)] == INDIVIDUALS_HEADER:
        # Only model 1 is scored: risk2 is validated on load but never binned.
        records = replace(load_individuals(path), risk2=None)
        table, _ = bin_individuals(records, k)
    else:
        table = load_grouped(path)
        if table.declared_calibrated:
            print(
                "warning: prevalence column missing; risks taken as prevalences "
                "(declared-calibrated)",
                file=sys.stderr,
            )
    writer.add_report("metrics", "metrics", _report_pairs(evaluate(table)))
    writer.add_text("attributes.csv", _attributes_csv(table))


def cmd_compare(args: argparse.Namespace, writer: Writer) -> None:
    paths = _input_paths(args.paths)
    if len(paths) == 1:
        header = read_header(paths[0])
        if header == CROSS_DECILE_HEADER:
            if args.mortality is None or args.horizon is None:
                raise ParameterOutOfRange("cross-decile input needs --mortality and --horizon")
            joint = load_cross_decile(paths[0], args.mortality, args.horizon)
        elif header == JOINT_HEADER:
            joint = load_joint(paths[0])
        else:
            raise ParseError(
                f"{paths[0]}: expected header {','.join(JOINT_HEADER)} or "
                f"{','.join(CROSS_DECILE_HEADER)}"
            )
        table1, table2 = joint.marginal(1), joint.marginal(2)
    elif len(paths) == 3:
        table1, table2 = load_grouped(paths[0]), load_grouped(paths[1])
        joint = load_joint(paths[2])
        for t in (table1, table2):
            gap = abs(t.population_mean - joint.population_mean)
            if gap > MEAN_MATCH_RTOL * max(abs(t.population_mean), abs(joint.population_mean)):
                raise MeanMismatch(
                    f"grouped table mean {t.population_mean!r} does not match "
                    f"joint table mean {joint.population_mean!r}"
                )
    else:
        raise ParseError("compare takes one table path or GROUPED1 GROUPED2 JOINT")
    comp = compare(table1, table2)
    gain = subgroup_precision_gain(joint)
    cell_bias = cross_classified_bias(joint, table1, table2)
    writer.add_report("comparison", "comparison", _report_pairs(comp))
    _add_gain_report(writer, "subgroup_gain", gain)
    keys1, keys2, mass, prevalence, risk1, risk2, bias1, bias2 = cell_bias.columns()
    risks = _as_keys(risk1, keys1), _as_keys(risk2, keys2)
    header = ("group1", "group2", "mass", "prevalence", "risk1", "risk2", "bias1", "bias2")
    writer.add_csv("cell_bias.csv", header, (keys1, keys2, mass, prevalence, *risks, bias1, bias2))


def _as_keys(risk: np.ndarray, keys: KeyColumn):
    """keys when each risk is its key's value bit for bit, and so prints as
    its key's label; else risk. Loaded tables' cell risks are their keys'."""
    if keys.values is not None and np.array_equal(
        keys.values[keys.codes].view(np.int64), risk.view(np.int64)
    ):
        return keys
    return risk


def cmd_convert(args: argparse.Namespace, writer: None) -> None:
    risk = ten_year_risk(args.incidence, args.mortality, args.horizon)
    print(f"risk over {format_label(args.horizon)} years: "
          f"{format_label(risk)} ({percent_round(risk)}%)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskeval",
        description="Evaluate and compare probabilistic risk models for binary outcomes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--percent", action="store_true", help="add 0.1pp percent views")

    p = sub.add_parser("synth", help="rebuild the synthetic worked example")
    p.add_argument("--alpha", default="0.2,0.8", help="comma-separated alpha values")
    p.add_argument("--models", default="z0z1,z0z1z2", help="comma-separated covariate subsets")
    add_output_flags(p)
    p.set_defaults(run=cmd_synth)

    p = sub.add_parser("eval", help="evaluate one model file")
    p.add_argument("paths", nargs=1, metavar="PATH")
    p.add_argument("--bins", default="unique", help="unique | deciles | quantiles:K")
    add_output_flags(p)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("compare", help="compare two models")
    p.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="joint table, cross-decile table, or GROUPED1 GROUPED2 JOINT",
    )
    p.add_argument("--mortality", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    add_output_flags(p)
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser("convert", help="annual rates to T-year risk")
    p.add_argument("incidence", type=float)
    p.add_argument("mortality", type=float)
    p.add_argument("horizon", type=float)
    p.set_defaults(run=cmd_convert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        writer = Writer(Path(args.out), args.format, args.percent) if "out" in args else None
        args.run(args, writer)
        if writer is not None:
            for path in writer.flush():
                print(f"wrote {path}")
        return 0
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (RiskEvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
