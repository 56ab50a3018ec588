"""Command-line front end.

Subcommands:
  synth    rebuild the synthetic-population worked example end to end
  eval     single-model measures for a grouped or individual-level file
  compare  two-model comparison from a joint table, grouped pair + joint,
           or a cross-decile count table
  convert  annual incidence + mortality rates to a T-year absolute risk

Every run is deterministic: no timestamps, fixed 12-significant-digit float
formatting, sorted JSON keys. Exit codes: 0 success, 2 input or validation
error, 3 internal invariant violation.

JSON report schema (schema_version 1): a top-level object with
  schema_version: 1
  kind: "metrics" | "comparison" | "subgroup_gain" | "metrics_matrix"
and the report payload. Float leaves are rounded to 12 significant digits.
With --percent, every float leaf gains a sibling "<name>_pct" rounded
half-even to 0.1 percentage points; CSV reports gain matching *_pct columns.
CSV text fields that hold a comma or a double quote are quoted.
"""

import argparse
import json
import sys
from dataclasses import fields, replace
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

from .comparison import (
    MEAN_MATCH_RTOL,
    ComparisonReport,
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
    bin_individuals,
    format_csv,
    grouped_csv,
    load_cross_decile,
    load_grouped,
    load_individuals,
    load_joint,
    read_header,
    ten_year_risk,
)
from .metrics import MetricsReport, attributes_diagram, evaluate
from .synthetic import (
    _canonical_subset,
    build_population,
    cross_classify,
    project_model,
    risk_distribution,
)
from .tables import format_label, perfect_model_table

METRIC_FIELDS = tuple(f.name for f in fields(MetricsReport))
COMPARISON_FIELDS = tuple(f.name for f in fields(ComparisonReport))
SUBGROUP_FIELDS = tuple(f.name for f in fields(SubgroupGain) if f.name != "key")


def percent_round(x: float) -> float:
    """Half-even percent rounding to one decimal place."""
    return float((Decimal(repr(float(x))) * 100).quantize(Decimal("0.1"), ROUND_HALF_EVEN))


def round12(x: float) -> float:
    return float(format_label(x))


def _with_percent(pairs, percent: bool):
    """(name, value) pairs plus *_pct twins when percent view is on."""
    out = list(pairs)
    if percent:
        out += [(f"{name}_pct", percent_round(value)) for name, value in pairs]
    return out


class Writer:
    """Collects output files and writes them at the end of the run."""

    def __init__(self, out_dir: Path, out_format: str, percent: bool):
        self.out_dir = out_dir
        self.out_format = out_format
        self.percent = percent
        self.pending: list[tuple[Path, str]] = []

    def add_text(self, name: str, text: str) -> None:
        self.pending.append((self.out_dir / name, text))

    def add_report(self, name: str, kind: str, payload_pairs, rows=None) -> None:
        """One report in the configured format.

        payload_pairs are scalar (name, value) entries; rows, when given, is
        (row_field_names, list of row dicts) for tabular reports.
        """
        pairs = _with_percent(payload_pairs, self.percent)
        if rows is not None:
            columns, row_dicts = rows
            pct_fields = [f for f in columns if f in _PCT_COLUMNS] if self.percent else []
        if self.out_format == "json":
            payload = {"schema_version": 1, "kind": kind}
            payload.update((k, round12(v) if isinstance(v, float) else v) for k, v in pairs)
            if rows is not None:
                payload["rows"] = [
                    {
                        **{
                            f: round12(row[f]) if isinstance(row[f], float) else row[f]
                            for f in columns
                        },
                        **{f"{f}_pct": percent_round(row[f]) for f in pct_fields},
                    }
                    for row in row_dicts
                ]
            self.add_text(f"{name}.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
            return
        sections = []
        if rows is not None:
            header = list(columns) + [f"{f}_pct" for f in pct_fields]
            body = (
                [row[f] for f in columns] + [percent_round(row[f]) for f in pct_fields]
                for row in row_dicts
            )
            sections.append(format_csv(header, body))
        if pairs:
            sections.append(format_csv(("metric", "value"), pairs))
        self.add_text(f"{name}.csv", "\n".join(sections))

    def flush(self) -> list[Path]:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for path, text in sorted(self.pending, key=lambda item: str(item[0])):
            path.write_text(text, encoding="utf-8")
            written.append(path)
        return written


# Report fields that carry a fraction and so get a percent twin; keys,
# labels, and the alpha parameter do not.
_PCT_COLUMNS = (
    set(METRIC_FIELDS) | set(COMPARISON_FIELDS) | set(SUBGROUP_FIELDS) | {"total_gain"}
)


def _report_pairs(report):
    """(field name, value) pairs of a report dataclass, in field order."""
    return [(f.name, getattr(report, f.name)) for f in fields(report)]


def _add_gain_report(writer: Writer, name: str, gain) -> None:
    rows = [{"group": r.key, **{f: getattr(r, f) for f in SUBGROUP_FIELDS}} for r in gain.rows]
    writer.add_report(
        name,
        "subgroup_gain",
        [("population_mean", gain.population_mean), ("total_gain", gain.total_gain)],
        rows=(("group",) + SUBGROUP_FIELDS, rows),
    )


def _attributes_csv(table) -> str:
    return format_csv(("risk", "prevalence", "mass"), attributes_diagram(table))


def _subset_label(subset: tuple[str, ...]) -> str:
    return "".join(subset)


def parse_subset(text: str) -> tuple[str, ...]:
    """Covariate subset written as e.g. "z0z1", in canonical order."""
    rest = text.strip()
    return _canonical_subset(rest[i : i + 2] for i in range(0, len(rest), 2))


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        alphas = tuple(float(a) for a in text.split(","))
    except ValueError:
        raise ParameterOutOfRange(f"cannot parse --alpha {text!r}") from None
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise ParameterOutOfRange(f"alpha {a} outside [0, 1]")
    return alphas


def _parse_models(text: str) -> tuple[tuple[str, ...], ...]:
    subsets = tuple(parse_subset(s) for s in text.split(",")) if text else ()
    if len(set(subsets)) != len(subsets):
        raise ParameterOutOfRange(f"--models {text!r} repeats a subset")
    return subsets


def parse_bins(text: str) -> tuple[str, int]:
    if text == "unique":
        return ("unique-values", 0)
    if text == "deciles":
        return ("quantiles", 10)
    if text.startswith("quantiles:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise ParameterOutOfRange(f"cannot parse bin count in {text!r}") from None
        return ("quantiles", k)
    raise ParameterOutOfRange(
        f"unknown binning {text!r}; use unique, deciles, or quantiles:K"
    )


def _input_paths(names) -> list[Path]:
    paths = [Path(p) for p in names]
    for p in paths:
        if not p.exists():
            raise ParseError(f"input file {p} does not exist")
    return paths


def cmd_synth(args: argparse.Namespace) -> int:
    alphas, subsets = _parse_alphas(args.alpha), _parse_models(args.models)
    writer = Writer(Path(args.out), args.format, args.percent)
    populations = {a: build_population(a) for a in alphas}
    tables = {}  # (alpha, subset) -> grouped table
    matrix_rows = []
    matrix_fields = ("alpha", "model") + METRIC_FIELDS
    for alpha, pop in populations.items():
        alabel = format_label(alpha)
        dist = risk_distribution(pop)
        writer.add_text(
            f"risk_distribution_alpha{alabel}.csv", format_csv(("risk", "mass"), dist.points)
        )
        models = [(_subset_label(s), project_model(pop, s)) for s in subsets]
        models.append(("perfect", perfect_model_table(dist)))
        for name, table in models:
            if name != "perfect":
                writer.add_text(f"model_alpha{alabel}_{name}.csv", grouped_csv(table))
            report = evaluate(table)
            matrix_rows.append({"alpha": alpha, "model": name, **dict(_report_pairs(report))})
        for subset in subsets:
            tables[(alpha, subset)] = dict(models)[_subset_label(subset)]
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
                f"transfer_{_subset_label(subset)}_alpha{format_label(source_alpha)}"
                f"_to_alpha{format_label(target_alpha)}.csv",
                _attributes_csv(transferred),
            )
    else:
        print("note: transfer tables need two alpha values; skipped")
    writer.add_report("metrics_matrix", "metrics_matrix", [], rows=(matrix_fields, matrix_rows))
    for path in writer.flush():
        print(f"wrote {path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    (path,) = _input_paths(args.paths)
    scheme, k = parse_bins(args.bins)
    if read_header(path)[: len(INDIVIDUALS_HEADER)] == INDIVIDUALS_HEADER:
        # Only model 1 is scored: risk2 is validated on load but never binned.
        records = replace(load_individuals(path), risk2=None)
        table, _ = bin_individuals(records, scheme=scheme, k=k)
    else:
        table = load_grouped(path)
        if table.declared_calibrated:
            print(
                "warning: prevalence column missing; risks taken as prevalences "
                "(declared-calibrated)",
                file=sys.stderr,
            )
    writer = Writer(Path(args.out), args.format, args.percent)
    writer.add_report("metrics", "metrics", _report_pairs(evaluate(table)))
    writer.add_text("attributes.csv", _attributes_csv(table))
    for out in writer.flush():
        print(f"wrote {out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
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
    risks1 = {g.key: g.risk for g in table1.groups}
    risks2 = {g.key: g.risk for g in table2.groups}
    cell_rows = cross_classified_bias(joint, risks1, risks2)
    writer = Writer(Path(args.out), args.format, args.percent)
    writer.add_report("comparison", "comparison", _report_pairs(comp))
    _add_gain_report(writer, "subgroup_gain", gain)
    writer.add_text(
        "cell_bias.csv",
        format_csv(
            ("group1", "group2", "mass", "prevalence", "risk1", "risk2", "bias1", "bias2"),
            (
                (c.key1, c.key2, c.mass, c.prevalence, c.risk1, c.risk2, c.bias1, c.bias2)
                for c in cell_rows
            ),
        ),
    )
    for out in writer.flush():
        print(f"wrote {out}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    risk = ten_year_risk(args.incidence, args.mortality, args.horizon)
    print(f"risk over {format_label(args.horizon)} years: "
          f"{format_label(risk)} ({percent_round(risk)}%)")
    return 0


def dispatch(args: argparse.Namespace) -> int:
    commands = {
        "synth": cmd_synth,
        "eval": cmd_eval,
        "compare": cmd_compare,
        "convert": cmd_convert,
    }
    return commands[args.command](args)


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

    p = sub.add_parser("eval", help="evaluate one model file")
    p.add_argument("paths", nargs=1, metavar="PATH")
    p.add_argument("--bins", default="unique", help="unique | deciles | quantiles:K")
    add_output_flags(p)

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

    p = sub.add_parser("convert", help="annual rates to T-year risk")
    p.add_argument("incidence", type=float)
    p.add_argument("mortality", type=float)
    p.add_argument("horizon", type=float)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return dispatch(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except RiskEvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
