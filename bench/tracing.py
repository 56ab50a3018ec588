"""Per-layer spans around riskeval's public functions, installed from outside.

Nothing under src/ is changed. Each public function that the CLI reaches is
replaced, in the namespace that calls it, by a wrapper that records a span:
name, start, end, parent span and job id. Spans are kept in memory and
written out when the run ends. A layer's self time is its spans' duration
minus the part covered by their direct child spans, so the self times of all
layers in a job add up to the job's root span, whose own self time is the
time left in `cli.main` and the `cmd_*` functions (argparse, inline
formatting).

Counts describe the outermost span of each name only: a `tables.build` span
nested in another (`JointModelTable.marginal` calling `make_grouped_table`)
adds time but not rows.
"""

import functools
import os
import time
from dataclasses import dataclass, field

ROOT_SPAN = "cli"

# Span name -> count names it reports, in report order.
LAYERS = {
    "ingestion.parse": ("rows", "bytes_in"),
    "ingestion.bin": ("records", "groups", "pair_slots", "pair_fill", "joint_cells_unused"),
    "ingestion.convert": ("cells",),
    "tables.build": ("rows_in", "groups_out", "merged"),
    "distributions.build": ("points",),
    "metrics.evaluate": ("groups",),
    "comparison.compare": ("rows",),
    "comparison.subgroup_gain": ("cells",),
    "comparison.cell_bias": ("cells",),
    "comparison.transfer": ("rows",),
    "synthetic.build": (),
    "cli.serialize": ("bytes_out", "files"),
    ROOT_SPAN: (),
}
UNITS = {
    "self_s": "s", "calls": "count", "errors": "count",
    "rows": "rows", "bytes_in": "bytes", "records": "records", "groups": "groups",
    "pair_slots": "slots", "pair_fill": "fraction", "joint_cells_unused": "cells",
    "cells": "cells", "rows_in": "rows", "groups_out": "groups", "merged": "groups",
    "points": "points", "bytes_out": "bytes", "files": "files",
}


@dataclass
class Span:
    name: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False
    counted: bool = False  # outermost span of its name: counts are kept
    counts: dict = field(default_factory=dict)
    pending: tuple | None = None  # (counter, args, kwargs, result) until the job ends


# --------------------------------------------------------------------------
# counters: (args, kwargs, result) -> counts, evaluated after the job so
# their cost lands in no span


def _count_parse(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    with open(path, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return {"rows": lines - 1, "bytes_in": os.path.getsize(path)}


def _count_bin(args, kwargs, result):
    grouped, joint = result
    counts = {"records": len(args[0]), "groups": len(grouped.groups)}
    if joint is not None:
        g1 = len({c.key1 for c in joint.cells})
        g2 = len({c.key2 for c in joint.cells})
        counts["pair_slots"] = g1 * g2
        counts["occupied"] = len(joint.cells)
        # cmd_eval, the only CLI caller, discards the joint table.
        counts["joint_cells_unused"] = len(joint.cells)
    return counts


def _count_convert(args, kwargs, result):
    return {"cells": len(args[0].cells)}


def _table_len(table):
    return len(table.groups) if hasattr(table, "groups") else len(table.cells)


def _count_table(args, kwargs, result):
    return {"groups_out": _table_len(result)}


def _count_marginal(args, kwargs, result):
    return {"rows_in": len(args[0].cells), "groups_out": len(result.groups)}


def _count_perfect(args, kwargs, result):
    return {"rows_in": len(args[0].points), "groups_out": len(result.groups)}


def _count_points(args, kwargs, result):
    return {"points": len(result.points)}


def _count_groups(args, kwargs, result):
    return {"groups": len(args[0].groups)}


def _count_compare(args, kwargs, result):
    return {"rows": len(args[0].groups) + len(args[1].groups)}


def _count_cells(args, kwargs, result):
    return {"cells": len(args[0].cells)}


def _count_transfer(args, kwargs, result):
    return {"rows": len(args[1].groups)}


def _count_flush(args, kwargs, result):
    return {"bytes_out": sum(os.path.getsize(p) for p in result), "files": len(result)}


def _count_entries(args, kwargs, span):
    """Count the entries a table builder consumes, even from a generator.

    Counting a generator costs the span a little time per entry; the
    trace.overhead_s metric includes it.
    """
    entries = args[0]
    if hasattr(entries, "__len__"):
        span.counts["rows_in"] = len(entries)
        return args

    def counting():
        n = 0
        for entry in entries:
            n += 1
            yield entry
        span.counts["rows_in"] = n

    return (counting(),) + tuple(args[1:])


class Tracer:
    """Installs span wrappers into riskeval's namespaces and collects spans."""

    def __init__(self, riskeval_modules):
        self.m = riskeval_modules
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = 0
        self.first_span: dict[int, int] = {}  # job id -> index of its first span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter=None, prepare=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            counted = all(spans[i].name != name for i in stack)
            span = Span(name, tracer.job, stack[-1] if stack else None, 0.0, counted=counted)
            if counted and prepare is not None:
                args = prepare(args, kwargs, span)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counted and counter is not None:
                span.pending = (counter, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, counter=None, prepare=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, counter, prepare))

    def install(self) -> None:
        """Patch every traced function where its callers look it up."""
        cli, ing, tab = self.m["cli"], self.m["ingestion"], self.m["tables"]
        comp, met = self.m["comparison"], self.m["metrics"]
        dist, syn = self.m["distributions"], self.m["synthetic"]
        for fn in ("load_individuals", "load_grouped", "load_joint"):
            self._patch(cli, fn, "ingestion.parse", _count_parse)
        self._patch(ing, "read_cross_decile", "ingestion.parse", _count_parse)
        self._patch(cli, "bin_individuals", "ingestion.bin", _count_bin)
        self._patch(ing.CrossDecileTable, "to_joint", "ingestion.convert", _count_convert)
        for module in (ing, tab, comp, syn):
            self._patch(module, "make_grouped_table", "tables.build", _count_table, _count_entries)
        for module in (ing, syn):
            self._patch(module, "make_joint_table", "tables.build", _count_table, _count_entries)
        self._patch(tab.JointModelTable, "marginal", "tables.build", _count_marginal)
        self._patch(cli, "perfect_model_table", "tables.build", _count_perfect)
        for module in (met, syn, dist):
            self._patch(module, "make_distribution", "distributions.build", _count_points)
        for module in (cli, comp):
            self._patch(module, "evaluate", "metrics.evaluate", _count_groups)
        self._patch(cli, "compare", "comparison.compare", _count_compare)
        self._patch(cli, "subgroup_precision_gain", "comparison.subgroup_gain", _count_cells)
        self._patch(cli, "cross_classified_bias", "comparison.cell_bias", _count_cells)
        self._patch(cli, "transfer_calibration", "comparison.transfer", _count_transfer)
        for fn in ("build_population", "project_model", "cross_classify", "risk_distribution"):
            self._patch(cli, fn, "synthetic.build")
        for attr in ("add_report", "add_text", "flush"):
            self._patch(cli.Writer, attr, "cli.serialize",
                        _count_flush if attr == "flush" else None)
        self._patch(cli, "_attributes_csv", "cli.serialize")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_job(self, job_id: int, main, argv):
        """Call main(argv) under the root span; returns (exit code, wall seconds)."""
        self.job = job_id
        self.first_span[job_id] = len(self.spans)
        root = self._wrap(ROOT_SPAN, main)
        t0 = time.perf_counter()
        code = root(argv)
        wall = time.perf_counter() - t0
        for span in self.spans[self.first_span[job_id]:]:
            if span.pending is not None:
                counter, args, kwargs, result = span.pending
                span.pending = None
                span.counts.update(counter(args, kwargs, result))
        return code, wall

    def layer_totals(self, job_id: int) -> dict:
        """Per span name: self_s, calls, errors and summed counts for one job."""
        first = self.first_span[job_id]
        spans = [(i, s) for i, s in enumerate(self.spans[first:], first) if s.job == job_id]
        child_time = {}
        for _, s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        totals = {name: {"self_s": 0.0, "calls": 0, "errors": 0} for name in LAYERS}
        for i, s in spans:
            t = totals[s.name]
            t["self_s"] += (s.end - s.start) - child_time.get(i, 0.0)
            t["calls"] += 1
            t["errors"] += int(s.error)
            if s.counted:
                for key, value in s.counts.items():
                    t[key] = t.get(key, 0) + value
        for name, t in totals.items():
            for key in LAYERS[name]:
                t.setdefault(key, 0)
        t = totals["tables.build"]
        t["merged"] = t["rows_in"] - t["groups_out"]
        t = totals["ingestion.bin"]
        occupied = t.pop("occupied", 0)
        t["pair_fill"] = occupied / t["pair_slots"] if t["pair_slots"] else 0.0
        return totals

    def records(self):
        """Spans as plain dicts, for writing out when the run ends."""
        for i, s in enumerate(self.spans):
            yield {"id": i, "name": s.name, "job": s.job, "parent": s.parent,
                   "start": s.start, "end": s.end, "error": s.error, "counts": s.counts}
