"""The names that bench/tracing.py patches and reads are still where it looks.

The benchmark's tracer wraps library functions from outside the package and
counts rows through the row views (`.groups`, `.cells`, `.points`). A change
that moves, renames or drops one of them breaks its per-layer metrics without
failing any other test. Here the tracer runs the CLI in process over small
inputs: every job must succeed, the counters that read the views must see
rows, and uninstalling must put every patched attribute back.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import riskeval
from riskeval.cli import main

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = ("cli", "ingestion", "tables", "comparison", "metrics", "distributions", "synthetic")


def _tracing():
    spec = importlib.util.spec_from_file_location("riskeval_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _inputs(tmp_path):
    pop = riskeval.build_population(0.8)
    grouped, joint, records = (tmp_path / n for n in ("grouped.csv", "joint.csv", "records.csv"))
    riskeval.write_grouped(riskeval.project_model(pop, ("z0", "z1")), grouped)
    riskeval.write_joint(riskeval.cross_classify(pop, ("z0", "z1"), ("z0", "z1", "z2")), joint)
    records.write_text(
        "risk1,risk2,outcome\n"
        + "".join(f"0.{i % 37 + 10},0.{i % 23 + 10},{i % 3 == 0:d}\n" for i in range(200))
    )
    return grouped, joint, records


def test_tracer_counts_rows_and_restores_every_patch(tmp_path):
    grouped, joint, records = _inputs(tmp_path)
    xdec = str(riskeval.example_cross_decile_path())
    evaluated = {"tables.build": "groups_out", "metrics.evaluate": "groups"}
    binned = {**evaluated, "ingestion.bin": ("records", "groups")}
    # argv -> the counters that must read rows in that job
    jobs = [
        (["synth"], {"distributions.build": "points", "tables.build": "groups_out"}),
        (["compare", xdec, "--mortality", "0.0053", "--horizon", "10"],
         {**evaluated, "ingestion.convert": "cells"}),
        (["eval", str(records), "--bins", "deciles"], binned),
        (["eval", str(records), "--bins", "unique"], binned),
        (["compare", str(joint)], evaluated),
        (["eval", str(grouped)], evaluated),
    ]
    tracing = _tracing()
    tracer = tracing.Tracer({name: importlib.import_module(f"riskeval.{name}") for name in MODULES})
    tracer.install()
    patched = list(tracer._saved)
    try:
        for job_id, (argv, counters) in enumerate(jobs, 1):
            argv = [*argv, "--out", str(tmp_path / f"out{job_id}")]
            with contextlib.redirect_stdout(io.StringIO()):
                code, _ = tracer.run_job(job_id, main, argv)
            assert code == 0, argv
            totals = tracer.layer_totals(job_id)
            for layer, names in counters.items():
                for name in (names,) if isinstance(names, str) else names:
                    assert totals[layer][name] > 0, (argv, layer, name)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
