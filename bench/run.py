"""Benchmark of the riskeval command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/riskeval).
Inputs for the workload are generated from the seed and cached under
bench/_work/. With --trace 0, a closed loop with one client runs the real CLI
in child processes, one job at a time, for about S seconds, checks every
job's outputs against a numpy reference and reports the end-to-end metrics.
With --trace 1, the same jobs run in process through `riskeval.cli.main`,
alternately untraced and with span wrappers installed (bench/tracing.py),
and the per-layer metrics are reported. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracing import LAYERS, UNITS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"

# Child processes run exactly what the installed `riskeval` entry point runs.
CLI = "import sys; from riskeval.cli import main; sys.exit(main())"
IMPORT_ONLY = "import riskeval.cli"
# Set-up samples: a few before every round of jobs, topped up after the last
# round. The machine's speed shifts within seconds, so one block of samples
# would read one moment's speed.
SETUP_PER_ROUND = 3
SETUP_MIN_SAMPLES = 15
# Two CLI jobs per run at least, so one slow job cannot set the median alone.
MIN_ROUNDS = 2
JOB_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # An installed package runs from byte-compiled modules, so children keep a
    # bytecode cache, under bench/_work, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def spawn(code: str, argv: list[str], stdout_path: Path, env: dict):
    """Run one child to completion; returns (exit code, wall s, cpu s, peak RSS MiB).

    CPU time and peak RSS come from the child's own rusage (wait4), never from
    RUSAGE_CHILDREN, which keeps the maximum over every child reaped so far.
    """
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=env, cwd=WORK,
                                stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(JOB_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def output_hashes(out_dir: Path, stdout: str) -> dict:
    """SHA-256 of each file a job wrote, and of its standard output."""
    hashes = {path.name: workloads.sha256(path) for path in sorted(out_dir.glob("*"))}
    hashes["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return hashes


class Outcomes:
    """Checks each job's outputs and keeps every job's measurements by kind."""

    def __init__(self):
        self.by_kind: dict[str, list[dict]] = {}
        self.hashes: dict[str, dict] = {}  # job kind -> output hashes of its first job
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, job, code: int, out_dir: Path, stdout: str, **measured) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {stdout[-300:]!r}"]
        else:
            try:
                problems = job.check(out_dir, stdout)
            except (OSError, ValueError, KeyError, ArithmeticError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            hashes = output_hashes(out_dir, stdout)
            if self.hashes.setdefault(job.kind, hashes) != hashes:
                problems.append("output bytes differ from the run's first job")
        if problems:
            self.failed += 1
            self.problems += [f"{job.kind}: {p}" for p in problems]
        self.by_kind.setdefault(job.kind, []).append(measured)

    def per_job(self, key: str) -> float:
        """Median of key per job kind, averaged over the workload's kinds."""
        return statistics.fmean(
            statistics.median(m[key] for m in ms) for ms in self.by_kind.values()
        )


def fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def job_argv(job, out_dir: Path) -> list[str]:
    return [a.replace("{out}", str(out_dir)) for a in job.argv]


def closed_loop(workload, seconds: float, min_rounds: int, run_one, before_round=None) -> None:
    """Run rounds of the workload's jobs back to back for about `seconds`.

    A round is one job of each kind. A new round starts only when the last
    round's duration still fits before the deadline, after min_rounds rounds.
    """
    deadline = time.perf_counter() + seconds
    rounds, round_s = 0, 0.0
    while rounds < min_rounds or time.perf_counter() + round_s <= deadline:
        t0 = time.perf_counter()
        if before_round is not None:
            before_round()
        for job in workload.jobs:
            run_one(job)
        round_s = time.perf_counter() - t0
        rounds += 1


def import_only(env: dict) -> float:
    """Wall time of a child that starts the interpreter, imports riskeval.cli and exits."""
    log = WORK / "setup.log"
    code, wall, _, _ = spawn(IMPORT_ONLY, [], log, env)
    if code != 0:
        raise RuntimeError(f"import riskeval.cli failed: {log.read_text()[-500:]}")
    return wall


def run_untraced(workload, seconds: float) -> tuple[Outcomes, dict]:
    env = child_env()
    import_only(env)  # warm the bytecode cache
    setup_times: list[float] = []
    outcomes = Outcomes()
    out_dir = WORK / "out" / workload.name
    stdout_path = WORK / "job.stdout"

    def run_one(job):
        fresh_dir(out_dir)
        code, wall, cpu, rss = spawn(CLI, job_argv(job, out_dir), stdout_path, env)
        stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
        outcomes.record(job, code, out_dir, stdout, wall=wall, cpu=cpu, rss=rss, rows=job.rows)

    closed_loop(workload, seconds, MIN_ROUNDS, run_one,
                lambda: setup_times.extend(import_only(env) for _ in range(SETUP_PER_ROUND)))
    while len(setup_times) < SETUP_MIN_SAMPLES:
        setup_times.append(import_only(env))
    job_s = outcomes.per_job("wall")
    metrics = {
        "job_s": (job_s, "s"),
        "rows_per_s": (outcomes.per_job("rows") / job_s, "rows/s"),
        "cpu_s": (outcomes.per_job("cpu"), "s"),
        "peak_rss_mb": (outcomes.per_job("rss"), "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return outcomes, metrics


def load_riskeval() -> dict:
    sys.path.insert(0, str(SRC))
    import riskeval.cli  # noqa: F401  (imports every module below)

    if not Path(riskeval.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"riskeval imported from {riskeval.cli.__file__}, not {SRC}")
    return {name: sys.modules[f"riskeval.{name}"]
            for name in ("cli", "ingestion", "tables", "comparison", "metrics",
                         "distributions", "synthetic")}


def run_traced(workload, seconds: float) -> tuple[Outcomes, dict]:
    """In-process jobs, alternately untraced and traced, for per-layer metrics."""
    modules = load_riskeval()
    tracer = Tracer(modules)
    outcomes = Outcomes()
    untraced: dict[str, list[float]] = {}
    out_dir = WORK / "out" / workload.name
    job_ids = iter(range(1, 1 << 30))

    def main(argv) -> int:
        # A crash inside the program is a failed job, as it is for a child.
        try:
            return modules["cli"].main(argv)
        except Exception:
            traceback.print_exc()
            return 1

    def in_process(job, traced: bool):
        fresh_dir(out_dir)
        gc.collect()
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            if traced:
                tracer.install()
                try:
                    job_id = next(job_ids)
                    code, wall = tracer.run_job(job_id, main, job_argv(job, out_dir))
                finally:
                    tracer.uninstall()
            else:
                t0 = time.perf_counter()
                code = main(job_argv(job, out_dir))
                wall = time.perf_counter() - t0
        if not traced:
            untraced.setdefault(job.kind, []).append(wall)
            return
        totals = tracer.layer_totals(job_id)
        outcomes.record(job, code, out_dir, captured.getvalue(), wall=wall, totals=totals)
        covered = sum(t["self_s"] for t in totals.values())
        if abs(covered - wall) > 1e-3 + 0.01 * wall:
            outcomes.problems.append(
                f"{job.kind}: layer self times sum to {covered:.6f} s, "
                f"traced job took {wall:.6f} s")

    def run_one(job):
        in_process(job, traced=False)
        in_process(job, traced=True)

    closed_loop(workload, seconds, 1, run_one)
    metrics = {}
    for name, counts in LAYERS.items():
        for key in ("self_s", "calls", "errors") + counts:
            per_kind = [statistics.median(m["totals"][name][key] for m in ms)
                        for ms in outcomes.by_kind.values()]
            metrics[f"{name}.{key}"] = (statistics.fmean(per_kind), UNITS[key])
    traced_s = outcomes.per_job("wall")
    untraced_s = statistics.fmean(statistics.median(ts) for ts in untraced.values())
    metrics["trace.job_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    spans_path = WORK / "spans" / f"{workload.name}-seed{workload.seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in tracer.records())
    return outcomes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "riskeval" / "cli.py").is_file():
        print(f"error: no riskeval source tree at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    workload = workloads.make_workload(args.workload, args.seed, WORK / "inputs", SRC)
    run = run_traced if args.trace else run_untraced
    outcomes, metrics = run(workload, args.seconds)
    for problem in outcomes.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    info = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": args.trace,
        "inputs": workload.inputs,
        "job_wall_s": {kind: [round(m["wall"], 4) for m in ms]
                       for kind, ms in outcomes.by_kind.items()},
        "output_sha256": outcomes.hashes,
        "failed_ratio": outcomes.failed / outcomes.attempted,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
    }
    print(f"workload {workload.name}, seed {workload.seed}, "
          f"{'traced in process' if args.trace else 'CLI child processes'}: "
          f"{outcomes.attempted} jobs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(f"  {'failed_ratio':<40} {info['failed_ratio']:.6g} fraction")
    print("info " + json.dumps(info, sort_keys=True))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        print("error: reported metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    result = {
        "correct": not outcomes.problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
