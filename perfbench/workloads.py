"""Workload definitions and output checks for the autoscale benchmark.

A workload is a fixed pair of ``autoscale`` commands: a main command
(``run`` or ``sweep``) that trains and writes traces, then ``analyze`` over
the traces it wrote.  Only the seed varies between runs of one workload.
Run lengths are fixed here and never re-picked to hide a regression.

Every output is checked: traces must re-parse strictly with the expected
line count, summary weights must be feasible and ``delta_m`` finite, and
analyze must emit one row per trace line.  The SHA-256 of every output file
is returned so the caller can require byte-identical repeats at one seed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

#: Feasible-weight constraints the summaries must satisfy (w_i >= floor,
#: sum(w) == K within the tolerance).
WEIGHT_FLOOR = 1e-4
WEIGHT_SUM_TOL = 1e-8

SWEEP_MEMBERS = 19


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its fixed flags and derived work counts."""

    name: str
    main: str                  # "run" or "sweep"
    flags: tuple[str, ...]     # flags other than seed, jobs and outputs
    k: int
    total_iters: int           # joint descent steps per trace
    baseline_iters: int = 0    # single-task steps per task (mlp only)

    @property
    def members(self) -> int:
        return SWEEP_MEMBERS if self.main == "sweep" else 1

    @property
    def trace_lines(self) -> int:
        return self.members * self.total_iters

    @property
    def stl_steps(self) -> int:
        return self.k * self.baseline_iters

    @property
    def steps(self) -> int:
        """Descent steps per main command: joint plus single-task steps."""
        return self.trace_lines + self.stl_steps

    def trace_paths(self, out: str) -> list[str]:
        if self.main == "sweep":
            return [os.path.join(out, "sweep", f"sweep-{i:03d}.jsonl")
                    for i in range(SWEEP_MEMBERS)]
        return [os.path.join(out, "run.jsonl")]

    def summary_path(self, out: str) -> str:
        if self.main == "sweep":
            return os.path.join(out, "sweep", "sweep_summary.csv")
        return os.path.join(out, "run.json")

    def main_argv(self, seed: int, out: str, jobs: int) -> list[str]:
        argv = [self.main, *self.flags, "--seed", str(seed)]
        if self.main == "sweep":
            argv += ["--jobs", str(jobs), "--write-traces",
                     "--out-dir", os.path.join(out, "sweep")]
        else:
            # The run id names analyze's trajectory CSV: run_trajectory.csv.
            argv += ["--run-id", "run", "--trace", self.trace_paths(out)[0],
                     "--summary", self.summary_path(out)]
        return argv

    def analyze_argv(self, out: str) -> list[str]:
        argv = ["analyze", "--traces", *self.trace_paths(out),
                "--out-dir", os.path.join(out, "analysis")]
        if self.main == "sweep":
            argv += ["--summary", self.summary_path(out)]
        return argv


#: Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="ref-lowcond",
        main="run",
        flags=("--method", "autoscale", "--problem", "reference",
               "--cost", "low-cond", "--total-iters", "250",
               "--exploration-ratio", "0.4", "--window-size", "50",
               "--aggregation-size", "2"),
        k=3, total_iters=250),
    Workload(
        name="ref-sweep-trace",
        main="sweep",
        flags=("--problem", "reference", "--total-iters", "500",
               "--n", str(SWEEP_MEMBERS), "--scheme", "dirichlet-uniform"),
        k=3, total_iters=500),
    Workload(
        name="mlp-k8",
        main="run",
        # The default step size, 0.2, diverges at K=8.
        flags=("--method", "autoscale", "--problem", "mlp", "--k", "8",
               "--step-size", "0.05", "--cost", "equal-grad-norm",
               "--total-iters", "500", "--exploration-ratio", "0.2",
               "--window-size", "50", "--aggregation-size", "2",
               "--baseline-iters", "300"),
        k=8, total_iters=500, baseline_iters=300),
)}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(paths: list[str], out: str) -> dict[str, str]:
    """SHA-256 of each existing path, keyed by its path below ``out``."""
    return {os.path.relpath(p, out): sha256_file(p)
            for p in paths if os.path.isfile(p)}


def main_outputs(workload: Workload, out: str) -> list[str]:
    return workload.trace_paths(out) + [workload.summary_path(out)]


def analyze_outputs(workload: Workload, out: str) -> list[str]:
    adir = os.path.join(out, "analysis")
    names = [f"{os.path.splitext(os.path.basename(p))[0]}_trajectory.csv"
             for p in workload.trace_paths(out)]
    names.append("aggregates.csv")
    if workload.main == "sweep":
        names.append("correlations.csv")
    return [os.path.join(adir, n) for n in names]


def _check_weights(weights, k: int, where: str) -> list[str]:
    if weights is None or len(weights) != k:
        return [f"{where}: expected {k} weights, got {weights!r}"]
    w = [float(v) for v in weights]
    problems = []
    if not all(math.isfinite(v) and v >= WEIGHT_FLOOR for v in w):
        problems.append(f"{where}: weights below floor {WEIGHT_FLOOR}: {w}")
    if abs(sum(w) - k) > WEIGHT_SUM_TOL:
        problems.append(f"{where}: weights sum to {sum(w)!r}, not {k}")
    return problems


def check_traces(workload: Workload, out: str) -> list[str]:
    """Each trace re-parses strictly and holds exactly one line per step."""
    from autoscale.traceio import read_trace

    problems = []
    for path in workload.trace_paths(out):
        name = os.path.relpath(path, out)
        if not os.path.isfile(path):
            problems.append(f"{name}: missing")
            continue
        try:
            lines = read_trace(path)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if len(lines) != workload.total_iters:
            problems.append(f"{name}: {len(lines)} lines, "
                            f"expected {workload.total_iters}")
        elif [line.iter for line in lines] != list(range(workload.total_iters)):
            problems.append(f"{name}: iterations are not 0..{workload.total_iters - 1}")
    return problems


def read_delta_m(workload: Workload, out: str) -> tuple[float | None, list[str]]:
    """Check the summary; return its ``delta_m`` (member mean for a sweep)."""
    path = workload.summary_path(out)
    if not os.path.isfile(path):
        return None, [f"{os.path.relpath(path, out)}: missing"]
    problems = []
    if workload.main == "sweep":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != workload.members:
            problems.append(f"sweep summary: {len(rows)} rows, "
                            f"expected {workload.members}")
        values = []
        for row in rows:
            where = f"sweep summary {row.get('run_id')}"
            problems += _check_weights(
                [row.get(f"weight_{i}") for i in range(workload.k)], workload.k, where)
            values.append(float(row.get("delta_m") or "nan"))
    else:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        problems += _check_weights(summary.get("final_weights"), workload.k, "summary")
        values = [float(summary.get("delta_m", float("nan")))]
    if not values or not all(math.isfinite(v) for v in values):
        problems.append(f"delta_m not finite: {values}")
        return None, problems
    return sum(values) / len(values), problems


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def check_analysis(workload: Workload, out: str) -> list[str]:
    """Analyze wrote one trajectory row per trace line and one aggregate
    row per trace (and, for a sweep, one correlation row per metric)."""
    from autoscale.cli import SUMMARY_METRICS

    problems = []
    paths = analyze_outputs(workload, out)
    for path in paths:
        if not os.path.isfile(path):
            problems.append(f"{os.path.relpath(path, out)}: missing")
    if problems:
        return problems
    for path in paths[:workload.members]:
        n = len(_csv_rows(path))
        if n != workload.total_iters:
            problems.append(f"{os.path.relpath(path, out)}: {n} rows, "
                            f"expected {workload.total_iters}")
    aggregates = _csv_rows(paths[workload.members])
    if len(aggregates) != workload.members or any(
            row[3] != str(workload.total_iters) for row in aggregates):
        problems.append("aggregates.csv: wrong rows or iteration counts")
    if workload.main == "sweep" and len(_csv_rows(paths[-1])) != len(SUMMARY_METRICS):
        problems.append("correlations.csv: wrong number of rows")
    return problems
