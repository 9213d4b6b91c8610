"""Benchmark runner for the autoscale package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: each workload's commands run
through the ``autoscale`` command line (``python3 -m autoscale.cli`` with
``src`` on the path) in child processes, closed loop, one command at a time,
until ``--seconds`` have passed.  ``--trace 1`` runs the same commands in
this process, alternating plain and traced executions, and reports the
per-layer metrics and the tracing overhead.  Every output is checked; the
last line of standard output is the JSON result.  The full record (samples,
output digests, environment) is appended to ``--record``.
"""
from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

from workloads import (WORKLOADS, Workload, analyze_outputs, check_analysis,
                       check_traces, digests, main_outputs, read_delta_m)

#: Set for every child, and here before numpy is first imported.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: Sets every end-to-end run makes, however long they take; the second
#: one checks that outputs repeat byte for byte.
MIN_SETS = 2

#: A command that runs longer than this is killed and counts as failed.
COMMAND_TIMEOUT_S = 100

SETUP_SCRIPT = """\
import sys
import autoscale.cli as cli
cli.build_problem(cli._merge_config(cli.build_parser().parse_args(sys.argv[1:])))
"""


#: personality(2) flag that turns off address-space randomisation.
ADDR_NO_RANDOMIZE = 0x0040000


def pin_address_space() -> bool:
    """Turn off address-space randomisation for the programs this process
    executes from now on; other processes are not affected.  With it on, the
    peak RSS of one command varies by about 0.1 MB from spawn to spawn,
    as much as some workloads' ``peak_rss_mb``.  True if it took effect."""
    import ctypes
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    return current != -1 and libc.personality(current | ADDR_NO_RANDOMIZE) != -1


def jobs() -> int:
    return min(2, os.cpu_count() or 1)


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "pinned_env": PINNED_ENV,
        "sweep_jobs": jobs(),
    }


def reset(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


class Outcome:
    """Commands attempted and failed, and the reason for every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        """Count one command; True if it passed.  Failures are not retried."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.fail(f"{label}: " + "; ".join(problems))
        return not problems

    def fail(self, reason: str) -> None:
        """A failure of the whole run rather than of one command."""
        self.failures.append(reason)
        print(f"FAILED {reason}", file=sys.stderr)


class OutputChecker:
    """Checks each command's outputs and requires byte-identical repeats.

    The first passing execution of a command is checked in full and its
    output digests become the reference; every later execution must match
    them byte for byte (a mismatch is re-checked in full for the reason).
    """

    def __init__(self, workload: Workload, out: str) -> None:
        self.workload = workload
        self.out = out
        self.reference: dict[str, dict[str, str]] = {}
        self.delta_m: float | None = None

    def _full_check(self, role: str) -> list[str]:
        if role == "main":
            delta_m, problems = read_delta_m(self.workload, self.out)
            problems += check_traces(self.workload, self.out)
            if not problems:
                self.delta_m = delta_m
            return problems
        return check_analysis(self.workload, self.out)

    def check(self, role: str) -> list[str]:
        paths = (main_outputs if role == "main" else analyze_outputs)(self.workload, self.out)
        found = digests(paths, self.out)
        ref = self.reference.get(role)
        if ref is not None and found == ref:
            return []
        problems = self._full_check(role)
        if ref is None and not problems:
            self.reference[role] = found
        elif ref is not None:
            problems.append("outputs differ from the first passing run at this seed")
        return problems


# ---------------------------------------------------------------------------
# end-to-end: child processes
# ---------------------------------------------------------------------------

def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["AUTOSCALE_LOG"] = "WARNING"
    return env


#: Starts each command and reports its wall seconds, exit code and peak RSS
#: in KiB, one JSON line per command read from stdin.  A child's ru_maxrss
#: also counts the RSS of the process that started it (the kernel carries
#: the parent's high-water mark across fork and exec), so commands are
#: started from this small process and not from the benchmark, whose RSS
#: grows past theirs as it checks outputs.
LAUNCHER = """\
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    argv, log, timeout = json.loads(line)
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
    print(json.dumps([wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss]), flush=True)
"""


class Launcher:
    """The launcher process.  ``close`` stops it, and with it a command still
    running, and waits for both."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)

    def spawn(self, argv: list[str], log: str) -> tuple[float, int, float, str]:
        """Run one child to completion: wall seconds, exit code, peak RSS (MB)
        of it and its waited-for children, and the tail of its output.  A
        child still running after ``COMMAND_TIMEOUT_S`` is killed and so
        fails."""
        self.proc.stdin.write(json.dumps([[sys.executable, *argv], log,
                                          COMMAND_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        wall, code, maxrss_kib = json.loads(self.proc.stdout.readline())
        with open(log, "rb") as fh:
            tail = fh.read()[-400:].decode("utf-8", "replace").strip()
        return wall, code, maxrss_kib / 1024.0, tail

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=1)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            deadline = time.monotonic() + 5
            with contextlib.suppress(ProcessLookupError):
                while time.monotonic() < deadline:
                    os.killpg(self.proc.pid, 0)   # until the group's last member is gone
                    time.sleep(0.05)
        self.proc.stdout.close()


def run_e2e(workload: Workload, seed: int, seconds: float, root: str,
            work: str) -> tuple[Outcome, dict, dict]:
    """Closed loop of sets until ``seconds`` have passed.  A set is one
    set-up spawn, the main command and analyze.  Speed on a shared VM drifts
    over tens of seconds, so set-up is sampled in every set rather than all
    at the start, and the rates are total work over total time, which varies
    less from run to run than the median of per-set rates."""
    launcher = Launcher(child_env(root))
    try:
        return _run_sets(launcher, workload, seed, seconds, work)
    finally:
        launcher.close()


def _run_sets(launcher: Launcher, workload: Workload, seed: int, seconds: float,
              work: str) -> tuple[Outcome, dict, dict]:
    outcome = Outcome()
    out = os.path.join(work, "out")
    log = os.path.join(work, "child.log")
    main_argv = workload.main_argv(seed, out, jobs())
    setup_argv = ["-c", SETUP_SCRIPT, *main_argv]
    commands = (("main", ["-m", "autoscale.cli", *main_argv]),
                ("analyze", ["-m", "autoscale.cli", *workload.analyze_argv(out)]))

    def set_up(label: str) -> tuple[float, float] | None:
        wall, code, peak, tail = launcher.spawn(setup_argv, log)
        ok = outcome.record(label, [f"exit {code}: {tail}"] if code else [])
        return (wall, peak) if ok else None

    set_up("warm-up set-up")
    checker = OutputChecker(workload, out)
    samples = {"setup_s": [], "setup_rss_mb": [], "main_s": [], "analyze_s": [],
               "command_rss_mb": []}
    deadline = time.perf_counter() + seconds
    sets = 0
    while sets < MIN_SETS or time.perf_counter() < deadline:
        setup = set_up(f"set {sets} set-up")
        if setup is not None:
            samples["setup_s"].append(setup[0])
            samples["setup_rss_mb"].append(setup[1])
        reset(out)
        walls, rss = {}, []
        for role, argv in commands:
            wall, code, peak, tail = launcher.spawn(argv, log)
            problems = [f"exit {code}: {tail}"] if code else checker.check(role)
            if outcome.record(f"set {sets} {role}", problems):
                walls[role] = wall
                rss.append(peak)
        if len(walls) == 2:
            samples["main_s"].append(walls["main"])
            samples["analyze_s"].append(walls["analyze"])
            samples["command_rss_mb"].append(max(rss))
        sets += 1

    ok_sets = len(samples["main_s"])
    metrics = {
        "iters_per_s": workload.steps * ok_sets / sum(samples["main_s"]) if ok_sets else 0.0,
        "analyze_lines_per_s": (workload.trace_lines * ok_sets / sum(samples["analyze_s"])
                                if ok_sets else 0.0),
        # The interpreter, numpy and the built problem are about 38 MB of
        # every child; only the memory the commands add beyond the set-up
        # child's peak can show a change in what a run keeps.  Means, not
        # medians: the sweep's peak has two modes 0.15 MB apart, depending
        # on how the pool's workers share out the members.
        "peak_rss_mb": (statistics.fmean(samples["command_rss_mb"])
                        - statistics.fmean(samples["setup_rss_mb"])
                        if ok_sets and samples["setup_rss_mb"] else 0.0),
        "setup_s": statistics.median(samples["setup_s"]) if samples["setup_s"] else 0.0,
    }
    detail = {"sets": sets, "samples": samples, "digests": checker.reference,
              "delta_m_pct": checker.delta_m}
    return outcome, metrics, detail


# ---------------------------------------------------------------------------
# traced: in-process
# ---------------------------------------------------------------------------

def run_traced(workload: Workload, seed: int, seconds: float, root: str,
               work: str) -> tuple[Outcome, dict, dict]:
    import autoscale.cli as cli
    from spans import EXACT_METRICS, Tracer, instrument, layer_metrics

    outcome = Outcome()
    out = os.path.join(work, "out")
    checker = OutputChecker(workload, out)
    argvs = (("main", workload.main_argv(seed, out, 1)),
             ("analyze", workload.analyze_argv(out)))
    walls = {False: [], True: []}
    reps: list[dict] = []
    last_spans: list = []
    deadline = time.perf_counter() + seconds
    rep = 0
    while True:
        traced = rep % 2 == 1
        tracer = Tracer()
        reset(out)
        errors = {}
        start = time.perf_counter()
        with instrument(tracer) if traced else contextlib.nullcontext():
            for role, argv in argvs:
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(argv)
                except Exception:   # a crash is one failed command; keep measuring
                    errors[role] = [traceback.format_exc(limit=3)]
                else:
                    errors[role] = [f"exit {code}"] if code else []
        wall = time.perf_counter() - start
        ok = True
        for role, problems in errors.items():
            label = f"rep {rep} {role}{' traced' if traced else ''}"
            ok = outcome.record(label, problems or checker.check(role)) and ok
        if ok:
            walls[traced].append(wall)
            if traced:
                reps.append(layer_metrics(tracer.spans, workload.trace_lines,
                                          workload.stl_steps))
                last_spans = tracer.spans
        rep += 1
        if rep >= 2 and time.perf_counter() >= deadline:
            break

    metrics: dict[str, float] = {}
    if reps:
        metrics = {name: statistics.median(r[name] for r in reps) for name in reps[0]}
        for name in EXACT_METRICS:
            values = {r[name] for r in reps}
            if len(values) > 1:
                outcome.fail(f"{name} differs between executions: {values}")
    plain = statistics.median(walls[False]) if walls[False] else 0.0
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - plain if reps and plain else 0.0
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain if plain else 0.0
    metrics["evaluation.delta_m_pct"] = checker.delta_m if checker.delta_m is not None else 0.0

    spans_path = os.path.join(root, ".perfbench", f"spans-{workload.name}-s{seed}.jsonl.gz")
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        for span in last_spans:
            fh.write(json.dumps(span) + "\n")
    detail = {"reps": rep, "plain_wall_s": walls[False], "traced_wall_s": walls[True],
              "digests": checker.reference, "delta_m_pct": checker.delta_m,
              "spans_file": os.path.relpath(spans_path, root)}
    return outcome, metrics, detail


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=os.path.join(".perfbench", "results.jsonl"),
                        help="append the full result record to this JSONL file")
    args = parser.parse_args(argv)

    root = os.getcwd()
    package = os.path.join(root, "src", "autoscale", "cli.py")
    if not os.path.isfile(package):
        print(f"error: {package} not found; run from the root of an autoscale "
              "checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, os.path.join(root, "src"))
    import autoscale
    if not os.path.abspath(autoscale.__file__).startswith(os.path.join(root, "src")):
        print(f"error: imported autoscale from {autoscale.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    spec = load_spec(root)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    workload = WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench", f"work-{workload.name}-{os.getpid()}")
    os.makedirs(work)
    env = environment()
    env["children_without_aslr"] = pin_address_space()
    env["loadavg_before"] = os.getloadavg()
    try:
        runner = run_traced if args.trace else run_e2e
        outcome, values, detail = runner(workload, args.seed, args.seconds, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    missing = set(units) - set(values)
    if missing:
        outcome.fail(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": not outcome.failures, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "time": time.time(), "env": env,
              "failures": outcome.failures, **detail, "result": result}
    if args.record:
        os.makedirs(os.path.dirname(os.path.abspath(args.record)), exist_ok=True)
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{outcome.attempted} commands, {outcome.failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
