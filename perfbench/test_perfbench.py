"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench``."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import autoscale.cli as cli  # noqa: E402
from compare import compare_metric  # noqa: E402
from run import Launcher, Outcome, OutputChecker  # noqa: E402
from spans import Tracer, instrument, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 3.0, 0, None),
        ("b", 2.0, 5.0, 0, None),     # overlaps a: [1, 5] is covered once
        ("c", 9.0, 12.0, 0, None),    # runs past its parent: only [9, 10] counts
        ("a.1", 1.5, 2.5, 1, None),   # a grandchild leaves the root untouched
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_layer_metrics_from_synthetic_spans():
    spans = [
        ("cli.main", 0.0, 10.0, -1, None),
        ("bench.run_stl_baselines", 1.0, 4.0, 0, None),
        ("bench.task_gradients", 1.0, 2.0, 1, 4),
        ("bench.task_gradients", 2.0, 3.0, 1, 4),
        ("bench.task_gradients", 5.0, 6.0, 0, 4),      # joint step, not STL
        ("solver.solve_general", 6.0, 8.0, 0, (100, True)),
        ("solver.solve_general", 8.0, 9.0, 0, (300, False)),
    ]
    m = layer_metrics(spans, joint_iters=1, stl_steps=2)
    assert m["bench.task_gradients.calls"] == 3
    assert m["bench.stl.useful_grad_frac"] == 2 / 8
    assert m["bench.run_stl_baselines.s"] == 3.0
    assert m["solver.evals_per_solve"] == 200
    assert m["solver.converged_frac"] == 0.5
    assert m["layer.bench.self_frac"] == pytest.approx(0.4)
    assert m["layer.cli.self_frac"] == pytest.approx(0.3)
    assert m["trace.wall_s"] == 10.0


def _package_attributes() -> dict:
    import autoscale.core
    found = {(name, attr): value for name, module in sys.modules.items()
             if name == "autoscale" or name.startswith("autoscale.")
             for attr, value in vars(module).items()}
    found[("WeightVector", "__init__")] = autoscale.core.WeightVector.__dict__["__init__"]
    return found


def test_every_wrapper_restores_the_original(tmp_path):
    import autoscale.metrics
    import autoscale.scheduler

    before = _package_attributes()
    tracer = Tracer()
    argv = ["run", "--method", "autoscale", "--problem", "reference", "--cost", "low-cond",
            "--total-iters", "100", "--exploration-ratio", "0.5", "--aggregation-size", "1",
            "--trace", str(tmp_path / "t.jsonl")]
    with pytest.raises(RuntimeError):
        with instrument(tracer):
            assert autoscale.scheduler.metric_record is not before[("autoscale.metrics",
                                                                    "metric_record")]
            assert cli.main(argv) == 0
            raise RuntimeError("leave the context by an exception")
    assert _package_attributes() == before
    assert autoscale.scheduler.metric_record is autoscale.metrics.metric_record

    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "scheduler.run", "bench.task_gradients", "core.WeightVector",
            "metrics.metric_record", "costs.window_cost", "solver.solve_general",
            "traceio.serialize_trace_line"} <= names
    index = {span[0]: i for i, span in enumerate(tracer.spans)}
    run_span = tracer.spans[index["scheduler.run"]]
    assert tracer.spans[run_span[3]][0] == "cli.execute_run"


def _small_run(out) -> Workload:
    workload = Workload(name="small", main="run", k=3, total_iters=30,
                        flags=("--method", "fixed", "--weights", "0.5,1,1.5",
                               "--problem", "reference", "--total-iters", "30"))
    os.makedirs(out, exist_ok=True)
    assert cli.main(workload.main_argv(0, str(out), 1)) == 0
    return workload


def test_truncated_trace_line_fails_the_command(tmp_path):
    workload = _small_run(tmp_path)
    checker = OutputChecker(workload, str(tmp_path))
    outcome = Outcome()
    assert outcome.record("first", checker.check("main"))

    path = workload.trace_paths(str(tmp_path))[0]
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[:-40] + "\n")
    assert not outcome.record("truncated", checker.check("main"))
    assert outcome.attempted == 2 and outcome.failed == 1
    assert "line 30" in outcome.failures[0]
    assert "differ from the first passing run" in outcome.failures[0]


def test_launcher_reports_the_command_peak_rss_not_the_benchmark_one(tmp_path):
    ballast = b"x" * (64 << 20)   # lifts this process's RSS above the command's
    direct = subprocess.Popen([sys.executable, "-c", "pass"])
    _, _, usage = os.wait4(direct.pid, 0)
    assert usage.ru_maxrss / 1024 > 64   # the reason for the launcher

    launcher = Launcher(dict(os.environ))
    try:
        wall, code, peak_mb, _ = launcher.spawn(["-c", "pass"], str(tmp_path / "log"))
        assert launcher.spawn(["-c", "raise SystemExit(3)"], str(tmp_path / "log"))[1] == 3
    finally:
        launcher.close()
    assert code == 0 and 0 < wall < 60 and peak_mb < 64
    assert launcher.proc.returncode == 0
    del ballast


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref-lowcond", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    values = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 101.5, 98.5, 99.5, 100.0]
    base = {s: [{"x": v}] for s, v in enumerate(values)}
    same = {s: [{"x": v + 0.5}] for s, v in enumerate(values)}
    slow = {s: [{"x": v * 0.7}] for s, v in enumerate(values)}
    ok = compare_metric(base, same, "x", higher=True, bound=0.1)
    assert ok["verdict"] == "ok" and ok["won"] == 1.0 and not ok["gain"]
    bad = compare_metric(base, slow, "x", higher=True, bound=0.1)
    assert bad["verdict"] == "REGRESSED" and bad["won"] == 0.0
    fast = compare_metric(slow, base, "x", higher=True, bound=0.1)
    assert fast["verdict"] == "ok" and fast["gain"]
    few = compare_metric({0: slow[0]}, {0: base[0]}, "x", higher=True, bound=0.1)
    assert few["won"] == 1.0 and not few["gain"]

    wide = {s: [{"x": v}] for s, v in enumerate([60.0, 140.0] * 5)}
    near = {s: [{"x": v * 1.02}] for s, v in enumerate([60.0, 140.0] * 5)}
    assert compare_metric(wide, same, "x", higher=True, bound=0.1)["verdict"] == "unresolved"
    assert compare_metric(wide, near, "x", higher=True, bound=0.1)["verdict"] == "unresolved"
    above = {s: [{"x": 200.0 + s}] for s in range(10)}
    assert compare_metric(wide, above, "x", higher=True, bound=0.1)["verdict"] == "ok"


def test_compare_counts_repeat_per_seed():
    base = {1: [{"costs.window_cost.calls": 1940}], 2: [{"costs.window_cost.calls": 2013}]}
    again = {1: [{"costs.window_cost.calls": 1940}], 2: [{"costs.window_cost.calls": 2013}]}
    moved = {1: [{"costs.window_cost.calls": 1940}], 2: [{"costs.window_cost.calls": 2012}]}
    name = "costs.window_cost.calls"
    assert compare_metric(base, again, name, higher=False, bound=None)["verdict"] == "same"
    assert compare_metric(base, moved, name, higher=False, bound=None)["verdict"] == "differs"


def test_benchmark_json_names_every_workload_and_metric_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    spans = [("cli.main", 0.0, 1.0, -1, None)]
    reported = set(layer_metrics(spans, 1, 0)) | {
        "trace.overhead_s", "trace.overhead_frac", "evaluation.delta_m_pct"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert {m["name"] for m in spec["end_to_end"]} == {
        "iters_per_s", "analyze_lines_per_s", "peak_rss_mb", "setup_s"}
