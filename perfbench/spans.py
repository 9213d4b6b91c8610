"""In-memory spans around the public functions of each autoscale module.

``instrument(tracer)`` wraps the functions named in ``TARGETS`` wherever
they are reachable: in the defining module and under every name another
autoscale module imported them as (``scheduler.metric_record``,
``cli.run_autoscale`` ...), so calls made through those names are traced.
Problem objects are wrapped through a proxy returned by ``build_problem``,
and ``WeightVector`` construction through its ``__init__``.  Nothing under
``src/`` changes; leaving the context restores every original object.

A span is ``(name, start, end, parent, note)``, where ``parent`` is the
index of the enclosing span (-1 for a root) and ``note`` holds what a
layer metric needs from the call's arguments or result.  The layer of a
span is the part of its name before the first dot.
"""
from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("bench", "core", "metrics", "costs", "solver", "scheduler",
          "traceio", "evaluation", "cli")


def _rows(args, kwargs, result):
    return int(result.shape[0])


def _solver_report(args, kwargs, result):
    return (int(result.iterations), bool(result.converged))


def _trace_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


#: (module, attribute, span name, note) for every wrapped function: the
#: functions the per-layer metrics name, plus the callers that keep each
#: layer's self time in its own module (problem constructors in ``bench``,
#: ``read_trace`` so that ``cli.analyze`` keeps only the CSV writing).  The
#: three ``run_*`` entry points of the scheduler share one span name.
TARGETS = (
    ("bench", "run_stl_baselines", "bench.run_stl_baselines", None),
    ("bench", "imbalanced_reference_problem", "bench.imbalanced_reference_problem", None),
    ("bench", "make_mlp_problem", "bench.make_mlp_problem", None),
    ("bench", "sample_weight_sets", "bench.sample_weight_sets", None),
    ("core", "snapshot_from_gradients", "core.snapshot_from_gradients", None),
    ("metrics", "metric_record", "metrics.metric_record", None),
    ("costs", "window_cost", "costs.window_cost", None),
    ("costs", "quadratic_form", "costs.quadratic_form", None),
    ("solver", "solve_general", "solver.solve_general", _solver_report),
    ("solver", "solve_quadratic", "solver.solve_quadratic", None),
    ("solver", "project_feasible", "solver.project_feasible", None),
    ("scheduler", "run_autoscale", "scheduler.run", None),
    ("scheduler", "run_fixed_scalarization", "scheduler.run", None),
    ("scheduler", "run_weight_schedule", "scheduler.run", None),
    ("traceio", "serialize_trace_line", "traceio.serialize_trace_line", None),
    ("traceio", "parse_trace_line", "traceio.parse_trace_line", None),
    ("traceio", "write_trace", "traceio.write_trace", _trace_bytes),
    ("traceio", "read_trace", "traceio.read_trace", None),
    ("evaluation", "delta_m", "evaluation.delta_m", None),
    ("evaluation", "delta_m_deg", "evaluation.delta_m_deg", None),
    ("evaluation", "spearman_correlation", "evaluation.spearman_correlation", None),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_analyze", "cli.analyze", None),
    ("cli", "execute_run", "cli.execute_run", None),
)


class Tracer:
    """Collects spans in memory; one tracer per traced workload execution."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if note is not None:
                spans[index] = (name, start, end, parent, note(args, kwargs, result))
            return result

        return traced


class TracedProblem:
    """Problem proxy whose loss and gradient methods are traced."""

    def __init__(self, problem, tracer: Tracer) -> None:
        self._problem = problem
        self.task_losses = tracer.wrap("bench.task_losses", problem.task_losses)
        self.task_gradients = tracer.wrap("bench.task_gradients",
                                          problem.task_gradients, _rows)

    def __getattr__(self, name):
        return getattr(self._problem, name)


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "autoscale" or n.startswith("autoscale."))]


def _replace_everywhere(original, replacement, patches: list) -> None:
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, original))
                setattr(module, attr, replacement)


@contextmanager
def instrument(tracer: Tracer):
    """Trace every target while the context is open; restore on exit."""
    import autoscale.cli
    import autoscale.core

    patches: list = []
    try:
        for module_name, attr, span_name, note in TARGETS:
            original = getattr(sys.modules[f"autoscale.{module_name}"], attr)
            _replace_everywhere(original, tracer.wrap(span_name, original, note),
                                patches)

        build_problem = autoscale.cli.build_problem
        traced_build = tracer.wrap("cli.build_problem", build_problem)
        _replace_everywhere(
            build_problem,
            lambda cfg: TracedProblem(traced_build(cfg), tracer), patches)

        weight_vector = autoscale.core.WeightVector
        init = weight_vector.__dict__["__init__"]
        patches.append((weight_vector, "__init__", init))
        weight_vector.__init__ = tracer.wrap("core.WeightVector", init)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(spans, joint_iters: int, stl_steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload execution."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    wall = 0.0
    in_stl: list[bool] = []
    stl_rows = 0
    solves = []
    bytes_written = 0
    for (name, start, end, parent, note), own in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
        layer_self[name.split(".", 1)[0]] += own
        if parent < 0:
            wall += end - start
        inside = name == "bench.run_stl_baselines" or (parent >= 0 and in_stl[parent])
        in_stl.append(inside)
        if name == "bench.task_gradients" and inside:
            stl_rows += note
        elif name == "solver.solve_general":
            solves.append((*note, end - start))
        elif name == "traceio.write_trace":
            bytes_written += note

    def per_call(name: str, scale: float) -> float:
        return total_s[name] / calls[name] * scale if calls[name] else 0.0

    m: dict[str, float] = {}
    for name in ("bench.task_gradients", "core.snapshot_from_gradients",
                 "metrics.metric_record", "costs.window_cost"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.us_per_call"] = per_call(name, 1e6)
    m["bench.task_losses.self_s"] = self_s["bench.task_losses"]
    m["bench.run_stl_baselines.s"] = total_s["bench.run_stl_baselines"]
    m["bench.stl.useful_grad_frac"] = stl_steps / stl_rows if stl_rows else 0.0
    m["core.WeightVector.calls"] = calls["core.WeightVector"]
    for name in ("costs.quadratic_form", "solver.project_feasible",
                 "solver.solve_quadratic", "solver.solve_general"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    stalls = [d for _, _, d in solves]
    m["solver.solve_general.ms_p50"] = _percentile_ms(stalls, 50)
    m["solver.solve_general.ms_p90"] = _percentile_ms(stalls, 90)
    m["solver.evals_per_solve"] = (
        sum(e for e, _, _ in solves) / len(solves) if solves else 0.0)
    m["solver.converged_frac"] = (
        sum(c for _, c, _ in solves) / len(solves) if solves else 0.0)
    m["scheduler.run.self_s"] = self_s["scheduler.run"]
    m["scheduler.self_us_per_iter"] = (
        self_s["scheduler.run"] / joint_iters * 1e6 if joint_iters else 0.0)
    for name in ("traceio.serialize_trace_line", "traceio.parse_trace_line"):
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.us_per_line"] = per_call(name, 1e6)
    m["traceio.write_trace.self_s"] = self_s["traceio.write_trace"]
    m["traceio.bytes_written"] = bytes_written
    m["evaluation.self_s"] = layer_self["evaluation"]
    m["cli.execute_run.self_s"] = self_s["cli.execute_run"]
    m["cli.analyze.self_s"] = self_s["cli.analyze"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_frac"] = layer_self[layer] / wall if wall else 0.0
    m["trace.wall_s"] = wall
    return m


#: Per-layer metrics that are counts: they must repeat exactly.
EXACT_METRICS = tuple(
    [f"{n}.calls" for n in (
        "bench.task_gradients", "core.snapshot_from_gradients", "core.WeightVector",
        "metrics.metric_record", "costs.window_cost", "costs.quadratic_form",
        "solver.solve_general", "solver.project_feasible", "solver.solve_quadratic")]
    + ["solver.evals_per_solve", "solver.converged_frac",
       "bench.stl.useful_grad_frac", "traceio.bytes_written"])
