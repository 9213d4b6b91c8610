"""Command-line shell: run experiments, sweep weights, analyze traces.

Subcommands:

* ``run``     — execute one training run and emit a trace + summary.
* ``sweep``   — N fixed-weight runs over sampled weight sets; summary CSV.
* ``analyze`` — turn traces into trajectory/aggregate CSVs, or a sweep
  summary into a metric-vs-outcome rank-correlation table.
* ``eval``    — score-file comparison table (delta_m / delta_m_deg / ranks).

Empirical single-task baselines (``mlp``) train in one worker process beside
a joint run, exact baselines and ``--method stl`` start no process, and a
sweep computes its baselines once for all members.

A JSON config file can replace the flags; explicit flags override it.  Unknown
keys are rejected and every value is checked against its ``RunConfig`` field's
type.  ``AUTOSCALE_LOG`` sets log verbosity only; it never changes results.

Exit codes: 0 on success; 1 when there is nothing to report (``analyze``
without input, or with an empty trace or summary; ``eval`` with a missing key
or empty ``methods``); 2 for invalid input or a failed command; 3 when
training diverges (a ``DivergenceError``, whose message names the iteration).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import math
import multiprocessing
import os
import sys
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import repeat
from typing import Sequence

import numpy as np

from .bench import (
    imbalanced_reference_problem,
    make_mlp_problem,
    make_quadratic_problem,
    random_loss_weighting_step,
    run_stl_baselines,
    sample_weight_sets,
)
from .core import DivergenceError, make_weight_vector, uniform_weights
from .costs import CostKind
from .evaluation import TaskScore, delta_m, delta_m_deg, mean_rank, spearman_correlation
from .scheduler import (
    AutoScaleConfig,
    TrainingRun,
    run_autoscale,
    run_fixed_scalarization,
    run_weight_schedule,
)
from .traceio import TRACE_FIELDS, config_hash, read_trace_columns, write_trace

logger = logging.getLogger(__name__)

METHODS = ("autoscale", "unitary", "fixed", "rlw", "stl")
PROBLEMS = ("quadratic", "mlp", "reference")

#: Run-mean metric columns shared by summaries, aggregates and correlations,
#: each with the per-iteration trace field it is the mean of.
_TRACE_COLUMNS = {"mean_gms": "gms_mean", "mean_gcs": "gcs_mean", "mean_cond": "cond_number",
                  "mean_ilr_std": "ilr_std", "mean_rl_std": "rl_std"}
SUMMARY_METRICS = tuple(_TRACE_COLUMNS)
#: The trace's metadata fields, which a run summary begins with.
_TRACE_META = TRACE_FIELDS[:TRACE_FIELDS.index("iter")]
#: Most sweep members one process trains in lockstep; bounds a worker's
#: memory, which would otherwise grow with ``--n``.
_SWEEP_BATCH = 10


def _finite(values) -> bool:
    """Whether ``values`` is a list or tuple of numbers, not bools, that finite doubles hold."""
    return isinstance(values, (list, tuple)) and all(
        isinstance(v, (int, float)) and type(v) is not bool and abs(v) <= sys.float_info.max
        for v in values)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part != "")


_FLOAT_LIST = "tuple[float, ...]"
#: Flag parser per setting annotation (without ``| None``); strings need none.
_PARSERS = {"int": int, "float": float, "str": None, _FLOAT_LIST: _parse_float_list}
#: Flags spelled other than ``--field-name``.
_FLAG_NAMES = {"cost_kind": "--cost", "snapshot_stride": "--stride",
               "conflict_angle_deg": "--conflict-angle"}
#: Choices and help of the flags that have them.
_FLAG_OPTIONS = {
    "method": {"choices": METHODS},
    "problem": {"choices": PROBLEMS},
    "cost_kind": {"choices": [k.value for k in CostKind]},
    "weights": {"help": "comma-separated fixed weights, e.g. 1.2,0.8"},
    "conflict_angle_deg": {"help": "pairwise gradient angle at the start, in degrees"},
}


def _plain_name(text: str) -> bool:
    """Whether ``text`` names a file inside a directory: no separator or NUL, not . or .."""
    return text not in (".", "..") and not any(c in text for c in "/\\\0")


def _kind(f) -> str:
    """A setting's annotation without ``| None``: a key of ``_PARSERS``."""
    return f.type.removesuffix(" | None")


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of a single run.

    The one place a run setting is declared: each field's annotation gives
    its ``run``/``sweep`` flag parser and the type check every value passes,
    from flags and config files alike.  ``run_id`` is derived from method and
    config hash when not given.
    """

    method: str = "autoscale"
    problem: str = "reference"
    total_iters: int = 5000
    seed: int = 0
    cost_kind: str = "equal-grad-norm"
    exploration_ratio: float = 0.2
    window_size: int = 50
    aggregation_size: int = 10
    snapshot_stride: int = 1
    weights: tuple[float, ...] | None = None
    run_id: str | None = None
    baseline_iters: int | None = None
    # quadratic-family knobs
    k: int = 3
    dim: int = 6
    scales: tuple[float, ...] | None = None
    conflict_angle_deg: float = 90.0
    offsets: tuple[float, ...] | None = None
    step_size: float | None = None
    # mlp-family knobs
    input_dim: int = 2
    width: int = 16
    n_samples: int = 64
    noise: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            name, value, kind = f.name, getattr(self, f.name), _kind(f)
            if value is None and kind != f.type:        # an optional setting left unset
                continue
            if kind == "int":
                if type(value) is not int or value < 1 and name != "seed":
                    least = "" if name == "seed" else " >= 1"
                    raise ValueError(f"{name} must be an integer{least}, got {value!r}")
            elif kind == "str":
                if type(value) is not str:
                    raise ValueError(f"{name} must be a string, got {value!r}")
            elif not _finite((value,) if kind == "float" else value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            elif kind == _FLOAT_LIST:
                object.__setattr__(self, name, tuple(float(v) for v in value))
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; expected one of {PROBLEMS}")
        CostKind.parse(self.cost_kind)
        if self.run_id is not None and not _plain_name(self.run_id):
            raise ValueError(f"run_id must be one plain file-name component, got {self.run_id!r}")
        if self.method == "fixed" and self.weights is None:
            raise ValueError("method 'fixed' needs explicit weights")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)

    def semantic_hash(self) -> str:
        payload = self.to_dict()
        payload.pop("run_id")           # identity, not semantics
        return config_hash(payload)

    def resolved_run_id(self) -> str:
        if self.run_id:
            return self.run_id
        return f"{self.method}-{self.semantic_hash()[:8]}"


def build_problem(cfg: RunConfig):
    if cfg.problem == "reference":
        return imbalanced_reference_problem(seed=cfg.seed)
    if cfg.problem == "quadratic":
        scales = cfg.scales if cfg.scales is not None else tuple([1.0] * cfg.k)
        return make_quadratic_problem(
            cfg.k, cfg.dim, scales,
            math.radians(cfg.conflict_angle_deg),
            seed=cfg.seed, offsets=cfg.offsets, step_size=cfg.step_size)
    if cfg.problem == "mlp":
        return make_mlp_problem(
            cfg.k, input_dim=cfg.input_dim, width=cfg.width,
            n_samples=cfg.n_samples, noise=cfg.noise, seed=cfg.seed,
            step_size=cfg.step_size if cfg.step_size is not None else 0.2)
    raise ValueError(f"unknown problem {cfg.problem!r}")  # pragma: no cover


def compute_baselines(problem, cfg: RunConfig) -> tuple[np.ndarray, str]:
    """Per-task reference scores: exact optima when the family knows them,
    otherwise empirical single-task training."""
    if problem.reference_optima is not None:
        return np.asarray(problem.reference_optima, dtype=float), "exact"
    return run_stl_baselines(problem, _baseline_iters(cfg)), "stl"


def _baseline_iters(cfg: RunConfig) -> int:
    return cfg.baseline_iters if cfg.baseline_iters is not None else cfg.total_iters


def _run_mean_metrics(columns: dict) -> dict:
    """The SUMMARY_METRICS means of their trace columns, whose nulls are
    None or NaN; a mean of a column that is null on every row is None."""
    means = {}
    for metric, name in _TRACE_COLUMNS.items():
        values = np.array(columns[name], dtype=float)     # None becomes NaN
        values = values[~np.isnan(values)]
        means[metric] = float(values.mean()) if values.size else None
    return means


def _train(cfg: RunConfig, problem) -> TrainingRun | None:
    """``cfg``'s joint run on ``problem``; None for ``stl``, which has none."""
    k = problem.num_tasks
    if cfg.method == "autoscale":
        return run_autoscale(problem, AutoScaleConfig(
            **{f.name: getattr(cfg, f.name) for f in fields(AutoScaleConfig)}))
    if cfg.method == "unitary":
        return run_fixed_scalarization(problem, uniform_weights(k), cfg.total_iters)
    if cfg.method == "fixed":
        return run_fixed_scalarization(
            problem, make_weight_vector(np.asarray(cfg.weights)), cfg.total_iters)
    if cfg.method == "rlw":
        return run_weight_schedule(
            problem, lambda t: random_loss_weighting_step(k, cfg.seed, t),
            cfg.total_iters)
    return None


def _stl_baselines(cfg: RunConfig) -> np.ndarray:
    """The baseline worker's task: empirical baselines of ``cfg``'s problem,
    built here from the settings alone."""
    return run_stl_baselines(build_problem(cfg), _baseline_iters(cfg))


@contextlib.contextmanager
def _worker_pool(workers: int, who: str):
    """A ``ProcessPoolExecutor`` of ``workers`` processes, shut down on exit.

    On any exception out of the block, pending calls are cancelled and every
    worker started so far is terminated and joined before the exception
    propagates, so none outlives the command, even when a later worker
    failed to start.  A worker that died without sending its results is a
    ChildProcessError naming ``who``.
    """
    before = set(multiprocessing.active_children())
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield pool
    except BaseException as exc:
        started = [p for p in multiprocessing.active_children() if p not in before]
        for process in started:
            process.terminate()
        for process in started:
            process.join()
        pool.shutdown(cancel_futures=True)
        if isinstance(exc, BrokenExecutor):
            raise ChildProcessError(
                f"{who} ended without sending its results ({exc})") from None
        raise
    pool.shutdown()


def execute_run(cfg: RunConfig, trace: str | None = None) -> tuple[dict, TrainingRun | None]:
    """Run one experiment; returns its summary and its run (None for ``stl``),
    after writing the run's trace to ``trace`` when given.

    Empirical baselines of a joint run train in one worker process while the
    run trains here, and are waited for once the trace is written.  Exact
    baselines, and those of ``stl``, which are its own results, are computed
    here and start no process.
    """
    problem = build_problem(cfg)
    in_worker = cfg.method != "stl" and problem.reference_optima is None
    with (_worker_pool(1, "the baseline worker") if in_worker
          else contextlib.nullcontext()) as pool:
        pending = pool.submit(_stl_baselines, cfg) if in_worker else None
        run = _train(cfg, problem)
        if trace and run is not None:
            write_trace(trace, _trace_meta(cfg), run.columns)
        baselines = (pending.result(), "stl") if in_worker else compute_baselines(problem, cfg)
    if run is not None:
        final_losses = run.final_losses
    elif baselines[1] == "stl":
        final_losses = baselines[0]     # single-task training gave the baselines
    else:
        final_losses = run_stl_baselines(problem, _baseline_iters(cfg))
    return _summary(cfg, baselines, final_losses, run), run


def _trace_meta(cfg: RunConfig) -> list:
    """The trace's metadata values of ``cfg``'s run, in ``_TRACE_META`` order."""
    return [cfg.resolved_run_id(), cfg.method,
            cfg.cost_kind if cfg.method == "autoscale" else "", cfg.seed,
            cfg.semantic_hash()]


def _summary(cfg: RunConfig, baselines: tuple[np.ndarray, str], final_losses,
             run: TrainingRun | None) -> dict:
    """The summary of ``cfg``'s run: the trace's metadata fields, then the
    results.  ``baselines`` is what :func:`compute_baselines` returns, and
    ``final_losses`` are the run's, or the single-task ones without a run."""
    values, mode = baselines
    summary: dict = dict(zip(_TRACE_META, _trace_meta(cfg)))
    summary["baselines"] = [float(b) for b in values]
    summary["baseline_mode"] = mode
    scores = [TaskScore(value=float(v), baseline=float(b))
              for v, b in zip(final_losses, values)]
    summary["final_losses"] = [float(v) for v in final_losses]
    summary["delta_m"] = delta_m(scores)
    summary["delta_m_deg"] = delta_m_deg(scores)
    final_weight = None if run is None else run.final_weight
    summary["final_weights"] = (None if final_weight is None
                                else [float(v) for v in final_weight.w])
    if run is not None:
        summary.update(_run_mean_metrics(run.metrics))
    return summary


def _write_csv(path, header: Sequence[str], rows) -> None:
    """``csv`` writes None as an empty field and a float as its repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_object(path, what: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{what} file must hold a JSON object")
    return data


def _merge_config(args: argparse.Namespace) -> RunConfig:
    data = _load_object(args.config, "config") if args.config else {}
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            data[f.name] = flag_value
        elif _kind(f) == _FLOAT_LIST and isinstance(data.get(f.name), str):
            try:
                data[f.name] = _parse_float_list(data[f.name])
            except ValueError:
                raise ValueError(f"config file {args.config}: {f.name!r} must be "
                                 f"comma-separated numbers, got {data[f.name]!r}") from None
    return RunConfig.from_dict(data)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    for f in fields(RunConfig):
        p.add_argument(_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")),
                       dest=f.name, type=_PARSERS[_kind(f)], **_FLAG_OPTIONS.get(f.name, {}))


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    summary, run = execute_run(cfg, args.trace)
    if args.trace and run is not None:
        print(f"trace: {args.trace} ({len(run.weights)} lines)")
    elif args.trace:
        print("trace: skipped (single-task baselines produce no joint trace)")
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        print(f"summary: {args.summary}")

    print(f"run {summary['run_id']} method={summary['method']} "
          f"seed={summary['seed']} hash={summary['config_hash']}")
    for i, (loss, base) in enumerate(zip(summary["final_losses"], summary["baselines"])):
        print(f"  task {i}: final={loss:.6g} baseline={base:.6g} ({summary['baseline_mode']})")
    if summary["final_weights"] is not None:
        w_text = ", ".join(f"{v:.6g}" for v in summary["final_weights"])
        print(f"  weights: [{w_text}]")
    print(f"  delta_m={summary['delta_m']:.4f}%  delta_m_deg={summary['delta_m_deg']:.4f}%")
    return 0


def _sweep_chunk(cfgs: list[RunConfig], trace_dir: str | None,
                 baselines: tuple[np.ndarray, str]) -> list[dict]:
    """Train the fixed-weight sweep members ``cfgs`` in lockstep batches of at
    most ``_SWEEP_BATCH`` and return their summaries against ``baselines``,
    writing each member's trace into ``trace_dir`` when given.  The first
    member that fails raises its error, after the members before it are
    written."""
    problem = build_problem(cfgs[0])     # every member's settings build the same problem
    summaries = []
    for lo in range(0, len(cfgs), _SWEEP_BATCH):
        batch = cfgs[lo:lo + _SWEEP_BATCH]
        runs = run_fixed_scalarization(
            problem, [make_weight_vector(np.asarray(cfg.weights)) for cfg in batch],
            batch[0].total_iters)
        for cfg, run in zip(batch, runs):
            if isinstance(run, ValueError):
                raise run
            summary = _summary(cfg, baselines, run.final_losses, run)
            if trace_dir:
                path = os.path.join(trace_dir, f"{cfg.resolved_run_id()}.jsonl")
                write_trace(path, _trace_meta(cfg), run.columns)
                summary["trace_path"] = path
            summaries.append(summary)
    return summaries


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be an integer >= 1, got {args.jobs}")
    cfg = _merge_config(args)
    problem = build_problem(cfg)
    weight_sets = sample_weight_sets(args.n, problem.num_tasks, seed=cfg.seed,
                                     scheme=args.scheme)
    os.makedirs(args.out_dir, exist_ok=True)
    trace_dir = args.out_dir if args.write_traces else None
    cfgs = [RunConfig.from_dict({**cfg.to_dict(), "method": "fixed",
                                 "weights": list(wv.as_tuple()), "run_id": f"sweep-{i:03d}"})
            for i, wv in enumerate(weight_sets)]
    # Every member shares the problem and the baseline iterations, so one
    # set of baselines serves them all.
    baselines = compute_baselines(problem, cfg)
    # Contiguous chunks, one per worker: a member's outputs do not depend on
    # its chunk or its batch, so they are the same for any --jobs.
    n_chunks = min(args.jobs, len(cfgs))
    bounds = [len(cfgs) * i // n_chunks for i in range(n_chunks + 1)]
    chunks = [cfgs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if n_chunks == 1:
        summaries = _sweep_chunk(chunks[0], trace_dir, baselines)
    else:
        with _worker_pool(n_chunks, "a sweep worker") as pool:
            summaries = [summary for chunk in pool.map(_sweep_chunk, chunks, repeat(trace_dir),
                                                      repeat(baselines))
                         for summary in chunk]

    k = problem.num_tasks
    header = (["run_id"] + [f"weight_{i}" for i in range(k)] +
              ["delta_m", "delta_m_deg"] + list(SUMMARY_METRICS) +
              [f"final_loss_{i}" for i in range(k)])
    rows = []
    for s in summaries:
        rows.append([s["run_id"], *s["final_weights"], s["delta_m"],
                     s["delta_m_deg"], *[s[m] for m in SUMMARY_METRICS],
                     *s["final_losses"]])
    out_csv = os.path.join(args.out_dir, "sweep_summary.csv")
    _write_csv(out_csv, header, rows)

    best = min(summaries, key=lambda s: s["delta_m"])
    w_text = ", ".join(f"{v:.6g}" for v in best["final_weights"])
    print(f"sweep: {len(summaries)} runs -> {out_csv}")
    print(f"best: {best['run_id']} delta_m={best['delta_m']:.4f}% "
          f"weights=[{w_text}]")
    return 0


def _smooth(series: list, window: int) -> list:
    if window <= 1:
        return series
    out = []
    acc = deque(maxlen=window)
    for v in series:
        acc.append(v)
        vals = [a for a in acc if a is not None]
        out.append(float(np.mean(vals)) if vals else None)
    return out


def _summary_column(rows: list, name: str, path) -> np.ndarray:
    """Column ``name`` of a sweep summary's rows as floats."""
    values = []
    for i, row in enumerate(rows, start=1):
        try:
            values.append(float(row[name]))
        except (TypeError, ValueError):     # TypeError: a short row's None
            raise ValueError(f"summary file {path}, row {i}: column {name!r} must be "
                             f"a number, got {row[name]!r}") from None
    return np.array(values)


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.smooth < 1:
        raise ValueError(f"--smooth must be an integer >= 1, got {args.smooth}")
    os.makedirs(args.out_dir, exist_ok=True)
    wrote_anything = False

    if args.traces:
        # Every trace is read and checked before anything is written: a run id
        # names its trajectory CSV.  Per run only the first row's metadata,
        # ``iter`` and the five series are kept.
        runs: dict = {}
        agg_rows = []
        for path in args.traces:
            columns = read_trace_columns(
                path, ("iter", "run_id", "method", "cost_kind", *_TRACE_COLUMNS.values()))
            iters = columns["iter"]
            if not iters:
                print(f"analyze: {path} is empty", file=sys.stderr)
                return 1
            meta = {name: columns.pop(name) for name in ("run_id", "method", "cost_kind")}
            run_id = meta["run_id"][0]
            if not _plain_name(run_id):
                raise ValueError(f"trace {path}: run id {run_id!r} is not one plain "
                                 "file-name component")
            if run_id in runs:
                raise ValueError(f"traces {runs[run_id][0]} and {path} share "
                                 f"run id {run_id!r}")
            for name, values in meta.items():
                if len(set(values)) > 1:
                    raise ValueError(f"trace {path} holds more than one run: field {name!r} "
                                     "changes")
            if not all(map(int.__lt__, iters, iters[1:])):
                raise ValueError(f"trace {path} holds more than one run: field 'iter' does "
                                 "not strictly increase")
            runs[run_id] = (path, columns)
            agg_rows.append([run_id, meta["method"][0], meta["cost_kind"][0], len(iters),
                             *_run_mean_metrics(columns).values()])
        for run_id, (_, columns) in runs.items():
            series = [columns[name] for name in _TRACE_COLUMNS.values()]
            if args.smooth > 1:
                series = [_smooth(values, args.smooth) for values in series]
            _write_csv(os.path.join(args.out_dir, f"{run_id}_trajectory.csv"),
                       ["iter", *_TRACE_COLUMNS.values()], zip(columns["iter"], *series))
            wrote_anything = True
        agg_path = os.path.join(args.out_dir, "aggregates.csv")
        _write_csv(agg_path,
                   ["run_id", "method", "cost_kind", "iters"] + list(SUMMARY_METRICS),
                   agg_rows)
        print(f"analyze: {len(args.traces)} trace(s) -> {args.out_dir}")

    if args.summary:
        with open(args.summary, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        if not rows:
            print("analyze: summary file has no rows", file=sys.stderr)
            return 1
        if "delta_m" not in reader.fieldnames:
            raise ValueError(f"summary file {args.summary} has no 'delta_m' column")
        dm = _summary_column(rows, "delta_m", args.summary)
        corr_rows = []
        for metric in SUMMARY_METRICS:
            if any(r.get(metric) in ("", None) for r in rows):
                corr_rows.append([metric, None])
                continue
            values = _summary_column(rows, metric, args.summary)
            try:
                rho = spearman_correlation(dm, values)
            except ValueError as exc:       # constant, non-finite or too few values
                print(f"analyze: warning: summary file {args.summary}: no correlation for "
                      f"{metric!r} ({exc}); writing n/a", file=sys.stderr)
                rho = None
            corr_rows.append([metric, rho])
        corr_path = os.path.join(args.out_dir, "correlations.csv")
        _write_csv(corr_path, ["metric", "spearman_rho_vs_delta_m"], corr_rows)
        print(f"analyze: correlations -> {corr_path}")
        for name, rho in corr_rows:
            text = "n/a" if rho is None else f"{rho:+.4f}"
            print(f"  {name}: {text}")
        wrote_anything = True

    if not wrote_anything:
        print("analyze: nothing to do (pass --traces and/or --summary)",
              file=sys.stderr)
        return 1
    return 0


def _score_array(values, where: str, n: int | None, kind: str = "finite numbers") -> list:
    """A score-file array of ``n`` entries (any count when None): JSON
    booleans, or numbers (not booleans) that finite doubles hold."""
    types = (bool,) if kind == "booleans" else (int, float)
    if (type(values) is not list or n not in (None, len(values))
            or not all(type(v) in types for v in values)
            or (kind != "booleans" and not _finite(values))):
        per = "" if n is None else f", one per baseline ({n})"
        raise ValueError(f"score file {where} must be an array of {kind}{per}")
    return values


def cmd_eval(args: argparse.Namespace) -> int:
    data = _load_object(args.scores, "score")
    for key in ("baselines", "higher_is_better", "methods"):
        if key not in data:
            print(f"eval: score file missing key {key!r}", file=sys.stderr)
            return 1
    methods = data["methods"]
    if not isinstance(methods, dict) or not methods:
        print("eval: 'methods' must be a non-empty object", file=sys.stderr)
        return 1
    baselines = _score_array(data["baselines"], "'baselines'", None)
    n = len(baselines)
    orient = _score_array(data["higher_is_better"], "'higher_is_better'", n, "booleans")
    names = list(methods.keys())
    table = [_score_array(methods[name], f"method {name!r}", n) for name in names]
    ranks = mean_rank(table, orient)
    rows = []
    for name, row, rank in zip(names, table, ranks):
        scores = [TaskScore(value=float(v), baseline=float(b), higher_is_better=o)
                  for v, b, o in zip(row, baselines, orient)]
        rows.append([name, delta_m(scores), delta_m_deg(scores), float(rank)])
    header = ["method", "delta_m", "delta_m_deg", "mean_rank"]
    if args.out:
        _write_csv(args.out, header, rows)
        print(f"eval: table -> {args.out}")
    width = max(len(r[0]) for r in rows)
    print(f"{'method'.ljust(width)}  delta_m%  delta_m_deg%  mean_rank")
    for name, dm, dmd, rank in rows:
        print(f"{name.ljust(width)}  {dm:+8.4f}  {dmd:11.4f}  {rank:9.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autoscale",
        description="Two-phase task-weight selection: run, sweep, analyze, eval.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one training run")
    _add_config_flags(p_run)
    p_run.add_argument("--trace", help="write the run trace to this path (JSONL)")
    p_run.add_argument("--summary", help="write the run summary to this path (JSON)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="fixed-weight sweep over sampled weight sets")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--n", type=int, required=True, help="number of weight sets")
    p_sweep.add_argument("--scheme", default="dirichlet-uniform",
                         choices=("dirichlet-uniform", "log-uniform-grid"))
    p_sweep.add_argument("--out-dir", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="run sweep members in this many processes")
    p_sweep.add_argument("--write-traces", action="store_true",
                         help="also write one trace file per sweep member")
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analyze", help="post-process traces or a sweep summary")
    p_an.add_argument("--traces", nargs="*", default=[],
                      help="trace files to convert to trajectory/aggregate CSVs")
    p_an.add_argument("--summary", help="sweep summary CSV for rank correlations")
    p_an.add_argument("--smooth", type=int, default=1,
                      help="rolling-mean window for trajectory CSVs")
    p_an.add_argument("--out-dir", required=True)
    p_an.set_defaults(func=cmd_analyze)

    p_ev = sub.add_parser("eval", help="comparison table from a score file")
    p_ev.add_argument("--scores", required=True,
                      help="JSON: baselines, higher_is_better, methods")
    p_ev.add_argument("--out", help="write the table as CSV here")
    p_ev.set_defaults(func=cmd_eval)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    level_name = os.environ.get("AUTOSCALE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DivergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
