"""Command-line shell: run experiments, sweep weights, analyze traces.

Subcommands:

* ``run``     — execute one training run and emit a trace + summary.
* ``sweep``   — N fixed-weight runs over sampled weight sets; summary CSV.
* ``analyze`` — turn traces into trajectory/aggregate CSVs, or a sweep
  summary into a metric-vs-outcome rank-correlation table.
* ``eval``    — score-file comparison table (delta_m / delta_m_deg / ranks).

A declarative JSON config can replace the flags; explicit flags override the
file.  Unknown config keys are rejected.  The environment variable
``AUTOSCALE_LOG`` controls log verbosity only — it never changes results.

Exit codes: 0 on success; 1 when there is nothing to report (``analyze``
without input, or with an empty trace or summary; ``eval`` with a missing key
or empty ``methods``); 2 for invalid input or a failed command; 3 when
training diverges (a ``DivergenceError``, whose message names the iteration).
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
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
from .traceio import TraceLine, config_hash, read_trace, write_trace

logger = logging.getLogger(__name__)

METHODS = ("autoscale", "unitary", "fixed", "rlw", "stl")
PROBLEMS = ("quadratic", "mlp", "reference")

#: Run-mean metric columns shared by summaries, aggregates and correlations.
SUMMARY_METRICS = ("mean_gms", "mean_gcs", "mean_cond", "mean_ilr_std", "mean_rl_std")


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of a single run.

    Mirrored one-to-one by the ``run`` subcommand's flags.  ``run_id`` is
    derived from method and config hash when not given.
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
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; expected one of {PROBLEMS}")
        CostKind.parse(self.cost_kind)
        if self.total_iters < 1:
            raise ValueError("total_iters must be >= 1")
        if self.method == "fixed" and self.weights is None:
            raise ValueError("method 'fixed' needs explicit weights")
        for name in ("weights", "scales", "offsets"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(float(v) for v in value))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown config key(s): {', '.join(sorted(unknown))}")
        return cls(**data)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

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


def _run_mean_metrics(rows) -> dict:
    """The SUMMARY_METRICS means over metric records or trace lines."""
    gms = [r.gms_mean for r in rows if r.gms_mean is not None]
    gcs = [r.gcs_mean for r in rows if r.gcs_mean is not None]
    return {
        "mean_gms": float(np.mean(gms)) if gms else None,
        "mean_gcs": float(np.mean(gcs)) if gcs else None,
        "mean_cond": float(np.mean([r.cond_number for r in rows])),
        "mean_ilr_std": float(np.mean([r.ilr_std for r in rows])),
        "mean_rl_std": float(np.mean([r.rl_std for r in rows])),
    }


def execute_run(cfg: RunConfig) -> dict:
    """Run one experiment; returns a summary dict (with the run attached)."""
    problem = build_problem(cfg)
    k = problem.num_tasks
    run: TrainingRun | None = None

    if cfg.method == "autoscale":
        as_cfg = AutoScaleConfig(
            total_iters=cfg.total_iters,
            exploration_ratio=cfg.exploration_ratio,
            window_size=cfg.window_size,
            aggregation_size=cfg.aggregation_size,
            cost_kind=cfg.cost_kind,
            seed=cfg.seed,
            snapshot_stride=cfg.snapshot_stride,
        )
        run = run_autoscale(problem, as_cfg)
    elif cfg.method == "unitary":
        run = run_fixed_scalarization(problem, uniform_weights(k), cfg.total_iters)
    elif cfg.method == "fixed":
        run = run_fixed_scalarization(
            problem, make_weight_vector(np.asarray(cfg.weights)), cfg.total_iters)
    elif cfg.method == "rlw":
        run = run_weight_schedule(
            problem, lambda t: random_loss_weighting_step(k, cfg.seed, t),
            cfg.total_iters)

    baselines, baseline_mode = compute_baselines(problem, cfg)
    summary: dict = {
        "run_id": cfg.resolved_run_id(),
        "method": cfg.method,
        "cost_kind": cfg.cost_kind if cfg.method == "autoscale" else "",
        "seed": cfg.seed,
        "config_hash": cfg.semantic_hash(),
        "baselines": [float(b) for b in baselines],
        "baseline_mode": baseline_mode,
    }

    if run is None:
        # Single-task training: when it already gave the baselines, reuse them.
        final_losses = (baselines if baseline_mode == "stl"
                        else run_stl_baselines(problem, _baseline_iters(cfg)))
        final_weight = None
    else:
        final_losses, final_weight = run.final_losses, run.final_weight
    scores = [TaskScore(value=float(v), baseline=float(b))
              for v, b in zip(final_losses, baselines)]
    summary["final_losses"] = [float(v) for v in final_losses]
    summary["delta_m"] = delta_m(scores)
    summary["delta_m_deg"] = delta_m_deg(scores)
    summary["final_weights"] = (None if final_weight is None
                                else [float(v) for v in final_weight.w])
    if run is not None:
        summary.update(_run_mean_metrics(run.records))
    summary["_run"] = run
    return summary


def trace_lines_for_run(run: TrainingRun, cfg: RunConfig):
    meta = (cfg.resolved_run_id(), cfg.method,
            cfg.cost_kind if cfg.method == "autoscale" else "",
            cfg.seed, cfg.semantic_hash())
    # Row by row: whole-column .tolist() added ≈0.9 MB of peak RSS on mlp-k8.
    for i, r in enumerate(run.records):
        yield TraceLine(*meta, r.iteration, r.weights, run.losses[i].tolist(),
                        run.grad_norms[i].tolist(), run.gram_upper[i].tolist(),
                        r.gms_mean, r.gcs_mean, r.cond_number, r.ilr, r.ilr_std,
                        r.ldr, r.rl, r.rl_std, r.degenerate_flags)


def _float_repr(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_float_repr(v) for v in row])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


_LIST_KEYS = ("weights", "scales", "offsets")


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part != "")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        data.update(_load_config_file(args.config))
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            data[f.name] = flag_value
    for key in _LIST_KEYS:
        if isinstance(data.get(key), str):
            data[key] = _parse_float_list(data[key])
    return RunConfig.from_dict(data)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--problem", choices=PROBLEMS)
    p.add_argument("--total-iters", dest="total_iters", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cost", dest="cost_kind",
                   choices=[k.value for k in CostKind])
    p.add_argument("--exploration-ratio", dest="exploration_ratio", type=float)
    p.add_argument("--window-size", dest="window_size", type=int)
    p.add_argument("--aggregation-size", dest="aggregation_size", type=int)
    p.add_argument("--stride", dest="snapshot_stride", type=int)
    p.add_argument("--weights", type=_parse_float_list,
                   help="comma-separated fixed weights, e.g. 1.2,0.8")
    p.add_argument("--run-id", dest="run_id")
    p.add_argument("--baseline-iters", dest="baseline_iters", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--scales", type=_parse_float_list)
    p.add_argument("--conflict-angle", dest="conflict_angle_deg", type=float,
                   help="pairwise gradient angle at the start, in degrees")
    p.add_argument("--offsets", type=_parse_float_list)
    p.add_argument("--step-size", dest="step_size", type=float)
    p.add_argument("--input-dim", dest="input_dim", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--noise", type=float)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    summary = execute_run(cfg)
    run = summary.pop("_run")
    if args.trace and run is not None:
        n = write_trace(args.trace, trace_lines_for_run(run, cfg))
        print(f"trace: {args.trace} ({n} lines)")
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


def _sweep_member(payload: tuple) -> dict:
    base_dict, weights, index, trace_dir = payload
    member = dict(base_dict)
    member["method"] = "fixed"
    member["weights"] = list(weights)
    member["run_id"] = f"sweep-{index:03d}"
    cfg = RunConfig.from_dict(member)
    summary = execute_run(cfg)
    run = summary.pop("_run")
    if trace_dir:
        path = os.path.join(trace_dir, f"{cfg.resolved_run_id()}.jsonl")
        write_trace(path, trace_lines_for_run(run, cfg))
        summary["trace_path"] = path
    return summary


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    problem = build_problem(cfg)
    weight_sets = sample_weight_sets(args.n, problem.num_tasks, seed=cfg.seed,
                                     scheme=args.scheme)
    os.makedirs(args.out_dir, exist_ok=True)
    trace_dir = args.out_dir if args.write_traces else None
    base_dict = cfg.to_dict()

    payloads = [(base_dict, wv.as_tuple(), i, trace_dir)
                for i, wv in enumerate(weight_sets)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            summaries = list(pool.map(_sweep_member, payloads))
    else:
        summaries = [_sweep_member(p) for p in payloads]

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


_TRAJECTORY_COLUMNS = ("gms_mean", "gcs_mean", "cond_number", "ilr_std", "rl_std")


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


def cmd_analyze(args: argparse.Namespace) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    wrote_anything = False

    if args.traces:
        agg_rows = []
        for path in args.traces:
            lines = read_trace(path)
            if not lines:
                print(f"analyze: {path} is empty", file=sys.stderr)
                return 1
            run_id = lines[0].run_id
            columns = {name: [getattr(l, name) for l in lines]
                       for name in _TRAJECTORY_COLUMNS}
            if args.smooth > 1:
                columns = {name: _smooth(vals, args.smooth)
                           for name, vals in columns.items()}
            out_path = os.path.join(args.out_dir, f"{run_id}_trajectory.csv")
            header = ["iter"] + list(_TRAJECTORY_COLUMNS)
            rows = [[line.iter] + [columns[c][i] for c in _TRAJECTORY_COLUMNS]
                    for i, line in enumerate(lines)]
            _write_csv(out_path, header, rows)
            agg_rows.append([run_id, lines[0].method, lines[0].cost_kind, len(lines),
                             *_run_mean_metrics(lines).values()])
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
        dm = np.array([float(r["delta_m"]) for r in rows])
        corr_rows = []
        for metric in SUMMARY_METRICS:
            values = [r.get(metric, "") for r in rows]
            if any(v == "" or v is None for v in values):
                corr_rows.append([metric, None])
                continue
            rho = spearman_correlation(dm, np.array([float(v) for v in values]))
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


def cmd_eval(args: argparse.Namespace) -> int:
    with open(args.scores, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    for key in ("baselines", "higher_is_better", "methods"):
        if key not in data:
            print(f"eval: score file missing key {key!r}", file=sys.stderr)
            return 1
    baselines = [float(b) for b in data["baselines"]]
    orient = [bool(b) for b in data["higher_is_better"]]
    methods = data["methods"]
    if not isinstance(methods, dict) or not methods:
        print("eval: 'methods' must be a non-empty object", file=sys.stderr)
        return 1
    names = list(methods.keys())
    table = np.array([[float(v) for v in methods[name]] for name in names])
    ranks = mean_rank(table, orient)
    rows = []
    for name, rank in zip(names, ranks):
        scores = [TaskScore(value=float(v), baseline=b, higher_is_better=o)
                  for v, b, o in zip(methods[name], baselines, orient)]
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
