"""Training runs: one descent loop under fixed, scheduled or two-phase weights.

Every run is fixed-step descent on the weighted total loss.  Each step only
computes the task losses and gradients, the Gram matrix of the shared slice
and the update, into preallocated rows; rows are then derived, validated and
recorded in blocks of at most ``_RECORD_BLOCK`` rows, ending at each window
boundary, by one vectorized pass, :func:`metrics.metric_records`.  A
non-finite loss or gradient raises :class:`DivergenceError` at its iteration.

The two-phase run explores for the first ``exploration_ratio`` of the budget,
re-solving after every ``window_size`` iterations for the weights minimizing
the window cost (closed-form QP for quadratic costs, simplex search from the
previous weights for low-cond), then trains out the budget at the mean of the
last ``aggregation_size`` window weights, re-projected.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DEFAULT_WEIGHT_FLOOR,
    DivergenceError,
    GradientSnapshot,
    LossSnapshot,
    MetricRecord,
    WeightVector,
    WindowBuffer,
    compress_grams,
    seed_sequence,
    uniform_weights,
)
from .costs import CostKind, quadratic_form, window_cost
from .metrics import metric_record, metric_records
from .solver import SolverReport, project_feasible, solve_general, solve_quadratic

logger = logging.getLogger(__name__)

_SOLVER_STREAM = 0x50

#: Most rows recorded per vectorized pass.  Bounds the pass's (B, K, K)
#: temporaries, which at K=8 would otherwise grow with the run length.
_RECORD_BLOCK = 64


@dataclass(frozen=True)
class AutoScaleConfig:
    """Knobs of the two-phase run.

    ``exploration_ratio * total_iters`` must be a whole number of iterations
    and a whole number of windows; ``aggregation_size`` may not exceed the
    window count.  ``exploration_ratio = 0`` degenerates to plain unitary
    scalarization for the full budget.
    """

    total_iters: int
    exploration_ratio: float = 0.2
    window_size: int = 50
    aggregation_size: int = 10
    cost_kind: CostKind = CostKind.EQUAL_GRAD_NORM
    seed: int = 0
    snapshot_stride: int = 1
    weight_floor: float = DEFAULT_WEIGHT_FLOOR
    solver_budget: int = 4000
    solver_restarts: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost_kind", CostKind.parse(self.cost_kind))
        if self.total_iters < 1:
            raise ValueError("total_iters must be >= 1")
        if not 0.0 <= self.exploration_ratio <= 1.0:
            raise ValueError("exploration_ratio must lie in [0, 1]")
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if self.aggregation_size < 1:
            raise ValueError("aggregation_size must be >= 1")
        if not 1 <= self.snapshot_stride <= self.window_size:
            raise ValueError("snapshot_stride must lie in [1, window_size]")
        exact = self.exploration_ratio * self.total_iters
        rounded = round(exact)
        if abs(exact - rounded) > 1e-9 * max(1.0, self.total_iters):
            raise ValueError(
                f"exploration_ratio * total_iters must be integral, got {exact}")
        if self.exploration_ratio > 0.0:
            if rounded < self.window_size:
                raise ValueError(
                    "exploration phase shorter than one window: "
                    f"{rounded} iterations < window_size {self.window_size}")
            if rounded % self.window_size != 0:
                raise ValueError(
                    f"window_size {self.window_size} must divide the "
                    f"exploration budget {rounded}")
            if self.aggregation_size > rounded // self.window_size:
                raise ValueError(
                    f"aggregation_size {self.aggregation_size} exceeds the "
                    f"{rounded // self.window_size} exploration windows")

    @property
    def exploration_iters(self) -> int:
        return int(round(self.exploration_ratio * self.total_iters))

    @property
    def num_windows(self) -> int:
        if self.exploration_ratio == 0.0:
            return 0
        return self.exploration_iters // self.window_size


@dataclass(frozen=True)
class WeightHistory:
    """Weights produced by a run: per window, aggregated, and per iteration.

    ``final_weight`` is None only for single-task runs, where the feasible
    weight-vector type (K >= 2) does not apply.
    """

    window_weights: tuple[WeightVector, ...]
    final_weight: WeightVector | None
    per_iteration_weights: tuple[tuple[float, ...], ...]

    def weight_at(self, iteration: int) -> tuple[float, ...]:
        return self.per_iteration_weights[iteration]


@dataclass(frozen=True)
class TrainingRun:
    """Everything a completed training run exposes."""

    theta_final: np.ndarray
    final_losses: tuple[float, ...]
    records: tuple[MetricRecord, ...]
    weight_history: WeightHistory
    losses: np.ndarray       # (T, K)
    grad_norms: np.ndarray   # (T, K)
    gram_upper: np.ndarray   # (T, K*(K+1)/2)
    solver_reports: tuple[SolverReport, ...] = ()


def aggregate_final_weight(window_weights: Sequence[WeightVector],
                           aggregation_size: int) -> WeightVector:
    """Mean of the last ``aggregation_size`` window weights, re-projected."""
    if aggregation_size < 1:
        raise ValueError("aggregation_size must be >= 1")
    if aggregation_size > len(window_weights):
        raise ValueError(
            f"aggregation_size {aggregation_size} exceeds available "
            f"{len(window_weights)} window weights")
    tail = window_weights[-aggregation_size:]
    mean = np.mean([wv.w for wv in tail], axis=0)
    return project_feasible(mean, tail[-1].floor)


class _Descent:
    """The descent loop every run shares, from the problem's initial point.

    Runs drive it window by window or in one call, with the weights
    ``weight_at(t)`` of their policy (a WeightVector or a length-K array).
    """

    def __init__(self, problem, total_iters: int) -> None:
        k = problem.num_tasks
        self.problem = problem
        self.theta = np.array(problem.initial_theta(), dtype=float)
        self.t = 0
        self.records: list[MetricRecord] = []
        self.losses = np.empty((total_iters, k))
        self.weights = np.empty((total_iters, k))
        self.grad_norms = np.empty((total_iters, k))
        self.gram_upper = np.empty((total_iters, k * (k + 1) // 2))
        self._raw_grams = np.empty((min(total_iters, _RECORD_BLOCK), k, k))
        self._upper = (slice(None), *np.triu_indices(k))

    def run(self, weight_at: Callable[[int], WeightVector | np.ndarray], until: int,
            stride: int = 0) -> list:
        """Descend up to iteration ``until``; with a ``stride``, return the
        snapshot pairs of every ``stride``-th iteration from the start."""
        problem = self.problem
        h, shared = problem.step_size, problem.shared_slice
        theta, start, pairs = self.theta, self.t, []
        for lo in range(start, until, _RECORD_BLOCK):
            hi = min(lo + _RECORD_BLOCK, until)
            for t in range(lo, hi):
                w = weight_at(t)
                w = w.w if isinstance(w, WeightVector) else np.asarray(w, float)
                losses = np.asarray(problem.task_losses(theta), dtype=float)
                grads = np.asarray(problem.task_gradients(theta), dtype=float)
                g = grads[:, shared]
                self._raw_grams[t - lo] = g @ g.T
                self.losses[t] = losses
                self.weights[t] = w
                theta = theta - h * (w @ grads)
            self.theta = theta
            pairs += self._record(lo, hi, start, stride)
        self.t = until
        return pairs

    def _record(self, lo: int, hi: int, start: int, stride: int) -> list:
        norms, grams = compress_grams(self._raw_grams[:hi - lo])
        losses = self.losses[lo:hi]
        # prev_losses: one iteration back, and the losses themselves at t = 0.
        prev = self.losses[lo - 1:hi - 1] if lo else np.concatenate((losses[:1], losses[:-1]))
        finite = (np.isfinite(losses).all(axis=1) & np.isfinite(norms).all(axis=1)
                  & np.isfinite(grams).all(axis=(1, 2)))
        if not finite.all():
            t = lo + int(finite.argmin())
            last = (f"last finite losses {self.losses[t - 1].tolist()} at iteration {t - 1}"
                    if t else "no finite iteration before it")
            raise DivergenceError(
                f"training diverged at iteration {t}: non-finite task losses or "
                f"gradients; {last}; weights {self.weights[t].tolist()}")
        initial = self.losses[0]
        self.records += metric_records(norms, grams, losses, initial, prev,
                                       self.weights[lo:hi], range(lo, hi))
        self.grad_norms[lo:hi] = norms
        self.gram_upper[lo:hi] = grams[self._upper]
        return [(GradientSnapshot(norms=norms[i], gram=grams[i], iteration=lo + i),
                 LossSnapshot(losses=losses[i], initial_losses=initial,
                              prev_losses=prev[i], iteration=lo + i))
                for i in range(hi - lo) if stride and (lo + i - start) % stride == 0]

    def finish(self, window_weights, final_weight, reports=()) -> TrainingRun:
        final_losses = tuple(float(v) for v in self.problem.task_losses(self.theta))
        history = WeightHistory(
            window_weights=tuple(window_weights), final_weight=final_weight,
            per_iteration_weights=tuple(map(tuple, self.weights.tolist())))
        return TrainingRun(theta_final=self.theta, final_losses=final_losses,
                           records=tuple(self.records), weight_history=history,
                           losses=self.losses, grad_norms=self.grad_norms,
                           gram_upper=self.gram_upper, solver_reports=tuple(reports))


def run_autoscale(problem, config: AutoScaleConfig) -> TrainingRun:
    """Full two-phase run on ``problem`` under ``config``."""
    k = problem.num_tasks
    floor = config.weight_floor
    current = uniform_weights(k, floor)
    window_weights: list[WeightVector] = []
    reports: list[SolverReport] = []
    tau, stride = config.window_size, config.snapshot_stride
    capacity = len(range(0, tau, stride))
    descent = _Descent(problem, config.total_iters)

    for w_index in range(config.num_windows):
        pairs = descent.run(lambda t: current, descent.t + tau, stride)
        window = WindowBuffer(pairs=tuple(pairs), capacity=capacity, stride=stride)
        # The window's last pair, recorded on its own, must give the block's
        # record of that iteration: the solver and the trace read one row.
        grad, loss = pairs[-1]
        if metric_record(grad, loss, current) != descent.records[grad.iteration]:
            logger.warning("window %d: iteration %d records differently alone "
                           "than in its block", w_index, grad.iteration)
        if config.cost_kind.is_quadratic:
            report = solve_quadratic(quadratic_form(config.cost_kind, window),
                                     floor=floor)
        else:
            child = seed_sequence(config.seed, _SOLVER_STREAM, w_index)
            report = solve_general(
                lambda wv: window_cost(config.cost_kind, wv, window),
                w_init=current,
                floor=floor,
                budget=config.solver_budget,
                restarts=config.solver_restarts,
                seed=int(child.generate_state(1, dtype=np.uint64)[0]),
            )
        reports.append(report)
        # The solve may never regress the window cost; on a (float-level)
        # regression keep the previous weights.
        incumbent = window_cost(config.cost_kind, current, window)
        if report.cost_at_w_star <= incumbent * (1.0 + 1e-12) + 1e-15:
            current = report.w_star
        else:  # pragma: no cover - defensive, solvers guarantee this
            logger.warning("window %d solve regressed (%.3e > %.3e); keeping "
                           "previous weights", w_index, report.cost_at_w_star,
                           incumbent)
        window_weights.append(current)

    if config.num_windows > 0:
        final_weight = aggregate_final_weight(window_weights,
                                              config.aggregation_size)
    else:
        final_weight = uniform_weights(k, floor)
    descent.run(lambda t: final_weight, config.total_iters)
    return descent.finish(window_weights, final_weight, reports)


def run_fixed_scalarization(problem, weights, total_iters: int) -> TrainingRun:
    """Train with constant task weights for the whole budget.

    ``weights`` is a WeightVector, or a plain length-K array (accepted so the
    single-task case K=1 works, where the feasible-set type does not apply).
    """
    if total_iters < 1:
        raise ValueError("total_iters must be >= 1")
    k = problem.num_tasks
    w_arr = weights.w if isinstance(weights, WeightVector) else np.asarray(weights, float)
    if w_arr.shape != (k,):
        raise ValueError(f"weights must have length {k}, got shape {w_arr.shape}")
    descent = _Descent(problem, total_iters)
    descent.run(lambda t: w_arr, total_iters)
    if isinstance(weights, WeightVector):
        final_wv = weights
    elif k >= 2:
        final_wv = WeightVector(w_arr)
    else:
        final_wv = None
    return descent.finish((), final_wv)


def run_weight_schedule(problem, weight_for_iter: Callable[[int], WeightVector],
                        total_iters: int) -> TrainingRun:
    """Train with an arbitrary per-iteration weight schedule (e.g. random
    loss weighting)."""
    if total_iters < 1:
        raise ValueError("total_iters must be >= 1")
    descent = _Descent(problem, total_iters)
    descent.run(weight_for_iter, total_iters)
    last = weight_for_iter(total_iters - 1)
    final_wv = last if isinstance(last, WeightVector) else WeightVector(np.asarray(last, float))
    return descent.finish((), final_wv)
