"""Training runs: one descent loop under fixed, scheduled or two-phase weights.

Every run is fixed-step descent on the weighted total loss.  The loop steps
R members in lockstep on (R, D) parameters: a run is R = 1, and fixed-weight
runs of one problem can share a loop as a batch, each member bit for bit its
own run.  Each step only computes the task losses and gradients, the Gram
matrices of the shared slice and the update, into preallocated rows; rows
are then derived, validated and recorded in blocks of at most
``_RECORD_BLOCK`` iterations, ending at each window boundary, by one
vectorized pass over every member's rows, :func:`metrics.metric_records`.  A
non-finite loss or gradient ends its block and is a :class:`DivergenceError`
of its member.  The recorded columns are the run's result; a window is a
strided slice of them.  A window whose objective is non-finite although its
rows are finite is divergence too.

The two-phase run explores for the first ``exploration_ratio`` of the budget.
After every ``window_size`` iterations :func:`_window_step` re-solves for the
weights minimizing the window cost (closed-form QP for quadratic costs, simplex
search from the previous weights for low-cond).  The run then trains out the
budget at the mean of the last ``aggregation_size`` window weights, re-projected.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DivergenceError,
    GradientSnapshot,
    LossSnapshot,
    WeightVector,
    WindowBuffer,
    compress_grams,
    seed_sequence,
    uniform_weights,
)
from .costs import CostKind, quadratic_form, window_cost
from .metrics import metric_record, metric_records, record_at
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
class TrainingRun:
    """Everything a completed training run exposes.

    ``window_weights`` holds one solved weight per exploration window, and
    ``final_weight`` is None only for single-task runs, where the feasible
    weight-vector type (K >= 2) does not apply.  ``metrics`` holds the
    :func:`metrics.metric_records` columns of every iteration.
    """

    theta_final: np.ndarray
    final_losses: tuple[float, ...]
    metrics: dict
    window_weights: tuple[WeightVector, ...]
    final_weight: WeightVector | None
    weights: np.ndarray      # (T, K)
    losses: np.ndarray       # (T, K)
    grad_norms: np.ndarray   # (T, K)
    gram_upper: np.ndarray   # (T, K*(K+1)/2)
    solver_reports: tuple[SolverReport, ...] = ()

    @property
    def columns(self) -> dict:
        """The per-iteration trace fields by name, ``iter`` to ``degenerate_flags``."""
        return {"iter": np.arange(len(self.weights)), "weights": self.weights,
                "losses": self.losses, "grad_norms": self.grad_norms,
                "gram_upper": self.gram_upper, **self.metrics}


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
    return project_feasible(mean)


class _Descent:
    """The descent loop every run shares: R members, each from the problem's
    initial point, stepped in lockstep on (R, D) parameters.

    Runs drive it window by window or in one call, with the weights
    ``weight_at(t)`` of their policy: a WeightVector or length-K array for
    every member, or an (R, K) array with one row per member.  A member whose
    rows fail a check (a non-finite loss or gradient is a DivergenceError)
    leaves the batch with the error its own run would raise, kept in
    ``errors``, and the others go on.  Asking for its window or its run
    raises that error.
    """

    def __init__(self, problem, total_iters: int, members: int = 1) -> None:
        k = problem.num_tasks
        self.problem = problem
        self.theta = np.repeat(np.array(problem.initial_theta(), dtype=float)[None], members, 0)
        self.t = 0
        self.live = np.arange(members)      # the members still descending: rows of theta
        self.errors: dict[int, ValueError] = {}
        self.metrics: dict = {}
        self.flags: list[list] = [[] for _ in range(members)]
        self.losses = np.empty((members, total_iters, k))
        self.weights = np.empty((members, total_iters, k))
        self.grad_norms = np.empty((members, total_iters, k))
        self.gram_upper = np.empty((members, total_iters, k * (k + 1) // 2))
        self._raw_grams = np.empty((members, min(total_iters, _RECORD_BLOCK), k, k))
        self._upper = (..., *np.triu_indices(k))

    def run(self, weight_at: Callable[[int], WeightVector | np.ndarray], until: int) -> None:
        """Descend up to iteration ``until``."""
        problem = self.problem
        h, shared = problem.step_size, problem.shared_slice
        theta, lo = self.theta, self.t
        while lo < until and self.live.size:
            hi = min(lo + _RECORD_BLOCK, until)
            rows = slice(None) if self.live.size == len(self.losses) else self.live
            for t in range(lo, hi):
                w = weight_at(t)
                w = w.w if isinstance(w, WeightVector) else np.asarray(w, float)
                if w.ndim == 2:
                    w = w[rows]
                losses = np.asarray(problem.task_losses(theta), dtype=float)
                grads = np.asarray(problem.task_gradients(theta), dtype=float)
                g = grads[..., shared]
                raw = self._raw_grams[rows, t - lo] = g @ g.transpose(0, 2, 1)
                self.losses[rows, t] = losses
                self.weights[rows, t] = w
                theta = theta - h * (w[..., None, :] @ grads)[:, 0]
                # A non-finite value ends the block here, for _record to name.
                if not math.isfinite(losses.sum() + raw.sum()):
                    hi = t + 1
                    break
            self._record(lo, hi, self.live)
            kept = [i for i, r in enumerate(self.live) if r not in self.errors]
            if len(kept) < self.live.size:
                self.live, theta = self.live[kept], theta[kept]
            self.theta = theta
            lo = hi
        self.t = until

    def _record(self, lo: int, hi: int, members: np.ndarray) -> None:
        """Record rows [lo, hi) of ``members`` in one metric_records pass over
        their stacked rows, each member's rows in turn."""
        b = hi - lo
        norms, grams = compress_grams(self._raw_grams[members, :b])
        losses = self.losses[members, lo:hi]
        # prev_losses: one iteration back, and the losses themselves at t = 0.
        prev = (self.losses[members, lo - 1:hi - 1] if lo
                else np.concatenate((losses[:, :1], losses[:, :-1]), axis=1))
        finite = (np.isfinite(losses).all(axis=2) & np.isfinite(norms).all(axis=2)
                  & np.isfinite(grams).all(axis=(2, 3)))
        for i in np.flatnonzero(~finite.all(axis=1)):
            r, t = members[i], lo + int(finite[i].argmin())
            last = (f"last finite losses {self.losses[r, t - 1].tolist()} at iteration {t - 1}"
                    if t else "no finite iteration before it")
            self.errors[r] = DivergenceError(
                f"training diverged at iteration {t}: non-finite task losses or "
                f"gradients; {last}; weights {self.weights[r, t].tolist()}")
        ok = finite.all(axis=1)
        members, norms, grams, losses, prev = (a[ok] for a in (members, norms, grams, losses, prev))
        n, k = members.size, norms.shape[-1]
        if not n:
            return
        try:
            block = metric_records(
                norms.reshape(-1, k), grams.reshape(-1, k, k), losses.reshape(-1, k),
                np.repeat(self.losses[members, 0], b, axis=0), prev.reshape(-1, k),
                self.weights[members, lo:hi].reshape(-1, k), np.tile(np.arange(lo, hi), n))
        except ValueError as exc:
            if n == 1:
                self.errors[members[0]] = exc
            else:   # find which members fail, each with the error its own run raises
                for i in range(n):
                    self._record(lo, hi, members[i:i + 1])
            return
        flags = block.pop("degenerate_flags")
        for i, r in enumerate(members):
            self.flags[r] += flags[i * b:(i + 1) * b]
        for name, values in block.items():
            column = self.metrics.get(name)
            if column is None:
                column = self.metrics[name] = np.empty((*self.losses.shape[:2], *values.shape[1:]))
            column[members, lo:hi] = values.reshape(n, b, *values.shape[1:])
        self.grad_norms[members, lo:hi] = norms
        self.gram_upper[members, lo:hi] = grams[self._upper]

    def window(self, start: int, stride: int) -> WindowBuffer:
        """Every ``stride``-th recorded row of the first member from iteration
        ``start`` on.  The Grams are rebuilt from their upper triangles,
        bit-equal to the recorded ones, which :func:`compress_grams` makes
        exactly symmetric."""
        if 0 in self.errors:
            raise self.errors[0]
        rows = slice(start, self.t, stride)
        upper = self.gram_upper[0, rows]
        k = self.grad_norms.shape[2]
        grams = np.empty((len(upper), k, k))
        i, j = self._upper[1:]
        grams[:, i, j] = upper
        grams[:, j, i] = upper
        return WindowBuffer(self.grad_norms[0, rows], grams, self.losses[0, rows])

    def columns(self, member: int) -> dict:
        """The metric columns of ``member``, its degenerate flags first."""
        return {"degenerate_flags": tuple(self.flags[member]),
                **{name: column[member] for name, column in self.metrics.items()}}

    def finish(self, member: int, window_weights, final_weight, reports=()) -> TrainingRun:
        """The run of ``member``."""
        if member in self.errors:
            raise self.errors[member]
        theta = self.theta[int(np.flatnonzero(self.live == member)[0])]
        final_losses = tuple(float(v) for v in self.problem.task_losses(theta))
        return TrainingRun(theta_final=theta, final_losses=final_losses,
                           metrics=self.columns(member),
                           window_weights=tuple(window_weights), final_weight=final_weight,
                           weights=self.weights[member], losses=self.losses[member],
                           grad_norms=self.grad_norms[member],
                           gram_upper=self.gram_upper[member], solver_reports=tuple(reports))


def _window_step(kind: CostKind, window: WindowBuffer, current: WeightVector, seed: int,
                 index: int) -> tuple[WeightVector, SolverReport]:
    """Solve window ``index`` from the weights ``current``: the weights kept
    and the report.  Finite rows can still overflow the window objective (M
    for the quadratic kinds, the cost at ``current`` for low-cond), a
    DivergenceError for the caller to place in the run.  A solve that
    regresses the window cost, even at float level, keeps ``current``."""
    incumbent = window_cost(kind, current, window)
    m = quadratic_form(kind, window) if kind.is_quadratic else None
    if not np.isfinite(incumbent if m is None else m).all():
        raise DivergenceError("non-finite window objective")
    if m is not None:
        report = solve_quadratic(m)
    else:
        child = seed_sequence(seed, _SOLVER_STREAM, index)
        report = solve_general(lambda wv: window_cost(kind, wv, window), w_init=current,
                               seed=int(child.generate_state(1, dtype=np.uint64)[0]))
    if report.cost_at_w_star <= incumbent * (1.0 + 1e-12) + 1e-15:
        return report.w_star, report
    logger.warning("window %d solve regressed (%.3e > %.3e); keeping previous "  # pragma: no cover
                   "weights", index, report.cost_at_w_star, incumbent)
    return current, report


def run_autoscale(problem, config: AutoScaleConfig) -> TrainingRun:
    """Full two-phase run on ``problem`` under ``config``."""
    k = problem.num_tasks
    current = uniform_weights(k)
    window_weights: list[WeightVector] = []
    reports: list[SolverReport] = []
    stride = config.snapshot_stride
    descent = _Descent(problem, config.total_iters)
    losses = descent.losses[0]

    for w_index in range(config.num_windows):
        start = descent.t
        descent.run(lambda t: current, start + config.window_size)
        window = descent.window(start, stride)
        # The window's last row, recorded on its own, must give the block's
        # record of that iteration: the solver and the trace read one row.
        t = start + (len(window) - 1) * stride
        grad = GradientSnapshot(norms=window.norms[-1], gram=window.grams[-1], iteration=t)
        loss = LossSnapshot(losses=window.losses[-1], initial_losses=losses[0],
                            prev_losses=losses[max(t - 1, 0)], iteration=t)
        if metric_record(grad, loss, current) != record_at(descent.columns(0), t, t, current.w):
            logger.warning("window %d: iteration %d records differently alone "
                           "than in its block", w_index, t)
        try:
            current, report = _window_step(config.cost_kind, window, current, config.seed, w_index)
        except DivergenceError as exc:
            raise DivergenceError(
                f"training diverged in window {w_index} (iterations {start} to "
                f"{descent.t - 1}): {exc}; largest task loss "
                f"{float(losses[start:descent.t].max())!r}") from None
        reports.append(report)
        window_weights.append(current)

    if config.num_windows > 0:
        final_weight = aggregate_final_weight(window_weights,
                                              config.aggregation_size)
    else:
        final_weight = uniform_weights(k)
    descent.run(lambda t: final_weight, config.total_iters)
    return descent.finish(0, window_weights, final_weight, reports)


def run_fixed_scalarization(problem, weights, total_iters: int):
    """Train with constant task weights for the whole budget.

    ``weights`` is a WeightVector, or a plain length-K array (accepted so the
    single-task case K=1 works, where the feasible-set type does not apply),
    and the result is its TrainingRun.  A list or tuple of such weights trains
    one member per weight in lockstep and returns a list, in order, of each
    member's TrainingRun or of the ValueError (such as a DivergenceError) its
    own run raises; a member that fails leaves the others running.
    """
    if total_iters < 1:
        raise ValueError("total_iters must be >= 1")
    k = problem.num_tasks
    many = isinstance(weights, (list, tuple)) and bool(weights) and not np.isscalar(weights[0])
    batch = list(weights) if many else [weights]
    rows = [wv.w if isinstance(wv, WeightVector) else np.asarray(wv, float) for wv in batch]
    for w in rows:
        if w.shape != (k,):
            raise ValueError(f"weights must have length {k}, got shape {w.shape}")
    w_arr = np.array(rows)
    descent = _Descent(problem, total_iters, len(rows))
    descent.run(lambda t: w_arr, total_iters)
    finals = [wv if isinstance(wv, WeightVector) else WeightVector(w) if k >= 2 else None
              for wv, w in zip(batch, rows)]
    if not many:
        return descent.finish(0, (), finals[0])
    return [descent.errors[r] if r in descent.errors else descent.finish(r, (), final)
            for r, final in enumerate(finals)]


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
    return descent.finish(0, (), final_wv)
