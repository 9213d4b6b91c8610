"""Synthetic multi-task problems and baseline protocols.

Two closed families:

* :class:`QuadraticFamily` — per-task losses s_k * 0.5 (theta-c_k)^T Q_k
  (theta-c_k) + b_k.  Exact single-task optima (b_k) make it the
  ground-truth testbed.
* :class:`MLPRegressionFamily` — a shared two-layer tanh trunk with per-task
  linear heads on synthetic regression data; exact reverse-mode gradients are
  implemented by hand.  Metrics look at trunk gradients only (the shared
  slice); heads still train, since each task's gradient covers its own head.

Plus the surrounding protocol pieces: single-task baselines, weight-set
samplers for sweeps, and the per-iteration random-weighting baseline.

A problem object exposes ``num_tasks``, ``full_dim``, ``step_size``,
``shared_slice``, ``reference_optima``, ``initial_theta()``,
``task_losses(theta)`` and ``task_gradients(theta, tasks=None)``; training
is plain fixed-step descent on the weighted total loss.  Without ``tasks``
the gradients are the full (K, full_dim) matrix; with it, only the listed
tasks are computed, row ``i`` for task ``tasks[i]``, and an entry that is not
an int in [0, K) raises ``ValueError``.  Both also take an (R, full_dim)
batch of parameters, and the gradients an (R, T) task array, one row of
tasks per parameter row (see :class:`MultiTaskProblem`).  The K single-task
baselines step in lockstep, each asking for its own task's row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .core import WeightVector, _frozen_array, make_weight_vector, spawn_rng

STREAM_PROBLEM = 0x01
STREAM_DATA = 0x02
STREAM_WEIGHT_SETS = 0x03
STREAM_RLW = 0x04

WEIGHT_SAMPLING_SCHEMES = ("dirichlet-uniform", "log-uniform-grid")

#: The log-uniform scheme draws magnitude ratios in [1 / span, span].
LOG_UNIFORM_SPAN = 10.0


class MultiTaskProblem(Protocol):
    """Structural contract every problem family satisfies.

    ``theta`` is one (full_dim,) parameter vector or an (R, full_dim) batch;
    a batch adds a leading R axis to each result, row r equal bit for bit to
    the result for ``theta[r]`` alone.
    """

    num_tasks: int
    full_dim: int
    step_size: float
    shared_slice: slice
    reference_optima: tuple[float, ...] | None

    def initial_theta(self) -> np.ndarray: ...

    def task_losses(self, theta: np.ndarray) -> np.ndarray: ...

    def task_gradients(self, theta: np.ndarray,
                       tasks: Sequence[int] | None = None) -> np.ndarray:
        """(len(tasks), full_dim) gradients, row i for task ``tasks[i]``, or
        (R, T, full_dim) for a batch.

        ``tasks=None`` is the full (K, full_dim) matrix.  For a batch,
        ``tasks`` is a sequence shared by every row or an (R, T) array whose
        row r lists the tasks of ``theta[r]``; a task array of another row
        count, or an entry that is not an int in [0, K), raises
        ``ValueError``.
        """
        ...


def _task_rows(tasks, k: int, theta: np.ndarray) -> np.ndarray:
    """``tasks`` as an int array, (T,) or (R, T) for an (R, full_dim) ``theta``,
    after checking each entry is an int in [0, k)."""
    table = np.ndim(tasks) == 2
    rows = [list(row) for row in tasks] if table else [list(tasks)]
    if table and (theta.ndim != 2 or len(rows) != len(theta)):
        raise ValueError(f"{len(rows)} rows of tasks for parameters of shape {theta.shape}")
    for t in (t for row in rows for t in row):
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not 0 <= t < k:
            raise ValueError(f"task index {t!r} is not an int in [0, K) for K = {k}")
    return np.array(rows if table else rows[0], dtype=np.intp)


# ---------------------------------------------------------------------------
# quadratic family
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadraticFamily:
    """K convex quadratic tasks over a shared parameter vector.

    l_k(theta) = scale_k * 0.5 * (theta - center_k)^T Q_k (theta - center_k)
    + offset_k.  Every parameter is shared (the shared slice is the whole
    vector) and the exact per-task optimum is offset_k.
    """

    curvatures: np.ndarray   # (K, D, D), each symmetric PSD
    centers: np.ndarray      # (K, D)
    scales: np.ndarray       # (K,)
    offsets: np.ndarray      # (K,)
    step_size: float
    theta0: np.ndarray       # (D,)

    def __post_init__(self) -> None:
        for name in ("curvatures", "centers", "scales", "offsets", "theta0"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        q, c, s, b, t0 = self.curvatures, self.centers, self.scales, self.offsets, self.theta0
        k, d = c.shape
        if q.shape != (k, d, d):
            raise ValueError(f"curvatures must be (K, D, D) = {(k, d, d)}, got {q.shape}")
        if s.shape != (k,) or b.shape != (k,):
            raise ValueError("scales and offsets must have length K")
        if t0.shape != (d,):
            raise ValueError(f"theta0 must have length {d}")
        if np.any(s <= 0):
            raise ValueError("scales must be strictly positive")
        if np.any(b < 0):
            raise ValueError("offsets must be nonnegative")
        if float(np.abs(q - q.transpose(0, 2, 1)).max()) > 1e-10 * max(1.0, float(np.abs(q).max())):
            raise ValueError("curvature matrices must be symmetric")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")

    @property
    def num_tasks(self) -> int:
        return self.centers.shape[0]

    @property
    def full_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def shared_slice(self) -> slice:
        return slice(0, self.full_dim)

    @property
    def reference_optima(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.offsets)

    def initial_theta(self) -> np.ndarray:
        return np.array(self.theta0, copy=True)

    def task_losses(self, theta: np.ndarray) -> np.ndarray:
        diffs = theta[..., None, :] - self.centers
        quad = np.einsum("...kd,kde,...ke->...k", diffs, self.curvatures, diffs)
        return 0.5 * self.scales * quad + self.offsets

    def task_gradients(self, theta: np.ndarray,
                       tasks: Sequence[int] | None = None) -> np.ndarray:
        centers, curvatures, scales = self.centers, self.curvatures, self.scales
        if tasks is not None:
            rows = _task_rows(tasks, self.num_tasks, theta)
            centers, curvatures, scales = centers[rows], curvatures[rows], scales[rows]
        diffs = theta[..., None, :] - centers
        return scales[..., None] * np.einsum("...kde,...ke->...kd", curvatures, diffs)


def _equiangular_directions(k: int, d: int, conflict_angle: float,
                            rng: np.random.Generator) -> np.ndarray:
    """K unit vectors in R^d with all pairwise angles equal to the target."""
    if d < k:
        raise ValueError(f"dimension {d} too small for {k} tasks")
    c = math.cos(conflict_angle)
    if k >= 2 and (c > 1.0 or c < -1.0 / (k - 1) - 1e-12):
        raise ValueError(
            f"no {k} unit vectors can pairwise meet at angle {conflict_angle} "
            f"(cos = {c:.4f} below the -1/(K-1) bound)")
    gram = np.full((k, k), c)
    np.fill_diagonal(gram, 1.0)
    lam, vec = np.linalg.eigh(gram)
    factor = vec * np.sqrt(np.maximum(lam, 0.0))[None, :]   # rows have Gram `gram`
    dirs = np.zeros((k, d))
    dirs[:, :k] = factor
    # Random rotation so instances differ across seeds without changing the
    # mutual geometry.
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))[None, :]
    return dirs @ q.T


def make_quadratic_problem(k: int, d: int, scales, conflict_angle: float,
                           seed: int = 0, offsets=None,
                           step_size: float | None = None) -> QuadraticFamily:
    """Quadratic instance with controlled gradient geometry at the start.

    At theta0 the task-gradient directions meet pairwise at
    ``conflict_angle`` and the gradient norms are proportional to ``scales``
    (identity curvature, centers at unit distance).  Infeasible angle /
    dimension combinations raise.
    """
    scales = np.asarray(scales, dtype=float)
    if scales.shape != (k,):
        raise ValueError(f"scales must have length {k}")
    if not np.all(scales > 0):          # before the default step divides by them
        raise ValueError("scales must be strictly positive")
    rng = spawn_rng(seed, STREAM_PROBLEM)
    dirs = _equiangular_directions(k, d, conflict_angle, rng)
    centers = -dirs
    if offsets is None:
        offsets = np.ones(k)
    if step_size is None:
        step_size = 1.0 / (k * float(scales.max()))
    return QuadraticFamily(
        curvatures=np.broadcast_to(np.eye(d), (k, d, d)).copy(),
        centers=centers,
        scales=scales,
        offsets=np.asarray(offsets, dtype=float),
        step_size=step_size,
        theta0=np.zeros(d),
    )


def imbalanced_reference_problem(seed: int = 0) -> QuadraticFamily:
    """The three-task imbalanced quadratic used by the trend studies.

    Task stiffness spans a 16x range while every task starts with the same
    gradient norm (centers sit at distance inversely proportional to
    stiffness, along orthogonal directions), so every run departs from a
    perfectly balanced state and diverges from it according to its weights.

    The offsets place the best fixed weights between two landmarks of the
    weight simplex: the point whose limit state has equal raw gradient norms
    and the self-consistent point whose weights are inversely proportional to
    its own limit norms.  Runs that keep norms balanced (high magnitude
    similarity, low condition number) therefore sit near the optimum, while
    weightings that let one task dominate drift away from it and degrade.

    The step size is deliberately small: over a few thousand iterations even
    the stiffest weightings stay short of full stationarity, where the
    weighted gradient sum vanishes, the per-task gradients become linearly
    dependent, and the measured condition number saturates at its floor.
    """
    stiffness = np.array([1.0, 4.0, 16.0])
    reach = 2.0                                  # common initial gradient norm
    offsets = np.array([1.2196, 1.0, 2.2087])
    k, d = 3, 6
    rng = spawn_rng(seed, STREAM_PROBLEM)
    dirs = _equiangular_directions(k, d, math.pi / 2.0, rng)
    centers = (reach / stiffness)[:, None] * dirs
    return QuadraticFamily(
        curvatures=np.broadcast_to(np.eye(d), (k, d, d)).copy(),
        centers=centers,
        scales=stiffness,
        offsets=offsets,
        step_size=7e-5,
        theta0=np.zeros(d),
    )


# ---------------------------------------------------------------------------
# MLP regression family
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MLPRegressionFamily:
    """Shared two-layer tanh trunk, one linear head per task, MSE losses.

    Parameters pack as [W1 | b1 | W2 | b2 | heads...]; the shared slice covers
    the trunk.  Gradients are exact reverse-mode, written out by hand.  An
    (R, D) batch takes one forward pass and one backward pass for every
    (row, task) pair, stacked: each product is one matmul per pair and each
    sum runs along the axis a single row's does, so every row rounds as it
    would alone.
    """

    x: np.ndarray          # (n, input_dim)
    y: np.ndarray          # (K, n)
    width: int
    theta0: np.ndarray
    step_size: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "theta0"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        x, y, t0 = self.x, self.y, self.theta0
        if x.ndim != 2 or y.ndim != 2 or y.shape[1] != x.shape[0]:
            raise ValueError("x must be (n, input_dim) and y (K, n)")
        if t0.shape != (self._layout(x.shape[1], self.width, y.shape[0])[-1],):
            raise ValueError("theta0 length does not match the architecture")
        object.__setattr__(self, "_memo", None)

    @staticmethod
    def _layout(input_dim: int, width: int, k: int):
        n_w1 = input_dim * width
        n_b1 = width
        n_w2 = width * width
        n_b2 = width
        trunk = n_w1 + n_b1 + n_w2 + n_b2
        per_head = width + 1
        total = trunk + k * per_head
        return n_w1, n_b1, n_w2, n_b2, trunk, per_head, total

    @property
    def num_tasks(self) -> int:
        return self.y.shape[0]

    @property
    def input_dim(self) -> int:
        return self.x.shape[1]

    @property
    def full_dim(self) -> int:
        return self.theta0.size

    @property
    def trunk_dim(self) -> int:
        return self._layout(self.input_dim, self.width, self.num_tasks)[4]

    @property
    def shared_slice(self) -> slice:
        return slice(0, self.trunk_dim)

    @property
    def reference_optima(self) -> None:
        return None

    def initial_theta(self) -> np.ndarray:
        return np.array(self.theta0, copy=True)

    def _unpack(self, theta: np.ndarray):
        """Views of an (R, full_dim) batch: W1, b1, W2, b2 and the (R, K,
        width + 1) heads."""
        i, w, k = self.input_dim, self.width, self.num_tasks
        n_w1, n_b1, n_w2, n_b2, trunk, per_head, _ = self._layout(i, w, k)
        r = len(theta)
        pos = 0
        w1 = theta[:, pos:pos + n_w1].reshape(r, i, w); pos += n_w1
        b1 = theta[:, pos:pos + n_b1]; pos += n_b1
        w2 = theta[:, pos:pos + n_w2].reshape(r, w, w); pos += n_w2
        b2 = theta[:, pos:pos + n_b2]; pos += n_b2
        heads = theta[:, trunk:].reshape(r, k, per_head)
        return w1, b1, w2, b2, heads

    def _forward(self, theta: np.ndarray):
        """h1, h2 (R, n, width) and preds (R, n, K) of an (R, full_dim) batch.

        The last batch's are kept with a copy of its values, so a step's
        losses and gradients share one pass; a NaN never equals the copy."""
        if self._memo is not None and np.array_equal(self._memo[0], theta):
            return self._memo[1]
        w1, b1, w2, b2, heads = self._unpack(theta)
        h1 = np.tanh(self.x @ w1 + b1[:, None])
        h2 = np.tanh(h1 @ w2 + b2[:, None])
        preds = h2 @ heads[..., :-1].transpose(0, 2, 1) + heads[:, None, :, -1]
        object.__setattr__(self, "_memo", (theta.copy(), (h1, h2, preds)))
        return h1, h2, preds

    def task_losses(self, theta: np.ndarray) -> np.ndarray:
        preds = self._forward(np.atleast_2d(theta))[2]
        losses = np.mean((preds.transpose(0, 2, 1) - self.y) ** 2, axis=-1)    # (R, K)
        return losses if theta.ndim == 2 else losses[0]

    def task_gradients(self, theta: np.ndarray,
                       tasks: Sequence[int] | None = None) -> np.ndarray:
        batch = np.atleast_2d(theta)
        r, k, n = len(batch), self.num_tasks, self.x.shape[0]
        _, _, w2, _, heads = self._unpack(batch)
        h1, h2, preds = self._forward(batch)
        idx = np.arange(k) if tasks is None else _task_rows(tasks, k, theta)
        idx = np.broadcast_to(idx, (r, idx.shape[-1]))                        # (R, T)
        rows, cols = np.arange(r)[:, None], np.arange(idx.shape[1])
        # One backward pass per (row, task) pair, stacked on the (R, T) axes.
        d_pred = 2.0 * (preds.transpose(0, 2, 1)[rows, idx] - self.y[idx]) / n   # (R, T, n)
        d_a2 = d_pred[..., None] * heads[rows, idx, None, :-1] * (1.0 - h2 ** 2)[:, None]
        d_a1 = (d_a2 @ w2.transpose(0, 2, 1)[:, None]) * (1.0 - h1 ** 2)[:, None]
        d_w1 = self.x.T @ d_a1
        d_w2 = h1.transpose(0, 2, 1)[:, None] @ d_a2
        head = np.zeros((*idx.shape, k, self.width + 1))     # only task t's head moves
        head[rows, cols, idx, :-1] = (h2.transpose(0, 2, 1)[:, None] @ d_pred[..., None])[..., 0]
        head[rows, cols, idx, -1] = d_pred.sum(axis=-1)
        grads = np.concatenate([d_w1.reshape(*idx.shape, -1), d_a1.sum(axis=2),
                                d_w2.reshape(*idx.shape, -1), d_a2.sum(axis=2),
                                head.reshape(*idx.shape, -1)], axis=-1)
        return grads if theta.ndim == 2 else grads[0]


def make_mlp_problem(k: int, input_dim: int = 2, width: int = 16,
                     n_samples: int = 64, noise: float = 0.0,
                     seed: int = 0, step_size: float = 0.2,
                     ) -> MLPRegressionFamily:
    """Synthetic multi-task regression: targets from narrower teacher nets.

    With ``noise=0`` the targets are exactly realizable by the (wider)
    student architecture's function class up to optimization error.
    """
    if k < 1:
        raise ValueError("need at least one task")
    rng_data = spawn_rng(seed, STREAM_DATA)
    x = rng_data.standard_normal((n_samples, input_dim))
    teacher_width = max(2, width // 4)
    y = np.empty((k, n_samples))
    for t in range(k):
        w1 = rng_data.standard_normal((input_dim, teacher_width)) / math.sqrt(input_dim)
        b1 = 0.5 * rng_data.standard_normal(teacher_width)
        v = rng_data.standard_normal(teacher_width) / math.sqrt(teacher_width)
        y[t] = np.tanh(x @ w1 + b1) @ v
        if noise > 0:
            y[t] += noise * rng_data.standard_normal(n_samples)

    rng_init = spawn_rng(seed, STREAM_PROBLEM)
    layout = MLPRegressionFamily._layout(input_dim, width, k)
    n_w1, n_b1, n_w2, n_b2, trunk, per_head, total = layout
    theta0 = np.concatenate([
        rng_init.standard_normal(n_w1) / math.sqrt(input_dim),
        np.zeros(n_b1),
        rng_init.standard_normal(n_w2) / math.sqrt(width),
        np.zeros(n_b2),
        (rng_init.standard_normal(k * per_head) / math.sqrt(width + 1)),
    ])
    return MLPRegressionFamily(x=x, y=y, width=width, theta0=theta0,
                               step_size=step_size)


# ---------------------------------------------------------------------------
# baselines and samplers
# ---------------------------------------------------------------------------

def run_stl_baselines(problem, total_iters: int) -> np.ndarray:
    """Best per-task loss from independent single-task training runs.

    Task k trains alone (descent on l_k only) from the shared initial point;
    the returned baseline is the best loss seen along each run, which a NaN
    loss never replaces.  The K runs step in lockstep as the rows of a (K, D)
    batch, row k computing the gradient of task k alone.
    """
    if total_iters < 1:
        raise ValueError("total_iters must be >= 1")
    k = problem.num_tasks
    h = problem.step_size
    tasks = np.arange(k)[:, None]
    theta = np.repeat(np.array(problem.initial_theta(), dtype=float)[None], k, 0)
    best = np.full(k, np.inf)
    for _ in range(total_iters):
        losses = np.diagonal(problem.task_losses(theta))
        best = np.where(losses < best, losses, best)     # Python's min(best, loss)
        theta = theta - h * np.asarray(problem.task_gradients(theta, tasks))[:, 0]
    losses = np.diagonal(problem.task_losses(theta))
    return np.where(losses < best, losses, best)


def sample_weight_sets(n: int, k: int, seed: int = 0,
                       scheme: str = "dirichlet-uniform") -> list[WeightVector]:
    """N distinct feasible weight vectors under the named sampling scheme.

    ``dirichlet-uniform`` scatters uniformly over the weight simplex;
    ``log-uniform-grid`` covers magnitude ratios evenly in log space (for two
    tasks this is a deterministic symmetric ladder around (1, 1) spanning
    ratios 1/LOG_UNIFORM_SPAN .. LOG_UNIFORM_SPAN).
    """
    if n < 1:
        raise ValueError("need n >= 1 weight sets")
    if scheme not in WEIGHT_SAMPLING_SCHEMES:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of {WEIGHT_SAMPLING_SCHEMES}")
    out: list[WeightVector] = []
    seen: set[tuple[float, ...]] = set()

    if scheme == "log-uniform-grid" and k == 2:
        if n == 1:
            ratios = np.array([1.0])
        else:
            ratios = LOG_UNIFORM_SPAN ** np.linspace(-1.0, 1.0, n)
        for r in ratios:
            wv = make_weight_vector(np.array([r, 1.0]))
            key = wv.as_tuple()
            if key in seen:
                raise ValueError(f"ladder of {n} points collapsed a duplicate")
            seen.add(key)
            out.append(wv)
        return out

    rng = spawn_rng(seed, STREAM_WEIGHT_SETS)
    attempts = 0
    while len(out) < n:
        if attempts > 100 * n:
            raise RuntimeError("could not sample enough distinct weight sets")
        attempts += 1
        if scheme == "dirichlet-uniform":
            raw = rng.dirichlet(np.ones(k)) * k
        else:
            top = math.log(LOG_UNIFORM_SPAN)
            raw = np.exp(rng.uniform(-top, top, size=k))
        wv = make_weight_vector(raw)
        key = wv.as_tuple()
        if key not in seen:
            seen.add(key)
            out.append(wv)
    return out


def random_loss_weighting_step(k: int, seed: int, iteration: int) -> WeightVector:
    """Fresh feasible random weights for one iteration (mean is uniform).

    Deterministic in (seed, iteration): re-invocation reproduces the draw.
    """
    rng = spawn_rng(seed, STREAM_RLW, iteration)
    return make_weight_vector(rng.dirichlet(np.ones(k)) * k)
