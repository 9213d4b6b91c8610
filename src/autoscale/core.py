"""Shared domain types for multi-task weight selection.

Everything downstream (metrics, costs, solvers, the scheduler) speaks in terms
of the types defined here: feasible weight vectors, per-iteration gradient and
loss snapshots, windows of the same values as (T, K) and (T, K, K) columns,
and per-iteration metric records.  Gradients are never stored whole; a
snapshot or window row keeps only per-task norms and the K x K Gram matrix,
which is sufficient for every metric and cost in the package.

All types are immutable after construction and validate their invariants
eagerly, so a constructed value is always safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Smallest admissible task weight.  Keeps every task marginally active and
#: every weighted Gram matrix away from exact rank collapse.
DEFAULT_WEIGHT_FLOOR = 1e-4

#: Absolute tolerance on the sum-to-K constraint of a weight vector.
WEIGHT_SUM_TOL = 1e-8

_U64 = (1 << 64) - 1


class DegenerateInputError(ValueError):
    """Input is too degenerate for the requested quantity.

    Examples: a gradient-magnitude ratio of two zero-norm gradients, a cosine
    against a zero gradient, a condition number of an all-zero Gram matrix.
    Callers that aggregate over task pairs may catch this, skip the pair and
    record a flag instead of failing the whole record.
    """


class DivergenceError(ValueError):
    """Training produced a non-finite task loss or gradient; the message names
    the iteration, the last finite task losses and the weights in effect."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    """Copy ``values`` into a read-only ndarray (defensive immutability)."""
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """The seed sequence of one 64-bit seed and a stream key."""
    return np.random.SeedSequence(entropy=int(seed) & _U64,
                                  spawn_key=tuple(int(k) for k in key))


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from one 64-bit seed and a stream key.

    Every consumer of randomness in the package (problem construction, weight
    sampling, per-iteration random weighting, solver restarts) draws from its
    own counter-based stream, so adding or reordering consumers never perturbs
    the draws of another.
    """
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *key)))


# ---------------------------------------------------------------------------
# weight vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeightVector:
    """A feasible task-weight vector: w_i >= floor and sum(w) == K.

    Construct through :func:`make_weight_vector` (projects arbitrary raw
    values) or :func:`autoscale.solver.project_feasible`; direct construction
    only accepts already-feasible values.
    """

    w: np.ndarray
    floor: float = DEFAULT_WEIGHT_FLOOR

    def __post_init__(self) -> None:
        arr = _frozen_array(self.w)
        object.__setattr__(self, "w", arr)
        if arr.ndim != 1:
            raise ValueError("weight vector must be one-dimensional")
        k = arr.size
        if k < 2:
            raise ValueError(f"weight vector needs at least 2 tasks, got {k}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weight vector entries must be finite")
        if not (0.0 < self.floor < 1.0):
            raise ValueError(f"weight floor must lie in (0, 1), got {self.floor}")
        if np.any(arr < self.floor):
            raise ValueError(
                f"weight entries must be >= floor {self.floor}: {arr.tolist()}")
        if abs(float(arr.sum()) - k) > WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights must sum to K={k} within {WEIGHT_SUM_TOL}, "
                f"got {float(arr.sum())!r}")

    @property
    def k(self) -> int:
        return self.w.size

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.w)

    def __repr__(self) -> str:  # keep reprs short in logs and test output
        body = ", ".join(f"{v:.6g}" for v in self.w)
        return f"WeightVector([{body}])"


def make_weight_vector(raw, floor: float = DEFAULT_WEIGHT_FLOOR) -> WeightVector:
    """Project raw nonnegative values onto the feasible weight set.

    Computes the fixed point of clamp-below-floor followed by rescale-to-sum-K:
    coordinates that cannot stay above the floor after rescaling are pinned at
    exactly ``floor`` and the remaining budget ``K - floor * #pinned`` is
    distributed over the free coordinates proportionally to their raw values.
    Idempotent on its own output.

    Raises ``ValueError`` for non-finite input, fewer than two entries, or
    input with no positive mass.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1:
        raise ValueError("raw weights must be one-dimensional")
    k = arr.size
    if k < 2:
        raise ValueError(f"need at least 2 tasks, got {k}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("raw weights must be finite")
    work = np.maximum(arr, 0.0)
    if not np.any(work > 0.0):
        raise ValueError("raw weights have no positive mass to distribute")

    pinned = np.zeros(k, dtype=bool)
    for _ in range(k):
        free = ~pinned
        budget = k - floor * int(pinned.sum())
        scale = budget / float(work[free].sum())
        scaled = np.where(pinned, floor, work * scale)
        violating = free & (scaled < floor)
        if not violating.any():
            return WeightVector(scaled, floor)
        pinned |= violating
    raise AssertionError("floor projection failed to settle")  # pragma: no cover


def uniform_weights(k: int, floor: float = DEFAULT_WEIGHT_FLOOR) -> WeightVector:
    """The all-ones weight vector (unitary scalarization)."""
    return WeightVector(np.ones(k), floor)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GradientSnapshot:
    """Compressed per-task gradients at one iteration.

    Only the per-task Euclidean norms and the K x K Gram matrix of inner
    products survive; the raw (possibly huge) gradient vectors do not.  Every
    downstream metric and cost depends on the gradients only through these.
    """

    norms: np.ndarray
    gram: np.ndarray
    iteration: int = 0

    def __post_init__(self) -> None:
        norms = _frozen_array(self.norms)
        gram = _frozen_array(self.gram)
        object.__setattr__(self, "norms", norms)
        object.__setattr__(self, "gram", gram)
        k = norms.size
        if norms.ndim != 1 or k < 1:
            raise ValueError("norms must be a non-empty vector")
        if gram.shape != (k, k):
            raise ValueError(f"gram must be {k}x{k}, got {gram.shape}")
        raise_first_fault(gradient_faults(norms[None], gram[None]))
        if not (isinstance(self.iteration, (int, np.integer)) and self.iteration >= 0):
            raise ValueError(f"iteration must be a nonnegative int, got {self.iteration!r}")
        object.__setattr__(self, "iteration", int(self.iteration))

    @property
    def k(self) -> int:
        return self.norms.size


def snapshot_from_gradients(task_gradients, iteration: int = 0) -> GradientSnapshot:
    """Compress a stack of per-task gradient vectors into a snapshot.

    ``task_gradients`` is a (K, D) array-like: one row per task.  Norms and
    the Gram matrix are computed here so the two stay mutually consistent.
    """
    g = np.asarray(task_gradients, dtype=float)
    if g.ndim != 2:
        raise ValueError(f"expected a (K, D) gradient stack, got shape {g.shape}")
    norms, gram = compress_grams(g @ g.T)
    return GradientSnapshot(norms=norms, gram=gram, iteration=iteration)


def compress_grams(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Norms and snapshot Grams from (..., K, K) raw ``g @ g.T`` products:
    symmetrized (a floating matmul may be asymmetric in the last bit), with
    the diagonal rewritten as the squared norms so both views agree exactly."""
    gram = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    norms = np.sqrt(np.maximum(np.diagonal(gram, axis1=-2, axis2=-1), 0.0))
    diag = np.arange(gram.shape[-1])
    gram[..., diag, diag] = norms ** 2
    return norms, gram


def gradient_faults(norms: np.ndarray, grams: np.ndarray) -> list:
    """(failing rows, message) of each GradientSnapshot value check, in order,
    over stacked (B, K) norms and (B, K, K) grams."""
    with np.errstate(invalid="ignore", over="ignore"):
        sq = norms ** 2
        scale = np.maximum(1.0, np.abs(grams).max(axis=(1, 2)))
        bound = norms[:, :, None] * norms[:, None, :] * (1.0 + 1e-8) + 1e-12
        return [
            (~(np.isfinite(norms).all(axis=1) & np.isfinite(grams).all(axis=(1, 2))),
             "snapshot entries must be finite"),
            ((norms < 0).any(axis=1), "gradient norms must be nonnegative"),
            (np.abs(grams - np.swapaxes(grams, 1, 2)).max(axis=(1, 2)) > 1e-10 * scale,
             "gram matrix must be symmetric (1e-10 relative)"),
            ((np.abs(np.diagonal(grams, axis1=1, axis2=2) - sq)
              > 1e-8 * np.maximum(1.0, sq)).any(axis=1),
             "gram diagonal must equal squared norms (1e-8 relative)"),
            ((np.abs(grams) > bound).any(axis=(1, 2)),
             "gram entries violate the Cauchy-Schwarz bound"),
        ]


def loss_faults(losses: np.ndarray, initial: np.ndarray, prev: np.ndarray) -> list:
    """The LossSnapshot value checks over stacked (B, K) rows, in order."""
    return [
        (~np.isfinite(losses).all(axis=1), "losses must be finite"),
        (~np.isfinite(initial).all(axis=1), "initial_losses must be finite"),
        (~np.isfinite(prev).all(axis=1), "prev_losses must be finite"),
        ((losses < 0).any(axis=1), "losses must be nonnegative"),
        ((initial <= 0).any(axis=1), "initial_losses must be strictly positive"),
    ]


def raise_first_fault(faults) -> None:
    """Raise the first failed check of the first failing row, as building the
    rows' snapshots one at a time would."""
    failing = [(int(rows.argmax()), n) for n, (rows, _) in enumerate(faults) if rows.any()]
    if failing:
        raise ValueError(faults[min(failing)[1]][1])


@dataclass(frozen=True, eq=False)
class LossSnapshot:
    """Per-task losses at one iteration, plus the references ratios need.

    ``initial_losses`` are the task losses at iteration 0 of the same run
    (strictly positive so progress ratios are well defined);  ``prev_losses``
    are the values from one iteration earlier.  At iteration 0 the convention
    is ``prev_losses == losses`` so one-step descent ratios start at one.
    """

    losses: np.ndarray
    initial_losses: np.ndarray
    prev_losses: np.ndarray
    iteration: int = 0

    def __post_init__(self) -> None:
        losses = _frozen_array(self.losses)
        initial = _frozen_array(self.initial_losses)
        prev = _frozen_array(self.prev_losses)
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "initial_losses", initial)
        object.__setattr__(self, "prev_losses", prev)
        k = losses.size
        if losses.ndim != 1 or k < 1:
            raise ValueError("losses must be a non-empty vector")
        if initial.shape != (k,) or prev.shape != (k,):
            raise ValueError("losses, initial_losses and prev_losses must share length")
        raise_first_fault(loss_faults(losses[None], initial[None], prev[None]))
        if not (isinstance(self.iteration, (int, np.integer)) and self.iteration >= 0):
            raise ValueError(f"iteration must be a nonnegative int, got {self.iteration!r}")
        object.__setattr__(self, "iteration", int(self.iteration))

    @property
    def k(self) -> int:
        return self.losses.size


@dataclass(frozen=True, eq=False)
class WindowBuffer:
    """A completed observation window as read-only columns, oldest row first:
    gradient ``norms`` (T, K), Gram matrices ``grams`` (T, K, K) and task
    ``losses`` (T, K), which is what the window costs read.

    Every row passes the value checks of the snapshot types, and the first
    failing row raises their message.  An empty window has zero-size columns.
    """

    norms: np.ndarray
    grams: np.ndarray
    losses: np.ndarray

    def __post_init__(self) -> None:
        for name in ("norms", "grams", "losses"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        norms, grams, losses = self.norms, self.grams, self.losses
        shape = norms.shape
        if norms.ndim != 2 or grams.shape != (*shape, shape[-1]) or losses.shape != shape:
            raise ValueError(
                "window columns must be norms (T, K), grams (T, K, K) and losses "
                f"(T, K), got {norms.shape}, {grams.shape} and {losses.shape}")
        if norms.size:
            raise_first_fault(gradient_faults(norms, grams) + [
                (~np.isfinite(losses).all(axis=1), "losses must be finite"),
                ((losses < 0).any(axis=1), "losses must be nonnegative")])

    @property
    def k(self) -> int:
        return self.norms.shape[1]

    def __len__(self) -> int:
        return self.norms.shape[0]


# ---------------------------------------------------------------------------
# metric records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricRecord:
    """One iteration's worth of optimization-health metrics.

    Pair-aggregated values (``gms_mean``, ``gcs_mean``) are ``None`` when every
    task pair was degenerate (and flagged as such); per-task fields are plain
    float tuples so records compare and serialize exactly.
    """

    iteration: int
    gms_mean: float | None
    gcs_mean: float | None
    cond_number: float
    ilr: tuple[float, ...]
    ilr_std: float
    ldr: tuple[float, ...]
    rl: tuple[float, ...]
    rl_std: float
    weights: tuple[float, ...]
    degenerate_flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("iteration must be nonnegative")
        if self.gms_mean is not None and not 0.0 <= self.gms_mean <= 1.0:
            raise ValueError(f"gms_mean out of [0, 1]: {self.gms_mean}")
        if self.gcs_mean is not None and not -1.0 <= self.gcs_mean <= 1.0:
            raise ValueError(f"gcs_mean out of [-1, 1]: {self.gcs_mean}")
        if not self.cond_number >= 1.0:
            raise ValueError(f"cond_number must be >= 1, got {self.cond_number}")
        if self.rl and abs(sum(self.rl) - 1.0) > 1e-12:
            raise ValueError(f"relative losses must sum to 1, got {sum(self.rl)!r}")
        for name in ("ilr", "ldr", "rl", "weights", "degenerate_flags"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not all(map(math.isfinite, (self.cond_number, self.ilr_std, self.rl_std,
                                       *self.ilr, *self.ldr, *self.rl, *self.weights))):
            bad = [name for name in ("cond_number", "ilr_std", "rl_std", "ilr", "ldr",
                                     "rl", "weights")
                   if not np.isfinite(getattr(self, name)).all()]
            raise ValueError(f"metric record values must be finite: {', '.join(bad)}")
