"""Optimization-health metrics for multi-task training.

Six diagnostics computed from compressed gradient/loss snapshots:

* pairwise gradient magnitude similarity (1 = equal norms, 0 = full dominance),
* pairwise gradient cosine similarity (direction conflict),
* per-task inverse learning rate (current / initial loss),
* per-task one-step loss descending rate (current / previous loss),
* per-task relative loss (share of the total),
* condition number of the stacked task-gradient matrix.

The condition number never touches raw gradients: for the D x K stack G it
equals sqrt(lambda_max / lambda_min) of the K x K Gram matrix G^T G, so the
compressed snapshot is enough.  Near-singular Gram matrices are floored at
``COND_EPS_LAMBDA * lambda_max`` and the flooring is flagged.

A run records its iterations through :func:`metric_records`: one vectorized
pass over a block of stacked rows validates them as the snapshot and record
types would and computes every metric column; :func:`metric_record` is its
one-row case, returned as a :class:`MetricRecord`.
The per-snapshot functions define each metric one value at a time.
"""
from __future__ import annotations

import math
from dataclasses import fields
from typing import Callable, Sequence

import numpy as np

from .core import (
    DegenerateInputError,
    GradientSnapshot,
    LossSnapshot,
    MetricRecord,
    WeightVector,
    gradient_faults,
    loss_faults,
    raise_first_fault,
    record_faults,
)

#: Relative floor applied to the smallest Gram eigenvalue before the ratio.
COND_EPS_LAMBDA = 1e-12

_NO_POSITIVE_EIGENVALUE = "condition_number: Gram matrix has no positive eigenvalue"


def _check_pair(snapshot: GradientSnapshot, i: int, j: int) -> None:
    k = snapshot.k
    if not (0 <= i < k and 0 <= j < k):
        raise IndexError(f"task pair ({i}, {j}) out of range for K={k}")
    if i == j:
        raise ValueError(f"task pair must be distinct, got ({i}, {j})")


def grad_magnitude_similarity(snapshot: GradientSnapshot, i: int, j: int) -> float:
    """2|g_i||g_j| / (|g_i|^2 + |g_j|^2), in [0, 1].

    Equals 1 exactly when the two norms coincide; tends to 0 as one task's
    gradient dominates the other.  A single zero norm is the full-dominance
    limit (0.0); two zero norms are degenerate.
    """
    _check_pair(snapshot, i, j)
    a = float(snapshot.norms[i])
    b = float(snapshot.norms[j])
    if a == 0.0 and b == 0.0:
        raise DegenerateInputError(f"gms({i},{j}): both gradient norms are zero")
    # 2ab <= a^2 + b^2 holds exactly in reals but the quotient can round a
    # half-ulp above 1 when a ~ b; clamp like the cosine does.
    return min(1.0, 2.0 * a * b / (a * a + b * b))


def grad_cosine_similarity(snapshot: GradientSnapshot, i: int, j: int) -> float:
    """cos(angle(g_i, g_j)) from the Gram matrix, clamped to [-1, 1]."""
    _check_pair(snapshot, i, j)
    a = float(snapshot.norms[i])
    b = float(snapshot.norms[j])
    if a == 0.0 or b == 0.0:
        raise DegenerateInputError(f"gcs({i},{j}): zero-norm gradient")
    value = float(snapshot.gram[i, j]) / (a * b)
    return min(1.0, max(-1.0, value))


def inverse_learning_rate(loss_snapshot: LossSnapshot) -> np.ndarray:
    """Per-task progress ratio l_t / l_0 (1 at start, -> 0 as a task trains)."""
    return np.asarray(loss_snapshot.losses / loss_snapshot.initial_losses)


def loss_descending_rate(loss_snapshot: LossSnapshot) -> np.ndarray:
    """Per-task one-step ratio l_t / l_{t-1}; all ones at iteration 0."""
    if loss_snapshot.iteration == 0:
        return np.ones(loss_snapshot.k)
    prev = loss_snapshot.prev_losses
    if np.any(prev <= 0):
        raise ValueError("loss_descending_rate needs strictly positive previous losses")
    return np.asarray(loss_snapshot.losses / prev)


def relative_loss(loss_snapshot: LossSnapshot) -> np.ndarray:
    """Per-task share of the total loss; sums to one."""
    total = float(loss_snapshot.losses.sum())
    if total <= 0.0:
        raise DegenerateInputError("relative_loss: all task losses are zero")
    return np.asarray(loss_snapshot.losses / total)


def kappa_from_grams(grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized condition numbers from a stack of Gram matrices.

    ``grams`` has shape (..., K, K).  Returns ``(kappa, floored)`` where
    ``kappa`` is sqrt(lambda_max / max(lambda_min, eps * lambda_max)) and
    ``floored`` marks entries whose smallest eigenvalue hit the floor.
    Entries whose Gram matrix is entirely non-positive come back as NaN.
    """
    lam = np.linalg.eigvalsh(np.asarray(grams, dtype=float))
    lam_max = lam[..., -1]
    lam_min = lam[..., 0]
    good = lam_max > 0.0
    floor = COND_EPS_LAMBDA * lam_max
    floored = good & (lam_min < floor)
    lam_min_eff = np.maximum(lam_min, floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.sqrt(lam_max / lam_min_eff)
    kappa = np.where(good, kappa, np.nan)
    return kappa, floored


def condition_number(snapshot: GradientSnapshot,
                     weights: WeightVector | Sequence[float] | None = None) -> float:
    """Condition number of the (optionally weight-scaled) task-gradient stack.

    With ``weights`` given, the Gram matrix is scaled to diag(w) G^T G diag(w),
    i.e. the Gram of the stack whose k-th column is w_k * g_k.  Always >= 1.
    """
    gram = snapshot.gram
    if weights is not None:
        w = weights.w if isinstance(weights, WeightVector) else np.asarray(weights, float)
        if w.shape != (snapshot.k,):
            raise ValueError(f"weights must have length {snapshot.k}, got {w.shape}")
        gram = gram * np.outer(w, w)
    kappa, _ = kappa_from_grams(gram)
    if np.isnan(kappa):
        raise DegenerateInputError(_NO_POSITIVE_EIGENVALUE)
    return float(kappa)


def pairwise_mean(per_pair_metric: Callable[[GradientSnapshot, int, int], float],
                  snapshot: GradientSnapshot,
                  skip_degenerate: bool = False) -> float:
    """Mean of a pair metric over the K(K-1)/2 unordered task pairs.

    By default degenerate pairs propagate their error; with
    ``skip_degenerate`` they are left out of the mean (an error is still
    raised if no valid pair remains).
    """
    k = snapshot.k
    if k < 2:
        raise ValueError("pairwise_mean needs at least two tasks")
    values = []
    for i in range(k):
        for j in range(i + 1, k):
            try:
                values.append(float(per_pair_metric(snapshot, i, j)))
            except DegenerateInputError:
                if not skip_degenerate:
                    raise
    if not values:
        raise DegenerateInputError(
            f"{getattr(per_pair_metric, '__name__', 'pair metric')}: every task pair degenerate")
    return float(np.mean(values))


def task_std(values) -> float:
    """Population standard deviation (divisor K) across tasks."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("task_std needs a vector of at least two tasks")
    if not np.all(np.isfinite(arr)):
        raise ValueError("task_std input must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(np.std(arr))
    if not math.isfinite(std):
        # The squared deviations overflow once values pass ~1e154: take the
        # spread of the values scaled by their largest magnitude.
        top = float(np.abs(arr).max())
        std = float(np.std(arr / top)) * top
    return std


def metric_records(norms, grams, losses, initial_losses, prev_losses, weights,
                   iterations) -> dict:
    """Validate stacked snapshot rows and compute their metric columns.

    Row n holds iteration ``iterations[n]``: gradient ``norms`` (B, K),
    snapshot ``grams`` (B, K, K), task ``losses`` and ``prev_losses`` (B, K),
    ``initial_losses`` (K,) or (B, K) and the ``weights`` (B, K) in effect.
    Returns float arrays keyed by trace field name: (B,) ``gms_mean`` and
    ``gcs_mean`` (NaN where every pair was degenerate), ``cond_number``,
    ``ilr_std`` and ``rl_std``; (B, K) ``ilr``, ``ldr`` and ``rl``; plus
    ``degenerate_flags``, one tuple per row.  The first row failing a
    GradientSnapshot, LossSnapshot or MetricRecord check raises the
    ValueError building those would.  Degenerate pairs are left out of the
    pair means; the flags list them (magnitude, then cosine), then a
    degenerate or floored condition number, descending rate or relative loss.
    """
    norms, grams, losses, prev, weights = (
        np.ascontiguousarray(a, dtype=float)
        for a in (norms, grams, losses, prev_losses, weights))
    b, k = norms.shape
    initial = np.broadcast_to(np.asarray(initial_losses, dtype=float), (b, k))
    iterations = np.asarray(iterations)
    first = iterations == 0
    iu, ju = np.triu_indices(k, 1)
    n_i, n_j = norms[:, iu], norms[:, ju]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ilr, ldr = losses / initial, losses / prev
        total = losses.sum(axis=1, keepdims=True)
        rl = losses / total
        gms = 2.0 * n_i * n_j / (n_i * n_i + n_j * n_j)
        cos = grams[:, iu, ju] / (n_i * n_j)
    faults = gradient_faults(norms, grams) + loss_faults(losses, initial, prev)
    if k >= 2:
        faults.append((~np.isfinite(ilr).all(axis=1), "task_std input must be finite"))
    raise_first_fault(faults)

    flags = [() if k >= 2 else ("pair metrics skipped: single task",)] * b
    pair_means = [np.full(b, np.nan)] * 2
    # Python's max(-1, x) and min(1, x), NaN handling included.
    cos = np.where(cos > -1.0, cos, -1.0)
    for n, (values, valid, flag) in enumerate((
            (gms, (n_i != 0.0) | (n_j != 0.0),
             "grad_magnitude_similarity({0}) skipped: gms({0}): both gradient norms are zero"),
            (cos, (n_i != 0.0) & (n_j != 0.0),
             "grad_cosine_similarity({0}) skipped: gcs({0}): zero-norm gradient"),
    ) if k >= 2 else ()):
        values = np.where(values < 1.0, values, 1.0)
        # Over a C-contiguous array each row sums in the order of a 1-d mean.
        pair_means[n] = means = np.ascontiguousarray(values).mean(axis=1)
        for r in np.flatnonzero(~valid.all(axis=1)):
            kept = values[r][valid[r]]
            means[r] = kept.mean() if kept.size else np.nan
            flags[r] += tuple(flag.format(f"{i},{j}") for i, j in zip(iu[~valid[r]], ju[~valid[r]]))

    kappa, floored = kappa_from_grams(grams)
    for r in np.flatnonzero(floored | np.isnan(kappa)):
        flags[r] += ("cond_number floored: Gram numerically singular" if floored[r]
                     else f"cond_number degenerate: {_NO_POSITIVE_EIGENVALUE}",)
    bad_prev = ~first & (prev <= 0).any(axis=1)
    ldr[first | bad_prev] = 1.0
    for r in np.flatnonzero(bad_prev):
        flags[r] += ("ldr degenerate: nonpositive previous loss",)
    for r in np.flatnonzero(total[:, 0] <= 0.0):
        rl[r] = 1.0 / k
        flags[r] += ("rl degenerate: relative_loss: all task losses are zero",)

    # Rows whose squared deviations overflow take task_std's scaled spread.
    with np.errstate(over="ignore", invalid="ignore"):
        ilr_std = np.std(ilr, axis=1) if k >= 2 else np.zeros(b)
    for r in np.flatnonzero(~np.isfinite(ilr_std)):
        ilr_std[r] = task_std(ilr[r])
    columns = {"gms_mean": pair_means[0], "gcs_mean": pair_means[1],
               "cond_number": np.where(np.isnan(kappa), 1.0, kappa), "ilr": ilr,
               "ilr_std": ilr_std, "ldr": ldr, "rl": rl, "rl_std": np.std(rl, axis=1)}
    raise_first_fault(record_faults({"iteration": iterations, "weights": weights, **columns}))
    columns["degenerate_flags"] = flags
    return columns


def record_at(columns: dict, row: int, iteration: int, weights) -> MetricRecord:
    """Row ``row`` of :func:`metric_records` columns as the MetricRecord of
    ``iteration`` under ``weights``; a NaN pair mean becomes None."""
    values = {f.name: columns[f.name][row].tolist() for f in fields(MetricRecord)[1:-2]}
    values.update({name: None for name in ("gms_mean", "gcs_mean") if math.isnan(values[name])})
    return MetricRecord(iteration=iteration, weights=weights,
                        degenerate_flags=columns["degenerate_flags"][row], **values)


def metric_record(grad_snapshot: GradientSnapshot,
                  loss_snapshot: LossSnapshot,
                  weights) -> MetricRecord:
    """:func:`metric_records` of one row, as a MetricRecord; ``weights`` is
    the WeightVector in effect, or a plain length-K array for single-task runs."""
    if grad_snapshot.iteration != loss_snapshot.iteration:
        raise ValueError(
            f"snapshot iterations differ: gradient {grad_snapshot.iteration} "
            f"vs loss {loss_snapshot.iteration}")
    k = grad_snapshot.k
    if loss_snapshot.k != k:
        raise ValueError(f"snapshot task counts differ: {k} vs {loss_snapshot.k}")
    w = weights.w if isinstance(weights, WeightVector) else np.asarray(weights, float)
    if w.shape != (k,):
        raise ValueError(f"weights must have length {k}")
    columns = metric_records(
        grad_snapshot.norms[None], grad_snapshot.gram[None],
        loss_snapshot.losses[None], loss_snapshot.initial_losses,
        loss_snapshot.prev_losses[None], w[None], [grad_snapshot.iteration])
    return record_at(columns, 0, grad_snapshot.iteration, w.tolist())
