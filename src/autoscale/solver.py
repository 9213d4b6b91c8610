"""Constrained minimizers over the feasible weight set.

The feasible set is {w : sum(w) = K, w_i >= floor}.  Two solve paths:

* :func:`solve_quadratic` — exact minimizer of w^T M w for the quadratic cost
  kinds.  A primal active-set method: each face (the free coordinates, with
  the pinned ones at the floor) is solved in a sum-zero basis, a step toward
  the face's minimizer stops where a free coordinate reaches the floor, and a
  pin whose multiplier is negative is released.  A Hessian that is singular
  on a face yields the minimum-norm solution closest to its center.
* :func:`solve_general` — derivative-free descent for arbitrary window costs
  (the condition-number cost in particular).  Runs Nelder-Mead on an
  unconstrained reparameterization of the simplex (w = K * normalized
  exponential of z, floored), with multi-start: the provided initial point
  plus seeded perturbed restarts.  Never returns a point worse than the
  initial one; cost ties break toward the candidate closest to uniform.
  The search works on plain (K,) arrays: every candidate is projected by
  the array core of :func:`project_feasible` and checked against the floor
  and the sum, and only the returned point becomes a WeightVector.

Where an evaluation of the search spends its time, for the low-cond cost of a
50-iteration K=3 window (about 1,000 evaluations per solve; ≈75-90 µs each on
a 2-vCPU x86-64 VM): over half is the one stacked ``eigvalsh`` of the 50
scaled Grams (≈50 µs, LAPACK and numpy's wrapper); the rest is a few dozen
numpy calls on (K,) and (T,) arrays, most of it the cost's elementwise work,
then the logit-to-weight map with its projection, then the simplex
bookkeeping.

Both produce a :class:`SolverReport`; fixed inputs and seed give bit-identical
reports.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DEFAULT_WEIGHT_FLOOR,
    WEIGHT_SUM_TOL,
    DegenerateInputError,
    WeightVector,
    spawn_rng,
)

#: Relative window for treating two candidate costs as tied.
TIE_TOL = 1e-10

#: Convergence threshold: a full search round must improve the incumbent by
#: at least this much to count as progress.
IMPROVEMENT_TOL = 1e-8


class SolverMethod(enum.Enum):
    CLOSED_FORM_QP = "ClosedFormQP"
    SIMPLEX_SEARCH = "SimplexSearch"


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one window solve."""

    w_star: WeightVector
    cost_at_w_star: float
    iterations: int
    converged: bool
    method: SolverMethod


def project_feasible(raw, floor: float = DEFAULT_WEIGHT_FLOOR) -> WeightVector:
    """Euclidean projection onto {sum(w) = K, w_i >= floor}.

    Clamp-and-redistribute: shift all free coordinates by a common amount to
    restore the sum, pin coordinates that fall below the floor, repeat.  The
    grown pin set is consistent, so this terminates in at most K rounds with
    the exact projection.
    """
    v = np.asarray(raw, dtype=float)
    if v.ndim != 1:
        raise ValueError("raw weights must be one-dimensional")
    k = v.size
    if k < 2:
        raise ValueError(f"need at least 2 tasks, got {k}")
    if not np.all(np.isfinite(v)):
        raise ValueError("raw weights must be finite")
    return WeightVector(_project(v, floor), floor)


def _project(v: np.ndarray, floor: float) -> np.ndarray:
    """Array core of :func:`project_feasible` for a (K,) float array, K >= 2.

    The first round of clamp-and-redistribute is the whole projection when
    no coordinate drops below the floor; otherwise the loop runs from the
    start.  The result passes the floor and sum checks of ``WeightVector``
    (whose message is raised on failure) without building one.
    """
    k = v.size
    w = v + (k - np.add.reduce(v)) / k
    lowest = np.minimum.reduce(w)
    if not lowest >= floor:  # a pin is needed, or v is not finite
        if not np.all(np.isfinite(v)):
            raise ValueError("raw weights must be finite")
        pinned = np.zeros(k, dtype=bool)
        for _ in range(k):
            free = ~pinned
            n_free = int(free.sum())
            budget = k - floor * int(pinned.sum())
            shift = (budget - float(v[free].sum())) / n_free
            w = np.where(pinned, floor, v + shift)
            violating = free & (w < floor)
            if not violating.any():
                break
            pinned |= violating
        else:  # pragma: no cover
            raise AssertionError("feasible projection failed to settle")
        lowest = np.minimum.reduce(w)
    if not (0.0 < floor < 1.0 and lowest >= floor
            and abs(float(np.add.reduce(w)) - k) <= WEIGHT_SUM_TOL):
        WeightVector(w, floor)  # raises the message of the failed invariant
    return w


def _sum_zero_basis(n: int) -> np.ndarray:
    """Orthonormal basis (n x (n-1)) of {x : sum(x) = 0} (Helmert columns)."""
    z = np.zeros((n, n - 1))
    for j in range(1, n):
        norm = np.sqrt(j * (j + 1))
        z[:j, j - 1] = 1.0 / norm
        z[j, j - 1] = -j / norm
    return z


def solve_quadratic(m, floor: float = DEFAULT_WEIGHT_FLOOR) -> SolverReport:
    """Exact minimizer of w^T M w over the feasible weight set.

    ``m`` must be symmetric positive semidefinite (tolerance 1e-8 relative).
    The result satisfies the optimality conditions: 2 M w is equal across
    the free coordinates and at least that on the pinned ones.
    ``iterations`` counts active-set rounds.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"M must be square, got shape {m.shape}")
    k = m.shape[0]
    if k < 2:
        raise ValueError("M must be at least 2x2")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-8 * scale:
        raise ValueError("M must be symmetric (1e-8 relative)")
    m = 0.5 * (m + m.T)
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] < -1e-8 * max(1.0, eigs[-1]):
        raise ValueError(f"M must be positive semidefinite, min eigenvalue {eigs[0]}")

    # Primal active set from the uniform point w.  Each round steps toward
    # the current face's minimizer, pinning the free coordinate that reaches
    # the floor first (the ratio test); at a face minimizer a pin with a
    # negative multiplier is released, and with none w is a global minimizer.
    # The cap guards against cycling on degenerate ties (≤ 2K rounds seen).
    pinned = np.zeros(k, dtype=bool)
    w = np.ones(k)
    converged = True
    for rounds in range(1, 10 * k + 1):
        free = np.flatnonzero(~pinned)
        n_free = free.size
        budget = k - floor * int(pinned.sum())
        target = np.where(pinned, floor, 0.0)
        if n_free == 1:
            target[free[0]] = budget
        else:
            # Center of the free face plus a sum-zero correction.
            center = np.full(n_free, budget / n_free)
            z = _sum_zero_basis(n_free)
            m_ff = m[np.ix_(free, free)]
            grad_const = m_ff @ center
            if pinned.any():
                grad_const = grad_const + m[np.ix_(free, np.flatnonzero(pinned))] @ \
                    np.full(int(pinned.sum()), floor)
            h = z.T @ m_ff @ z
            b = z.T @ grad_const
            # lstsq returns the minimum-norm y when h is singular, which keeps
            # the solution as close to the (uniform-share) center as possible.
            y, *_ = np.linalg.lstsq(h, -b, rcond=None)
            target[free] = center + z @ y
        blocking = free[target[free] < floor - 1e-12]
        if blocking.size:
            steps = (w[blocking] - floor) / (w[blocking] - target[blocking])
            first = int(np.argmin(steps))
            w = w + max(float(steps[first]), 0.0) * (target - w)
            w[blocking[first]] = floor
            pinned[blocking[first]] = True
            continue
        w = target
        grad = m @ w
        multipliers = grad[pinned] - grad[free].mean()
        # Rounding in M w scales with the magnitude of its terms (w > 0).
        if np.all(multipliers >= -1e-9 * float((np.abs(m) @ w).max())):
            break
        pinned[np.flatnonzero(pinned)[int(np.argmin(multipliers))]] = False
    else:
        converged = False
    w_star = project_feasible(w, floor)
    cost = float(w_star.w @ m @ w_star.w)
    return SolverReport(w_star=w_star, cost_at_w_star=cost, iterations=rounds,
                        converged=converged, method=SolverMethod.CLOSED_FORM_QP)


# ---------------------------------------------------------------------------
# derivative-free path
# ---------------------------------------------------------------------------

def _weights_from_logits(z: np.ndarray, k: int, floor: float) -> np.ndarray:
    """Map an unconstrained (K-1)-vector to feasible (K,) weights."""
    full = np.zeros(k)
    full[:-1] = z
    full -= np.maximum.reduce(full)
    e = np.exp(full)
    return _project(k * e / np.add.reduce(e), floor)


def _logits_from_weights(w: np.ndarray) -> np.ndarray:
    logs = np.log(w)
    return logs[:-1] - logs[-1]


def solve_general(cost: Callable[[np.ndarray], float],
                  w_init: WeightVector,
                  floor: float | None = None,
                  budget: int = 4000,
                  restarts: int = 4,
                  seed: int = 0) -> SolverReport:
    """Derivative-free minimization of an arbitrary window cost.

    Nelder-Mead over the sum-to-K simplex via the normalized-exponential
    reparameterization, started from ``w_init`` and from ``restarts`` seeded
    perturbations of it.  Each start is polished by re-running the descent
    from its incumbent with a shrinking initial simplex until one full search
    round improves the incumbent by less than 1e-8 (a single descent can stall
    with the best vertex pinned while only the worst vertices move, so one
    round is a whole descent, not one reflection).  ``budget`` caps total cost
    evaluations; exhausting it returns the best point so far with
    ``converged=False``.  The result is never worse than ``w_init``.

    ``cost`` receives each candidate as a feasible (K,) float array (the
    initial point as ``w_init.w``) and must not modify it; a
    ``DegenerateInputError`` counts as +inf.  Only the returned ``w_star``
    is a ``WeightVector``: ``w_init`` itself when no candidate beats it.
    """
    if floor is None:
        floor = w_init.floor
    k = w_init.k
    n = k - 1
    evals = 0
    budget_hit = False

    def run_cost(w: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        try:
            return float(cost(w))
        except DegenerateInputError:
            return float("inf")

    def f(z: np.ndarray) -> tuple[float, np.ndarray]:
        w = _weights_from_logits(z, k, floor)
        return run_cost(w), w

    init_cost = run_cost(w_init.w)
    candidates: list[tuple[float, np.ndarray]] = [(init_cost, w_init.w)]

    z_init = _logits_from_weights(w_init.w)
    starts = [z_init]
    rng = spawn_rng(seed, 0xD1CE)
    for _ in range(restarts):
        starts.append(z_init + rng.normal(0.0, 0.75, size=n))

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5

    def descend(z0: np.ndarray, step: float
                ) -> tuple[float, np.ndarray, np.ndarray]:
        """One complete Nelder-Mead descent from ``z0``.

        Runs until the simplex values have collapsed (relative spread below
        1e-12), an iteration cap is reached, or the budget runs out; returns
        the best vertex seen.  The vertices are the rows of ``points``.
        """
        nonlocal budget_hit
        points = np.empty((n + 1, n))
        points[0] = z0
        points[1:] = z0 + np.eye(n) * step
        scored = [f(p) for p in points]
        values = [c for c, _ in scored]
        ws = [w for _, w in scored]
        for _ in range(200 * max(n, 1)):
            if evals >= budget:
                budget_hit = True
                break
            # Stable, with NaN last, as np.argsort(kind="stable") orders them.
            order = sorted(range(n + 1),
                           key=lambda i: (values[i] != values[i], values[i]))
            points = points.take(order, axis=0)
            values = [values[i] for i in order]
            ws = [ws[i] for i in order]
            spread = values[-1] - values[0]
            if math.isfinite(spread) and spread <= 1e-12 * (1.0 + abs(values[0])):
                break
            centroid = np.add.reduce(points[:-1], axis=0) / n

            reflected = centroid + alpha * (centroid - points[-1])
            fr, wr = f(reflected)
            if fr < values[0]:
                expanded = centroid + gamma * (reflected - centroid)
                fe, we = f(expanded)
                if fe < fr:
                    points[-1], values[-1], ws[-1] = expanded, fe, we
                else:
                    points[-1], values[-1], ws[-1] = reflected, fr, wr
            elif fr < values[-2]:
                points[-1], values[-1], ws[-1] = reflected, fr, wr
            else:
                contracted = centroid + rho * (points[-1] - centroid)
                fc, wc = f(contracted)
                if fc < values[-1]:
                    points[-1], values[-1], ws[-1] = contracted, fc, wc
                else:
                    points[1:] = points[0] + sigma * (points[1:] - points[0])
                    for i in range(1, n + 1):
                        values[i], ws[i] = f(points[i])
        i_best = int(np.argmin(values))
        return values[i_best], ws[i_best], points[i_best]

    for z0 in starts:
        if evals >= budget:
            budget_hit = True
            break
        inc_cost, inc_w = f(z0)
        inc_z = z0
        step = 0.4
        while evals < budget:
            c, w, z = descend(inc_z, step)
            improved = c < inc_cost - IMPROVEMENT_TOL
            if c < inc_cost:
                inc_cost, inc_w, inc_z = c, w, z
            if not improved:
                break
            step = max(0.5 * step, 0.02)
        else:
            budget_hit = True
        candidates.append((inc_cost, inc_w))

    best_cost = min(c for c, _ in candidates)
    window = TIE_TOL * (1.0 + abs(best_cost))
    tied = [(c, w) for c, w in candidates if c <= best_cost + window]
    ones = np.ones(k)
    tied.sort(key=lambda cw: (float(np.linalg.norm(cw[1] - ones)), cw[0]))
    final_cost, final_w = tied[0]
    w_star = w_init if final_w is w_init.w else WeightVector(final_w, floor)

    return SolverReport(w_star=w_star, cost_at_w_star=final_cost,
                        iterations=evals, converged=not budget_hit,
                        method=SolverMethod.SIMPLEX_SEARCH)
