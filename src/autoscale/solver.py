"""Constrained minimizers over the feasible weight set.

The feasible set is {w : sum(w) = K, w_i >= WEIGHT_FLOOR}.  Two solve paths:

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
50-iteration K=3 window (about 1,000 evaluations per solve; ≈85-165 µs each
on a 2-vCPU x86-64 VM whose speed swings by up to 2×): over half is the one
stacked ``eigvalsh`` of the 50 scaled Grams (≈50-85 µs, LAPACK and numpy's
wrapper); the rest is a few dozen numpy calls on (K,) and (T,) arrays, most
of it the cost's elementwise work, then the logit-to-weight map with its
projection, then the simplex bookkeeping.

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
    WEIGHT_FLOOR,
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

#: Seeded perturbed starts of the simplex search, besides the initial point.
_RESTARTS = 4


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


def project_feasible(raw) -> WeightVector:
    """Euclidean projection onto {sum(w) = K, w_i >= WEIGHT_FLOOR}.

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
    return WeightVector(_project(v))


def _project(v: np.ndarray) -> np.ndarray:
    """Array core of :func:`project_feasible` for a (K,) float array, K >= 2.

    The first round of clamp-and-redistribute is the whole projection when
    no coordinate drops below the floor; otherwise the loop runs from the
    start.  The result passes the floor and sum checks of ``WeightVector``
    (whose message is raised on failure) without building one.
    """
    k = v.size
    w = v + (k - np.add.reduce(v)) / k
    lowest = np.minimum.reduce(w)
    if not lowest >= WEIGHT_FLOOR:  # a pin is needed, or v is not finite
        if not np.all(np.isfinite(v)):
            raise ValueError("raw weights must be finite")
        pinned = np.zeros(k, dtype=bool)
        for _ in range(k):
            free = ~pinned
            n_free = int(free.sum())
            budget = k - WEIGHT_FLOOR * int(pinned.sum())
            shift = (budget - float(v[free].sum())) / n_free
            w = np.where(pinned, WEIGHT_FLOOR, v + shift)
            violating = free & (w < WEIGHT_FLOOR)
            if not violating.any():
                break
            pinned |= violating
        else:  # pragma: no cover
            raise AssertionError("feasible projection failed to settle")
        lowest = np.minimum.reduce(w)
    if not (lowest >= WEIGHT_FLOOR and abs(float(np.add.reduce(w)) - k) <= WEIGHT_SUM_TOL):
        WeightVector(w)  # raises the message of the failed invariant
    return w


def _sum_zero_basis(n: int) -> np.ndarray:
    """Orthonormal basis (n x (n-1)) of {x : sum(x) = 0} (Helmert columns)."""
    z = np.zeros((n, n - 1))
    for j in range(1, n):
        norm = np.sqrt(j * (j + 1))
        z[:j, j - 1] = 1.0 / norm
        z[j, j - 1] = -j / norm
    return z


def solve_quadratic(m) -> SolverReport:
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
        budget = k - WEIGHT_FLOOR * int(pinned.sum())
        target = np.where(pinned, WEIGHT_FLOOR, 0.0)
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
                    np.full(int(pinned.sum()), WEIGHT_FLOOR)
            h = z.T @ m_ff @ z
            b = z.T @ grad_const
            # lstsq returns the minimum-norm y when h is singular, which keeps
            # the solution as close to the (uniform-share) center as possible.
            y, *_ = np.linalg.lstsq(h, -b, rcond=None)
            target[free] = center + z @ y
        blocking = free[target[free] < WEIGHT_FLOOR - 1e-12]
        if blocking.size:
            steps = (w[blocking] - WEIGHT_FLOOR) / (w[blocking] - target[blocking])
            first = int(np.argmin(steps))
            w = w + max(float(steps[first]), 0.0) * (target - w)
            w[blocking[first]] = WEIGHT_FLOOR
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
    w_star = project_feasible(w)
    cost = float(w_star.w @ m @ w_star.w)
    return SolverReport(w_star=w_star, cost_at_w_star=cost, iterations=rounds,
                        converged=converged, method=SolverMethod.CLOSED_FORM_QP)


# ---------------------------------------------------------------------------
# derivative-free path
# ---------------------------------------------------------------------------

def _weights_from_logits(z: np.ndarray, k: int) -> np.ndarray:
    """Map an unconstrained (K-1)-vector to feasible (K,) weights."""
    full = np.zeros(k)
    full[:-1] = z
    full -= np.maximum.reduce(full)
    e = np.exp(full)
    return _project(k * e / np.add.reduce(e))


def _logits_from_weights(w: np.ndarray) -> np.ndarray:
    logs = np.log(w)
    return logs[:-1] - logs[-1]


def solve_general(cost: Callable[[np.ndarray], float],
                  w_init: WeightVector,
                  budget: int = 4000,
                  seed: int = 0) -> SolverReport:
    """Derivative-free minimization of an arbitrary window cost.

    Nelder-Mead over the sum-to-K simplex via the normalized-exponential
    reparameterization, started from ``w_init`` and from ``_RESTARTS`` seeded
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

    def f(z: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        w = _weights_from_logits(z, k)
        return run_cost(w), w, z

    z_init = _logits_from_weights(w_init.w)
    candidates = [(run_cost(w_init.w), w_init.w, z_init)]

    starts = [z_init]
    rng = spawn_rng(seed, 0xD1CE)
    for _ in range(_RESTARTS):
        starts.append(z_init + rng.normal(0.0, 0.75, size=n))

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5

    def descend(z0: np.ndarray, step: float
                ) -> tuple[float, np.ndarray, np.ndarray]:
        """One complete Nelder-Mead descent from ``z0``.

        Runs until the simplex values have collapsed (relative spread below
        1e-12), an iteration cap is reached, or the budget runs out; returns
        the best vertex seen.  Each vertex is a (cost, weights, logits) tuple.
        """
        nonlocal budget_hit
        simplex = [f(z0)] + [f(z0 + e * step) for e in np.eye(n)]
        for _ in range(200 * max(n, 1)):
            if evals >= budget:
                budget_hit = True
                break
            # Stable, with NaN last, as np.argsort(kind="stable") orders them.
            simplex.sort(key=lambda v: (v[0] != v[0], v[0]))
            spread = simplex[-1][0] - simplex[0][0]
            if math.isfinite(spread) and spread <= 1e-12 * (1.0 + abs(simplex[0][0])):
                break
            centroid = np.add.reduce([z for _, _, z in simplex[:-1]], axis=0) / n
            worst = simplex[-1][2]

            reflected = f(centroid + alpha * (centroid - worst))
            if reflected[0] < simplex[0][0]:
                expanded = f(centroid + gamma * (reflected[2] - centroid))
                simplex[-1] = expanded if expanded[0] < reflected[0] else reflected
            elif reflected[0] < simplex[-2][0]:
                simplex[-1] = reflected
            else:
                contracted = f(centroid + rho * (worst - centroid))
                if contracted[0] < simplex[-1][0]:
                    simplex[-1] = contracted
                else:
                    best = simplex[0][2]
                    simplex[1:] = [f(best + sigma * (z - best)) for _, _, z in simplex[1:]]
        return simplex[int(np.argmin([c for c, _, _ in simplex]))]

    for z0 in starts:
        if evals >= budget:
            budget_hit = True
            break
        incumbent = f(z0)
        step = 0.4
        while evals < budget:
            vertex = descend(incumbent[2], step)
            improved = vertex[0] < incumbent[0] - IMPROVEMENT_TOL
            if vertex[0] < incumbent[0]:
                incumbent = vertex
            if not improved:
                break
            step = max(0.5 * step, 0.02)
        else:
            budget_hit = True
        candidates.append(incumbent)

    best_cost = min(c for c, _, _ in candidates)
    window = TIE_TOL * (1.0 + abs(best_cost))
    ones = np.ones(k)
    final_cost, final_w, _ = min(
        (v for v in candidates if v[0] <= best_cost + window),
        key=lambda v: (float(np.linalg.norm(v[1] - ones)), v[0]))
    w_star = w_init if final_w is w_init.w else WeightVector(final_w)

    return SolverReport(w_star=w_star, cost_at_w_star=final_cost,
                        iterations=evals, converged=not budget_hit,
                        method=SolverMethod.SIMPLEX_SEARCH)
