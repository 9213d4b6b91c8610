"""Window-averaged balance costs that drive weight selection.

Three interchangeable costs over an observation window of T iterations, each
a function of a candidate weight vector w:

* ``equal-grad-norm`` — mean over the window of sum_{i<j} (m_i w_i - m_j w_j)^2
  with the per-task gradient norms as the magnitudes m, so weighted gradient
  norms are pushed together.
* ``equal-loss`` — the same pairwise residual with per-task losses as the
  magnitudes, so weighted losses are pushed together instead.
* ``low-cond`` — mean condition number of the weight-scaled task-gradient
  stack.

Costs read the window's stacked columns (``norms`` and ``losses`` (T, K),
``grams`` (T, K, K)), never its snapshots one by one.  The first two kinds are
exact quadratic forms w^T M w, and :func:`quadratic_form` builds M in closed
form: the mean of A_t^T A_t, where row (i, j) of A_t carries +m_i in column i
and -m_j in column j; entrywise, M = L * mean_t(m_t m_t^T) with
L = K I - 11^T.  The condition-number cost is not quadratic: it scales every
Gram of the window by w w^T and takes all T eigendecompositions in one
stacked ``eigvalsh`` call.

:func:`window_cost` is the one evaluation path.  A (K,) weight gives a float;
an (N, K) block gives N costs, and row n equals the (K,) call on that row bit
for bit.  The quadratic kinds are minimized in closed form, the
condition-number cost by derivative-free search.
"""
from __future__ import annotations

import enum
import itertools
import logging

import numpy as np

from .core import DegenerateInputError, WeightVector, WindowBuffer
from .metrics import COND_EPS_LAMBDA, kappa_from_grams

logger = logging.getLogger(__name__)

#: Most weight-scaled Gram matrices handed to one ``eigvalsh`` call; bounds
#: the (N, T, K, K) temporary when many weight rows are costed at once.
EIGVALSH_BATCH = 1 << 16


class CostKind(enum.Enum):
    """Which balance criterion a window solve should minimize."""

    EQUAL_GRAD_NORM = "equal-grad-norm"
    EQUAL_LOSS = "equal-loss"
    LOW_CONDITION_NUMBER = "low-cond"

    @property
    def is_quadratic(self) -> bool:
        return self in (CostKind.EQUAL_GRAD_NORM, CostKind.EQUAL_LOSS)

    @classmethod
    def parse(cls, value) -> "CostKind":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown cost kind {value!r}; expected one of: {valid}")


def quadratic_form(kind, window: WindowBuffer) -> np.ndarray:
    """The K x K matrix M with window_cost(kind, w, window) == w^T M w.

    Defined for the two quadratic kinds only: M is the mean over the window
    of A_t^T A_t, where A_t is iteration t's pair-difference matrix.  The
    products are taken on the stacked (T, pairs, K) array of all A_t rather
    than entrywise as L * mean_t(m_t m_t^T): from K=4 on, the entrywise form
    rounds the diagonal differently and moves the chosen weights in their
    last bits.
    """
    kind = CostKind.parse(kind)
    if not kind.is_quadratic:
        raise ValueError(f"{kind.value} is not a quadratic cost")
    if len(window) == 0:
        raise ValueError("quadratic_form needs a non-empty window")
    if window.k < 2:
        raise ValueError("quadratic costs need at least two tasks")
    mags = window.norms if kind is CostKind.EQUAL_GRAD_NORM else window.losses
    first, second = np.array(list(itertools.combinations(range(window.k), 2))).T
    pair = np.arange(first.size)
    a = np.zeros((len(window), first.size, window.k))
    a[:, pair, first] = mags[:, first]
    a[:, pair, second] = -mags[:, second]
    m = np.matmul(a.transpose(0, 2, 1), a).sum(axis=0) / len(window)
    return 0.5 * (m + m.T)


def _low_cond_costs(rows: np.ndarray, window: WindowBuffer) -> np.ndarray:
    """Mean condition number per weight row over the window's valid iterations.

    An iteration whose scaled Gram has no positive eigenvalue is skipped; a
    row with no valid iteration left raises ``DegenerateInputError``.
    """
    t = len(window)
    per_call = max(1, EIGVALSH_BATCH // t)
    out = np.empty(rows.shape[0])
    skipped = 0
    for start in range(0, rows.shape[0], per_call):
        block = rows[start:start + per_call]
        outer = block[:, None, :, None] * block[:, None, None, :]   # (n, 1, K, K)
        scaled = window.grams * outer                                # (n, T, K, K)
        # Every scaled Gram with a positive eigenvalue floor (the usual case):
        # the operations of kappa_from_grams and a row mean, on one eigvalsh.
        lam = np.linalg.eigvalsh(scaled)
        lam_max = lam[..., -1]
        eps = COND_EPS_LAMBDA * lam_max
        if np.minimum.reduce(eps, axis=None) > 0.0:
            kappa = np.sqrt(lam_max / np.maximum(lam[..., 0], eps))
            out[start:start + len(block)] = np.add.reduce(kappa, axis=1) / t
            continue
        kappa, _ = kappa_from_grams(scaled)                          # (n, T)
        valid = ~np.isnan(kappa)
        means = kappa.mean(axis=1)
        # A row that skipped iterations is re-averaged over its valid ones
        # alone, in the same order a single-row call would sum them.
        for i in np.flatnonzero(~valid.all(axis=1)):
            if not valid[i].any():
                raise DegenerateInputError(
                    "window_cost(low-cond): every iteration in the window is "
                    "degenerate")
            means[i] = np.mean(kappa[i][valid[i]])
            skipped += int(t - valid[i].sum())
        out[start:start + len(block)] = means
    if skipped:
        logger.debug("window_cost(low-cond): skipped %d degenerate iteration(s) "
                     "over %d weight row(s) of a %d-iteration window",
                     skipped, rows.shape[0], t)
    return out


def window_cost(kind, weights, window: WindowBuffer):
    """Mean per-iteration cost over a window, for one or many weight vectors.

    ``weights`` is a WeightVector or (K,) array, giving a float, or an (N, K)
    array of weight rows, giving an (N,) array.  Iterations that are
    degenerate for the requested cost (only possible for ``low-cond``, when a
    scaled Gram has no positive eigenvalue) are skipped and logged; the mean
    runs over the remaining iterations.  Raises ``DegenerateInputError`` if
    nothing remains for some row.
    """
    kind = CostKind.parse(kind)
    if len(window) == 0:
        raise ValueError("window_cost needs a non-empty window")
    w = weights.w if isinstance(weights, WeightVector) else np.asarray(weights, float)
    if w.ndim not in (1, 2) or w.shape[-1] != window.k:
        raise ValueError(f"weights must be (K,) or (N, K) with K={window.k}, "
                         f"got shape {w.shape}")
    rows = w[None] if w.ndim == 1 else w
    if kind.is_quadratic:
        m = quadratic_form(kind, window)
        # Elementwise, then one sum per row: each row of an (N, K) call then
        # rounds exactly like the (K,) call (einsum and matmul do not).
        costs = np.sum(rows[:, :, None] * m * rows[:, None, :], axis=(1, 2))
    else:
        costs = _low_cond_costs(rows, window)
    return float(costs[0]) if w.ndim == 1 else costs
