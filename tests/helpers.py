"""Small builders shared by the test modules, and the per-row oracles.

The oracles compute slowly and literally what the library computes in
stacked form: window costs one iteration at a time, metric records one task
pair at a time, gradients by central differences, MLP losses and gradients
for one parameter row and one task at a time, single-task baselines from the
full gradient matrix; plus the closed-form weighted optimum of a quadratic
family, which fixed-weight training must reach.
"""
import math
from dataclasses import dataclass

import numpy as np

from autoscale import (
    TRACE_FIELDS,
    WEIGHT_FLOOR,
    CostKind,
    DegenerateInputError,
    LossSnapshot,
    MetricRecord,
    TraceLine,
    WeightVector,
    WindowBuffer,
    condition_number,
    grad_cosine_similarity,
    grad_magnitude_similarity,
    inverse_learning_rate,
    kappa_from_grams,
    loss_descending_rate,
    relative_loss,
    serialize_trace_line,
    snapshot_from_gradients,
    task_std,
)


def grad_snap(vectors, iteration=0):
    return snapshot_from_gradients(np.asarray(vectors, dtype=float),
                                   iteration=iteration)


def loss_snap(losses, initial=None, prev=None, iteration=0):
    losses = np.asarray(losses, dtype=float)
    if initial is None:
        initial = losses
    if prev is None:
        prev = losses
    return LossSnapshot(losses=losses,
                        initial_losses=np.asarray(initial, dtype=float),
                        prev_losses=np.asarray(prev, dtype=float),
                        iteration=iteration)


def window(pairs):
    """The columnar window of (GradientSnapshot, LossSnapshot) pairs."""
    pairs = tuple(pairs)
    t, k = len(pairs), pairs[0][0].k if pairs else 0
    return WindowBuffer(norms=np.reshape([g.norms for g, _ in pairs], (t, k)),
                        grams=np.reshape([g.gram for g, _ in pairs], (t, k, k)),
                        losses=np.reshape([l.losses for _, l in pairs], (t, k)))


def constant_window(vectors, losses=None, n=1, start_iter=0):
    """n copies of one observation at consecutive iterations."""
    pairs = []
    for t in range(start_iter, start_iter + n):
        g = grad_snap(vectors, iteration=t)
        l = loss_snap(losses if losses is not None else np.ones(g.k), iteration=t)
        pairs.append((g, l))
    return window(pairs)


def random_window(rng, k=3, d=5, n=4, start_iter=0):
    """Window of random Gaussian gradient snapshots with random positive losses."""
    pairs = []
    for t in range(start_iter, start_iter + n):
        g = grad_snap(rng.standard_normal((k, d)), iteration=t)
        l = loss_snap(rng.uniform(0.2, 2.0, size=k),
                      initial=np.ones(k),
                      prev=rng.uniform(0.2, 2.0, size=k),
                      iteration=t)
        pairs.append((g, l))
    return window(pairs)


def bits_equal(a, b):
    """Float equality down to the sign of zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def random_trace_line(rng, k=3):
    """A fully-populated random trace line (valid field ranges)."""
    n_upper = k * (k + 1) // 2
    vec = lambda n: tuple(float(v) for v in rng.standard_normal(n))
    pos = lambda n: tuple(float(v) for v in np.abs(rng.standard_normal(n)) + 1e-9)
    rl = np.abs(rng.standard_normal(k)) + 1e-9
    rl = rl / rl.sum()
    return TraceLine(
        run_id=f"run-{int(rng.integers(1e6)):06d}",
        method=str(rng.choice(["autoscale", "fixed", "rlw", "unitary"])),
        cost_kind=str(rng.choice(["equal-grad-norm", "equal-loss", "low-cond", ""])),
        seed=int(rng.integers(0, 2**31)),
        config_hash=f"{int(rng.integers(0, 2**62)):016x}",
        iter=int(rng.integers(0, 10**6)),
        weights=pos(k),
        losses=pos(k),
        grad_norms=pos(k),
        gram_upper=vec(n_upper),
        gms_mean=None if rng.uniform() < 0.1 else float(rng.uniform(0, 1)),
        gcs_mean=None if rng.uniform() < 0.1 else float(rng.uniform(-1, 1)),
        cond_number=float(np.exp(rng.uniform(0, 10))),
        ilr=pos(k),
        ilr_std=float(abs(rng.standard_normal())),
        ldr=pos(k),
        rl=tuple(float(v) for v in rl),
        rl_std=float(abs(rng.standard_normal())),
        degenerate_flags=tuple(
            str(s) for s in rng.choice(["a flag", "another: (0,1)"],
                                       size=rng.integers(0, 3))),
    )


def write_trace_lines(path, lines):
    """Write TraceLines to ``path``, one ``serialize_trace_line`` per line;
    returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(serialize_trace_line(line) + "\n")
            count += 1
    return count


def trace_lines_identical(a, b):
    """Field-by-field equality with bitwise float comparison."""
    for name in TRACE_FIELDS:
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, tuple) and va and isinstance(va[0], float):
            if len(va) != len(vb) or not all(
                    bits_equal(x, y) for x, y in zip(va, vb)):
                return False
        elif isinstance(va, float) and isinstance(vb, float):
            if not bits_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


def simplex_grid(k, step=0.01):
    """Every w >= 0 on the fixed-step grid of the plane sum(w) = k.

    Grid points may touch zero; that is fine for oracle comparisons (a zero
    coordinate differs from the feasible floor by under the comparison slack).
    """
    units = round(k / step)
    if k == 2:
        i = np.arange(units + 1)
        return np.column_stack([i, units - i]).astype(float) * step
    if k == 3:
        blocks = []
        for i in range(units + 1):
            j = np.arange(units - i + 1)
            blocks.append(np.column_stack([np.full(j.size, i), j, units - i - j]))
        return np.vstack(blocks).astype(float) * step
    raise ValueError("grids are only generated for K in {2, 3}")


# ---------------------------------------------------------------------------
# per-iteration cost oracle
# ---------------------------------------------------------------------------
#
# The library costs a whole window at once from its stacked columns.  These
# helpers cost it the slow, literal way -- one row at a time, through an
# explicit pair-difference matrix -- so tests can check the stacked path
# against the definition.

@dataclass(frozen=True, eq=False)
class PairDifferenceMatrix:
    """Sparse-structured matrix of pairwise weighted-magnitude differences.

    Row for the unordered pair (i, j), i < j in lexicographic order, carries
    +m_i in column i and -m_j in column j, so (A w)_row = m_i w_i - m_j w_j.
    """

    matrix: np.ndarray
    pairs: tuple

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float, copy=True)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))

    @property
    def n_pairs(self):
        return self.matrix.shape[0]

    @property
    def k(self):
        return self.matrix.shape[1]


def build_pair_matrix(magnitudes):
    """Build the pair-difference matrix from per-task magnitudes.

    For K=3 magnitudes (m1, m2, m3) the rows are
    [m1, -m2, 0], [m1, 0, -m3], [0, m2, -m3].
    """
    mags = np.asarray(magnitudes, dtype=float)
    if mags.ndim != 1 or mags.size < 2:
        raise ValueError("need at least two magnitudes")
    if not np.all(np.isfinite(mags)) or np.any(mags < 0):
        raise ValueError("magnitudes must be finite and nonnegative")
    k = mags.size
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    matrix = np.zeros((len(pairs), k))
    for row, (i, j) in enumerate(pairs):
        matrix[row, i] = mags[i]
        matrix[row, j] = -mags[j]
    return PairDifferenceMatrix(matrix=matrix, pairs=tuple(pairs))


def clamp_and_redistribute(raw):
    """The feasible projection as a loop from its first round: shift the free
    coordinates to restore the sum K, pin those below the floor, repeat."""
    floor = WEIGHT_FLOOR
    v = np.asarray(raw, dtype=float)
    k = v.size
    pinned = np.zeros(k, dtype=bool)
    for _ in range(k):
        free = ~pinned
        n_free = int(free.sum())
        budget = k - floor * int(pinned.sum())
        shift = (budget - float(v[free].sum())) / n_free
        candidate = np.where(pinned, floor, v + shift)
        violating = free & (candidate < floor)
        if not violating.any():
            return WeightVector(candidate).w
        pinned |= violating
    raise AssertionError("feasible projection failed to settle")


def _rows(win):
    """The window's rows: (norms, gram, losses) per iteration."""
    return zip(win.norms, win.grams, win.losses)


def iteration_cost(kind, w, norms, gram, losses):
    """Cost of one window row under the weight array ``w``."""
    kind = CostKind.parse(kind)
    if kind is CostKind.LOW_CONDITION_NUMBER:
        kappa, _ = kappa_from_grams(gram * np.outer(w, w))
        if np.isnan(kappa):
            raise DegenerateInputError("scaled Gram has no positive eigenvalue")
        return float(kappa)
    mags = norms if kind is CostKind.EQUAL_GRAD_NORM else losses
    r = build_pair_matrix(mags).matrix @ w
    return float(r @ r)


def oracle_window_cost(kind, w, win):
    """Mean of :func:`iteration_cost` over the window's non-degenerate rows."""
    values = []
    for row in _rows(win):
        try:
            values.append(iteration_cost(kind, w, *row))
        except DegenerateInputError:
            pass
    if not values:
        raise DegenerateInputError("every iteration in the window is degenerate")
    return float(np.mean(values))


def oracle_quadratic_form(kind, win):
    """Mean over the window of A_t^T A_t, one iteration at a time."""
    kind = CostKind.parse(kind)
    k = win.k
    m = np.zeros((k, k))
    for norms, _, losses in _rows(win):
        a = build_pair_matrix(norms if kind is CostKind.EQUAL_GRAD_NORM else losses).matrix
        m += a.T @ a
    return m / len(win)


# ---------------------------------------------------------------------------
# per-pair metric-record oracle and finite-difference gradients
# ---------------------------------------------------------------------------

def pairwise_mean_flagged(per_pair_metric, snapshot):
    """Mean of a pair metric over the valid task pairs, and a flag per skip."""
    name = per_pair_metric.__name__
    values, flags = [], []
    for i in range(snapshot.k):
        for j in range(i + 1, snapshot.k):
            try:
                values.append(float(per_pair_metric(snapshot, i, j)))
            except DegenerateInputError as exc:
                flags.append(f"{name}({i},{j}) skipped: {exc}")
    return (float(np.mean(values)) if values else None), tuple(flags)


def oracle_metric_record(grad, loss, weights):
    """The metric record of one snapshot pair, one task pair at a time."""
    k = grad.k
    flags = []
    if k >= 2:
        gms_mean, gms_flags = pairwise_mean_flagged(grad_magnitude_similarity, grad)
        gcs_mean, gcs_flags = pairwise_mean_flagged(grad_cosine_similarity, grad)
        flags += gms_flags + gcs_flags
    else:
        gms_mean = gcs_mean = None
        flags.append("pair metrics skipped: single task")
    try:
        cond = condition_number(grad)
        if kappa_from_grams(grad.gram)[1]:
            flags.append("cond_number floored: Gram numerically singular")
    except DegenerateInputError as exc:
        cond = 1.0
        flags.append(f"cond_number degenerate: {exc}")
    ilr = inverse_learning_rate(loss)
    try:
        ldr = loss_descending_rate(loss)
    except ValueError:
        ldr = np.ones(k)
        flags.append("ldr degenerate: nonpositive previous loss")
    try:
        rl = relative_loss(loss)
    except DegenerateInputError as exc:
        rl = np.full(k, 1.0 / k)
        flags.append(f"rl degenerate: {exc}")
    w = weights.w if isinstance(weights, WeightVector) else np.asarray(weights, float)
    return MetricRecord(
        iteration=grad.iteration, gms_mean=gms_mean, gcs_mean=gcs_mean,
        cond_number=cond, ilr=tuple(float(v) for v in ilr),
        ilr_std=task_std(ilr) if k >= 2 else 0.0,
        ldr=tuple(float(v) for v in ldr), rl=tuple(float(v) for v in rl),
        rl_std=task_std(rl) if k >= 2 else 0.0,
        weights=tuple(float(v) for v in w), degenerate_flags=tuple(flags))


def metric_columns_match(columns, records):
    """Whether row n of ``metric_records`` columns equals ``records[n]`` bit
    for bit in every metric field, a NaN pair mean standing for None."""
    if len(columns["degenerate_flags"]) != len(records):
        return False
    for n, record in enumerate(records):
        for name in ("gms_mean", "gcs_mean", "cond_number", "ilr", "ilr_std", "ldr",
                     "rl", "rl_std"):
            want, got = getattr(record, name), columns[name][n].tolist()
            if want is None:
                if not math.isnan(got):
                    return False
            elif isinstance(want, tuple):
                if len(got) != len(want) or not all(map(bits_equal, got, want)):
                    return False
            elif not bits_equal(got, want):
                return False
        if tuple(columns["degenerate_flags"][n]) != record.degenerate_flags:
            return False
    return True


def metric_columns_identical(a, b):
    """Bitwise equality of two mappings of metric columns, flags included."""
    return a.keys() == b.keys() and all(
        tuple(a[n]) == tuple(b[n]) if n == "degenerate_flags"
        else a[n].shape == b[n].shape and a[n].tobytes() == b[n].tobytes() for n in a)


def finite_difference_gradients(problem, theta: np.ndarray) -> np.ndarray:
    """Central-difference task gradients; the ground truth for gradient tests."""
    theta = np.asarray(theta, dtype=float)
    k = problem.num_tasks
    grads = np.zeros((k, theta.size))
    for i in range(theta.size):
        step = 1e-6 * (1.0 + abs(float(theta[i])))
        plus = theta.copy()
        plus[i] += step
        minus = theta.copy()
        minus[i] -= step
        grads[:, i] = (np.asarray(problem.task_losses(plus)) -
                       np.asarray(problem.task_losses(minus))) / (2.0 * step)
    return grads


def _mlp_forward(problem, theta):
    """One parameter row of an ``MLPRegressionFamily``: its unpacked
    parameters and its forward pass."""
    i, w, k = problem.input_dim, problem.width, problem.num_tasks
    n_w1, n_b1, n_w2, n_b2, trunk, per_head, _ = problem._layout(i, w, k)
    pos = 0
    w1 = theta[pos:pos + n_w1].reshape(i, w); pos += n_w1
    b1 = theta[pos:pos + n_b1]; pos += n_b1
    w2 = theta[pos:pos + n_w2].reshape(w, w); pos += n_w2
    b2 = theta[pos:pos + n_b2]
    heads = theta[trunk:].reshape(k, per_head)
    h1 = np.tanh(problem.x @ w1 + b1)
    h2 = np.tanh(h1 @ w2 + b2)
    preds = h2 @ heads[:, :-1].T + heads[:, -1]     # (n, K)
    return w2, heads, h1, h2, preds


def oracle_mlp_task_losses(problem, theta):
    """(K,) losses of one parameter row of an ``MLPRegressionFamily``."""
    preds = _mlp_forward(problem, theta)[-1]
    residual = preds.T - problem.y                  # (K, n)
    return np.mean(residual ** 2, axis=1)


def oracle_mlp_task_gradients(problem, theta, tasks=None):
    """(len(tasks), full_dim) gradients of one parameter row of an
    ``MLPRegressionFamily``, one backward pass per task."""
    w2, heads, h1, h2, preds = _mlp_forward(problem, theta)
    n = problem.x.shape[0]
    rows = range(problem.num_tasks) if tasks is None else tasks
    grads = np.zeros((len(rows), problem.full_dim))
    d_h2_pre_base = 1.0 - h2 ** 2                   # tanh'
    d_h1_pre_base = 1.0 - h1 ** 2
    trunk = problem.trunk_dim
    per_head = problem.width + 1
    for i, t in enumerate(rows):
        d_pred = 2.0 * (preds[:, t] - problem.y[t]) / n          # (n,)
        d_v = h2.T @ d_pred                                      # (width,)
        d_c = float(d_pred.sum())
        d_h2 = np.outer(d_pred, heads[t, :-1])                   # (n, width)
        d_a2 = d_h2 * d_h2_pre_base
        d_w2 = h1.T @ d_a2
        d_b2 = d_a2.sum(axis=0)
        d_h1 = d_a2 @ w2.T
        d_a1 = d_h1 * d_h1_pre_base
        d_w1 = problem.x.T @ d_a1
        d_b1 = d_a1.sum(axis=0)
        grads[i, :trunk] = np.concatenate([d_w1.ravel(), d_b1, d_w2.ravel(), d_b2])
        start = trunk + t * per_head
        grads[i, start:start + problem.width] = d_v
        grads[i, start + problem.width] = d_c
    return grads


def oracle_stl_baselines(problem, total_iters: int) -> np.ndarray:
    """Single-task baselines stepping on row ``task`` of the full gradient
    matrix: all K gradients per step, one of them used."""
    k = problem.num_tasks
    h = problem.step_size
    best = np.full(k, np.inf)
    for task in range(k):
        theta = np.array(problem.initial_theta(), dtype=float)
        for _ in range(total_iters):
            losses = problem.task_losses(theta)
            best[task] = min(best[task], float(losses[task]))
            theta = theta - h * np.asarray(problem.task_gradients(theta))[task]
        best[task] = min(best[task], float(problem.task_losses(theta)[task]))
    return best


def weighted_optimum(problem, weights) -> np.ndarray:
    """Closed-form minimizer of sum_k w_k l_k of a ``QuadraticFamily``: the
    point fixed-weight descent converges to (the Pareto point of w)."""
    ws = weights.w * problem.scales
    h = np.einsum("k,kde->de", ws, problem.curvatures)
    rhs = np.einsum("k,kde,ke->d", ws, problem.curvatures, problem.centers)
    return np.linalg.solve(h, rhs)
