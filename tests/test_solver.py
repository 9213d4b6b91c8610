"""Constrained weight solvers: closed-form quadratic and simplex search."""
import numpy as np
import pytest

from autoscale import (
    WEIGHT_FLOOR,
    SolverMethod,
    make_weight_vector,
    project_feasible,
    quadratic_form,
    solve_general,
    solve_quadratic,
    uniform_weights,
    window_cost,
)

from helpers import grad_snap, loss_snap, random_window, simplex_grid, window


def _norm_window(norms):
    s = grad_snap(np.diag(np.asarray(norms, dtype=float)))
    return window([(s, loss_snap(np.ones(len(norms))))])


# ---------------------------------------------------------------------------
# feasibility projection
# ---------------------------------------------------------------------------

def test_project_feasible_examples():
    assert project_feasible([1.0, 1.0]).as_tuple() == (1.0, 1.0)
    w = project_feasible([3.0, -1.0])
    assert w.w[1] == WEIGHT_FLOOR
    assert w.w[0] == pytest.approx(2.0 - WEIGHT_FLOOR, abs=1e-15)
    w = project_feasible([0.0, 0.0, 6.0])
    assert w.w[0] == WEIGHT_FLOOR and w.w[1] == WEIGHT_FLOOR
    assert w.w[2] == pytest.approx(3.0 - 2 * WEIGHT_FLOOR, abs=1e-14)
    assert float(w.w.sum()) == pytest.approx(3.0, abs=1e-12)


def test_project_feasible_is_nearest_feasible_point():
    """Euclidean optimality: no feasible point is closer to the raw input."""
    rng = np.random.default_rng(21)
    grid = simplex_grid(3, step=0.05)
    # push grid points off the boundary so every candidate is feasible
    feasible = np.stack([project_feasible(row).w for row in grid])
    for _ in range(25):
        raw = rng.uniform(-1.0, 3.0, size=3)
        p = project_feasible(raw)
        assert float(p.w.sum()) == pytest.approx(3.0, abs=1e-10)
        assert np.all(p.w >= WEIGHT_FLOOR - 1e-15)
        d_proj = float(np.sum((p.w - raw) ** 2))
        d_grid = float(np.sum((feasible - raw) ** 2, axis=1).min())
        assert d_proj <= d_grid + 1e-12


def test_project_feasible_identity_on_feasible_input():
    w = np.array([0.7, 1.1, 1.2])
    assert np.array_equal(project_feasible(w).w, w)


# ---------------------------------------------------------------------------
# closed-form quadratic solve
# ---------------------------------------------------------------------------

def test_solve_quadratic_balances_grad_norms():
    m = quadratic_form("equal-grad-norm", _norm_window([2.0, 1.0]))
    report = solve_quadratic(m)
    assert report.method is SolverMethod.CLOSED_FORM_QP
    assert report.converged
    assert report.w_star.w == pytest.approx([2.0 / 3.0, 4.0 / 3.0], abs=1e-6)
    assert report.cost_at_w_star <= 1e-10


def test_solve_quadratic_equal_norms_gives_uniform():
    m = quadratic_form("equal-grad-norm", _norm_window([3.0, 3.0, 3.0]))
    report = solve_quadratic(m)
    assert report.w_star.w == pytest.approx(np.ones(3), abs=1e-9)


def test_solve_quadratic_stationarity_certificate():
    """Unpinned interior solutions satisfy the equality-constrained optimality
    condition: the gradient 2 M w is constant across coordinates."""
    rng = np.random.default_rng(17)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        a = rng.standard_normal((k + 2, k))
        m = a.T @ a
        report = solve_quadratic(m)
        w = report.w_star.w
        assert float(w.sum()) == pytest.approx(k, abs=1e-9)
        grad = 2.0 * m @ w
        interior = w > WEIGHT_FLOOR * (1 + 1e-6)
        if interior.all():
            spread = float(grad.max() - grad.min())
            assert spread <= 1e-6 * max(1.0, float(np.abs(grad).max()))
        # and never beaten by a dense feasible grid
        grid = simplex_grid(k, step=0.05) if k <= 3 else None
        if grid is not None:
            feasible = grid[np.all(grid > 0, axis=1)]
            feasible = feasible * (k / feasible.sum(axis=1, keepdims=True))
            grid_best = float(np.einsum("nk,kl,nl->n", feasible, m, feasible).min())
            assert report.cost_at_w_star <= grid_best + 1e-9


def test_solve_quadratic_pins_at_floor():
    # extreme magnitude ratio drives one weight to the boundary
    m = quadratic_form("equal-grad-norm", _norm_window([1000.0, 0.001]))
    report = solve_quadratic(m)
    floor = WEIGHT_FLOOR
    assert report.w_star.w[0] == pytest.approx(floor, abs=0)
    assert report.w_star.w[1] == pytest.approx(2.0 - floor, abs=1e-9)
    # the pinned point is the constrained optimum: nudging mass back to the
    # pinned coordinate only raises the cost
    eps = 1e-5
    nudged = np.array([floor + eps, 2.0 - floor - eps])
    assert float(nudged @ m @ nudged) >= report.cost_at_w_star


def test_solve_quadratic_singular_matrix_prefers_uniform():
    # M = 0: everything is optimal; the solver returns the least-surprising
    # feasible point (uniform)
    report = solve_quadratic(np.zeros((3, 3)))
    assert report.w_star.w == pytest.approx(np.ones(3), abs=1e-9)
    # rank-1 ones outer product: null space contains all sum-zero directions
    report = solve_quadratic(np.ones((2, 2)))
    assert report.w_star.w == pytest.approx(np.ones(2), abs=1e-9)
    assert report.cost_at_w_star == pytest.approx(4.0, abs=1e-9)


def test_solve_quadratic_releases_a_pin_on_a_rank_deficient_matrix():
    # PSD of rank 2.  Pinning coordinates 0 and 2 at the floor is not optimal:
    # the minimum shares the weight between coordinates 1 and 2.
    m = np.array([[10.0, 3.0, -1.0], [3.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    report = solve_quadratic(m)
    assert report.converged
    assert report.cost_at_w_star <= 4.5004
    assert report.w_star.w == pytest.approx([1e-4, 1.49975, 1.50015], abs=1e-9)


def test_solve_quadratic_input_validation():
    with pytest.raises(ValueError):
        solve_quadratic(np.ones((2, 3)))                       # not square
    with pytest.raises(ValueError):
        solve_quadratic(np.array([[1.0]]))                     # K < 2
    with pytest.raises(ValueError, match="symmetric"):
        solve_quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        solve_quadratic(np.array([[1.0, 0.0], [0.0, -1.0]]))


# ---------------------------------------------------------------------------
# derivative-free simplex search
# ---------------------------------------------------------------------------

def test_solve_general_low_cond_two_tasks():
    win = _norm_window([1.0, 2.0])
    report = solve_general(lambda w: window_cost("low-cond", w, win),
                           w_init=uniform_weights(2), seed=0)
    assert report.method is SolverMethod.SIMPLEX_SEARCH
    assert report.converged
    want = np.array([4.0 / 3.0, 2.0 / 3.0])
    assert np.max(np.abs(report.w_star.w - want) / want) <= 0.02
    assert report.cost_at_w_star <= 1.01


def test_solve_general_orthonormal_stays_uniform():
    win = _norm_window([1.0, 1.0, 1.0])
    report = solve_general(lambda w: window_cost("low-cond", w, win),
                           w_init=uniform_weights(3), seed=0)
    # cost is exactly 1 everywhere near uniform; the init is already optimal
    assert report.cost_at_w_star == pytest.approx(1.0, abs=1e-9)


def test_solve_general_beats_coarse_grid():
    rng = np.random.default_rng(7)
    win = random_window(rng, k=3, d=5, n=3)
    report = solve_general(lambda w: window_cost("low-cond", w, win),
                           w_init=uniform_weights(3), seed=0)
    grid = simplex_grid(3, step=0.05)
    costs = window_cost("low-cond", grid, win)
    assert report.cost_at_w_star <= float(costs.min()) + 1e-3


def test_solve_general_deterministic():
    rng = np.random.default_rng(3)
    win = random_window(rng, k=3, d=4, n=2)
    fn = lambda w: window_cost("low-cond", w, win)
    a = solve_general(fn, w_init=uniform_weights(3), seed=5)
    b = solve_general(fn, w_init=uniform_weights(3), seed=5)
    assert np.array_equal(a.w_star.w, b.w_star.w)
    assert a.cost_at_w_star == b.cost_at_w_star
    assert a.iterations == b.iterations


def test_solve_general_never_worse_than_init():
    rng = np.random.default_rng(31)
    for trial in range(10):
        k = 2 + trial % 2
        win = random_window(rng, k=k, d=4, n=2)
        init = make_weight_vector(rng.uniform(0.1, 2.0, k))
        fn = lambda w: window_cost("low-cond", w, win)
        report = solve_general(fn, w_init=init, seed=trial)
        assert report.cost_at_w_star <= fn(init) + 1e-9


def test_solve_general_budget_exhaustion():
    win = _norm_window([1.0, 3.0])
    fn = lambda w: window_cost("equal-grad-norm", w, win)
    report = solve_general(fn, w_init=uniform_weights(2), budget=1, seed=0)
    assert not report.converged
    assert report.iterations == 1
    # with only the init evaluation allowed, the init comes back
    assert np.array_equal(report.w_star.w, uniform_weights(2).w)


def test_solve_general_handles_degenerate_costs():
    # a cost that is degenerate away from a thin slice: the solver treats
    # those evaluations as +inf and still improves on the feasible side
    win = _norm_window([1.0, 2.0])

    def spiky(w):
        if w[0] > 1.5:
            from autoscale import DegenerateInputError
            raise DegenerateInputError("synthetic dead zone")
        return window_cost("equal-grad-norm", w, win)

    report = solve_general(spiky, w_init=uniform_weights(2), seed=0)
    assert report.cost_at_w_star <= spiky(uniform_weights(2).w)
    assert report.w_star.w[0] <= 1.5
