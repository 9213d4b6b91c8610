"""Window costs: pair-difference residuals, condition number, quadratic forms."""
import numpy as np
import pytest

from autoscale import (
    CostKind,
    DegenerateInputError,
    WindowBuffer,
    make_weight_vector,
    quadratic_form,
    window_cost,
)

from helpers import (
    build_pair_matrix,
    grad_snap,
    loss_snap,
    oracle_quadratic_form,
    oracle_window_cost,
    random_window,
    window,
)


def _single(s, l=None):
    """One-iteration window around a gradient snapshot."""
    return window([(s, l if l is not None else loss_snap(np.ones(s.k)))])


# ---------------------------------------------------------------------------
# cost kinds
# ---------------------------------------------------------------------------

def test_cost_kind_parse():
    assert CostKind.parse("equal-grad-norm") is CostKind.EQUAL_GRAD_NORM
    assert CostKind.parse("equal-loss") is CostKind.EQUAL_LOSS
    assert CostKind.parse("low-cond") is CostKind.LOW_CONDITION_NUMBER
    assert CostKind.parse(CostKind.EQUAL_LOSS) is CostKind.EQUAL_LOSS
    with pytest.raises(ValueError, match="unknown cost kind"):
        CostKind.parse("fair-share")


def test_cost_kind_quadratic_split():
    assert CostKind.EQUAL_GRAD_NORM.is_quadratic
    assert CostKind.EQUAL_LOSS.is_quadratic
    assert not CostKind.LOW_CONDITION_NUMBER.is_quadratic


# ---------------------------------------------------------------------------
# pair-difference matrix (the test oracle's building block)
# ---------------------------------------------------------------------------

def test_pair_matrix_k2():
    a = build_pair_matrix([1.0, 2.0])
    assert a.matrix.tolist() == [[1.0, -2.0]]
    assert a.pairs == ((0, 1),)
    assert a.k == 2 and a.n_pairs == 1


def test_pair_matrix_k3_layout():
    m1, m2, m3 = 2.0, 3.0, 5.0
    a = build_pair_matrix([m1, m2, m3])
    assert a.matrix.tolist() == [[m1, -m2, 0.0],
                                 [m1, 0.0, -m3],
                                 [0.0, m2, -m3]]
    assert a.pairs == ((0, 1), (0, 2), (1, 2))


def test_pair_matrix_validation():
    with pytest.raises(ValueError):
        build_pair_matrix([1.0])
    with pytest.raises(ValueError):
        build_pair_matrix([1.0, -2.0])
    with pytest.raises(ValueError):
        build_pair_matrix([1.0, np.nan])
    a = build_pair_matrix([1.0, 1.0])
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 9.0    # matrix is read-only


# ---------------------------------------------------------------------------
# single-iteration windows
# ---------------------------------------------------------------------------

def test_equal_grad_norm_zero_at_balanced_weights():
    # norms (2, 1): residual 2*w1 - 1*w2 vanishes at w = (2/3, 4/3)
    s = grad_snap([[2.0, 0.0], [0.0, 1.0]])
    w = make_weight_vector([2.0 / 3.0, 4.0 / 3.0])
    assert window_cost("equal-grad-norm", w, _single(s)) < 1e-20
    # ...and is (2*1 - 1*1)^2 = 1 at uniform weights
    u = make_weight_vector([1.0, 1.0])
    assert window_cost("equal-grad-norm", u, _single(s)) == pytest.approx(1.0, abs=1e-12)


def test_equal_loss_uses_losses_as_magnitudes():
    s = grad_snap([[1.0, 0.0], [0.0, 1.0]])
    l = loss_snap([3.0, 1.0])
    w = make_weight_vector([0.5, 1.5])
    assert window_cost("equal-loss", w, _single(s, l)) == pytest.approx(0.0, abs=1e-20)


def test_low_cond_cost_reaches_one():
    # orthogonal gradients with norms (1, 2): w = (4/3, 2/3) equalizes the
    # scaled norms, so the scaled stack is perfectly conditioned
    s = grad_snap([[1.0, 0.0], [0.0, 2.0]])
    w = make_weight_vector([4.0 / 3.0, 2.0 / 3.0])
    assert window_cost("low-cond", w, _single(s)) == pytest.approx(1.0, abs=1e-12)
    u = make_weight_vector([1.0, 1.0])
    assert window_cost("low-cond", u, _single(s)) == pytest.approx(2.0, abs=1e-12)


def test_low_cond_degenerate_gram():
    s = grad_snap([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateInputError):
        window_cost("low-cond", make_weight_vector([1.0, 1.0]), _single(s))


def test_cost_rejects_wrong_weight_length():
    s = grad_snap([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        window_cost("equal-grad-norm", np.array([1.0, 1.0, 1.0]), _single(s))


# ---------------------------------------------------------------------------
# window aggregation
# ---------------------------------------------------------------------------

def test_window_cost_is_mean_of_iteration_costs():
    # two iterations with per-iteration costs 0 and 4 -> window cost 2
    s0 = grad_snap([[1.0, 0.0], [0.0, 1.0]], iteration=0)   # cost 0 at uniform
    s1 = grad_snap([[3.0, 0.0], [0.0, 1.0]], iteration=1)   # (3-1)^2 = 4
    w = window([(s0, loss_snap([1.0, 1.0], iteration=0)),
                (s1, loss_snap([1.0, 1.0], iteration=1))])
    u = make_weight_vector([1.0, 1.0])
    assert window_cost("equal-grad-norm", u, w) == pytest.approx(2.0, abs=1e-12)


def test_window_cost_empty_window():
    empty = WindowBuffer(pairs=(), capacity=1)
    with pytest.raises(ValueError):
        window_cost("equal-grad-norm", make_weight_vector([1.0, 1.0]), empty)
    with pytest.raises(ValueError):
        quadratic_form("equal-grad-norm", empty)
    with pytest.raises(ValueError):
        window_cost("equal-grad-norm", np.ones((1, 2)), empty)


def test_window_cost_skips_degenerate_iterations():
    good = grad_snap([[1.0, 0.0], [0.0, 2.0]], iteration=0)
    bad = grad_snap([[0.0, 0.0], [0.0, 0.0]], iteration=1)
    w = window([(good, loss_snap([1.0, 1.0], iteration=0)),
                (bad, loss_snap([1.0, 1.0], iteration=1))])
    u = make_weight_vector([1.0, 1.0])
    # the degenerate iteration drops out of the low-cond mean
    assert window_cost("low-cond", u, w) == pytest.approx(2.0, abs=1e-12)
    all_bad = window([(bad, loss_snap([1.0, 1.0], iteration=1))])
    with pytest.raises(DegenerateInputError):
        window_cost("low-cond", u, all_bad)


# ---------------------------------------------------------------------------
# quadratic form
# ---------------------------------------------------------------------------

def test_quadratic_form_example():
    s = grad_snap([[1.0, 0.0], [0.0, 1.0]])
    w = window([(s, loss_snap([1.0, 1.0]))])
    m = quadratic_form("equal-grad-norm", w)
    assert m.tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    # equal magnitudes: the uniform vector is in the null space
    assert np.allclose(m @ np.ones(2), 0.0, atol=1e-15)


def test_quadratic_form_only_for_quadratic_kinds():
    s = grad_snap([[1.0, 0.0], [0.0, 1.0]])
    w = window([(s, loss_snap([1.0, 1.0]))])
    with pytest.raises(ValueError, match="not a quadratic cost"):
        quadratic_form("low-cond", w)


def test_quadratic_form_matches_window_cost():
    rng = np.random.default_rng(99)
    for trial in range(60):
        k = 2 + trial % 3
        win = random_window(rng, k=k, d=int(rng.integers(3, 8)),
                            n=int(rng.integers(1, 5)))
        raw = rng.uniform(0.05, 3.0, size=k)
        wv = make_weight_vector(raw)
        for kind in ("equal-grad-norm", "equal-loss"):
            m = quadratic_form(kind, win)
            assert np.allclose(m, m.T, atol=0)
            direct = window_cost(kind, wv, win)
            through_form = float(wv.w @ m @ wv.w)
            assert through_form == pytest.approx(direct, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# many weight rows at once
# ---------------------------------------------------------------------------

def test_batch_matches_scalar_all_kinds():
    rng = np.random.default_rng(123)
    win = random_window(rng, k=3, d=5, n=4)
    rows = np.stack([make_weight_vector(rng.uniform(0.05, 2.0, 3)).w
                     for _ in range(20)])
    for kind in ("equal-grad-norm", "equal-loss", "low-cond"):
        got = window_cost(kind, rows, win)
        want = np.array([window_cost(kind, r, win) for r in rows])
        assert got == pytest.approx(want, rel=1e-10)


def test_batch_low_cond_skips_like_scalar():
    good = grad_snap([[1.0, 0.0], [0.0, 2.0]], iteration=0)
    bad = grad_snap([[0.0, 0.0], [0.0, 0.0]], iteration=1)
    win = window([(good, loss_snap([1.0, 1.0], iteration=0)),
                  (bad, loss_snap([1.0, 1.0], iteration=1))])
    rows = np.array([[1.0, 1.0], [4.0 / 3.0, 2.0 / 3.0]])
    got = window_cost("low-cond", rows, win)
    assert got == pytest.approx([2.0, 1.0], abs=1e-12)
    all_bad = window([(bad, loss_snap([1.0, 1.0], iteration=1))])
    with pytest.raises(DegenerateInputError):
        window_cost("low-cond", rows, all_bad)


def test_batch_validates_shapes():
    rng = np.random.default_rng(1)
    win = random_window(rng, k=3, d=4, n=2)
    with pytest.raises(ValueError):
        window_cost("equal-grad-norm", np.ones((1, 2, 3)), win)    # not 1-d or 2-d
    with pytest.raises(ValueError):
        window_cost("equal-grad-norm", np.ones((2, 2)), win)       # wrong K


# ---------------------------------------------------------------------------
# structural invariances
# ---------------------------------------------------------------------------

def test_costs_are_permutation_equivariant():
    """Relabeling tasks and permuting the weights leaves every cost unchanged."""
    rng = np.random.default_rng(77)
    g = rng.standard_normal((3, 6))
    losses = rng.uniform(0.2, 2.0, 3)
    raw = rng.uniform(0.1, 2.0, 3)
    perm = np.array([2, 0, 1])

    def make(gs, ls):
        return window([(grad_snap(gs), loss_snap(ls))])

    w_orig = make(g, losses)
    w_perm = make(g[perm], losses[perm])
    wv = make_weight_vector(raw)
    wv_perm = make_weight_vector(raw[perm])
    for kind in ("equal-grad-norm", "equal-loss", "low-cond"):
        assert window_cost(kind, wv_perm, w_perm) == pytest.approx(
            window_cost(kind, wv, w_orig), rel=1e-10)


# ---------------------------------------------------------------------------
# one evaluation path: rows, single calls and the per-iteration oracle
# ---------------------------------------------------------------------------

def _degenerate_window(rng, k, t, stride=1):
    """Random window where some iterations have all-zero gradients (skipped
    by low-cond) or one zero gradient (kept, with a floored eigenvalue)."""
    pairs = []
    for n in range(t):
        g = rng.standard_normal((k, int(rng.integers(k, k + 4))))
        u = rng.uniform()
        if n > 0 and u < 0.2:
            g[:] = 0.0
        elif u < 0.35:
            g[int(rng.integers(k))] = 0.0
        it = n * stride
        pairs.append((grad_snap(g, iteration=it),
                      loss_snap(rng.uniform(0.0, 2.0, size=k), initial=np.ones(k),
                                iteration=it)))
    return window(pairs, stride=stride)


def _weight_rows(rng, k, n):
    return np.stack([make_weight_vector(rng.uniform(0.05, 3.0, k)).w
                     for _ in range(n)])


def test_rows_equal_single_calls_exactly():
    """Row n of an (N, K) call is bit-identical to the (K,) call on that row,
    for every kind, including windows with degenerate iterations."""
    rng = np.random.default_rng(2400)
    n_degenerate = 0
    for trial in range(200):
        k = 2 + trial % 4
        win = _degenerate_window(rng, k, int(rng.integers(1, 60)))
        n_degenerate += int(np.any(win.norms.sum(axis=1) == 0.0))
        rows = _weight_rows(rng, k, 12)
        for kind in ("equal-grad-norm", "equal-loss", "low-cond"):
            got = window_cost(kind, rows, win)
            want = np.array([window_cost(kind, r, win) for r in rows])
            assert np.array_equal(got, want), (trial, kind)
    assert n_degenerate > 50


def test_low_cond_equals_oracle_exactly():
    """Stacked low-cond equals the per-iteration mean bit for bit, with
    stride > 1 and with degenerate iterations skipped."""
    rng = np.random.default_rng(77)
    for trial in range(120):
        k = 2 + trial % 4
        win = _degenerate_window(rng, k, int(rng.integers(1, 40)),
                                 stride=1 + trial % 3)
        for w in _weight_rows(rng, k, 3):
            assert window_cost("low-cond", w, win) == oracle_window_cost(
                "low-cond", w, win), trial


def test_quadratic_kinds_match_oracle():
    rng = np.random.default_rng(78)
    for trial in range(120):
        k = 2 + trial % 7
        win = _degenerate_window(rng, k, int(rng.integers(1, 40)),
                                 stride=1 + trial % 3)
        for kind in ("equal-grad-norm", "equal-loss"):
            m = quadratic_form(kind, win)
            assert m == pytest.approx(oracle_quadratic_form(kind, win), rel=1e-12)
            # closed form: M = (K I - 11^T) * mean_t(m_t m_t^T), entrywise
            mags = win.norms if kind == "equal-grad-norm" else win.losses
            outer = (mags[:, :, None] * mags[:, None, :]).mean(axis=0)
            assert m == pytest.approx((k * np.eye(k) - 1.0) * outer, rel=1e-12)
            for w in _weight_rows(rng, k, 3):
                assert window_cost(kind, w, win) == pytest.approx(
                    oracle_window_cost(kind, w, win), rel=1e-12)


def test_quadratic_form_needs_two_tasks():
    win = _single(grad_snap([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="two tasks"):
        quadratic_form("equal-grad-norm", win)
    assert window_cost("low-cond", np.ones(1), win) == 1.0
