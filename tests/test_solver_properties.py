"""Generated-input properties of the feasible projection and the quadratic
solve (hypothesis)."""
import numpy as np
from hypothesis import given, settings, strategies as st

from autoscale import DEFAULT_WEIGHT_FLOOR, project_feasible, solve_quadratic
from autoscale.solver import _project

from helpers import clamp_and_redistribute

_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


def _vectors(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=8).map(np.array)


# Mixed signs (pins in most rounds) and positive entries (mostly one round).
raw_vectors = st.one_of(_vectors(-4.0, 8.0), _vectors(0.05, 3.0))


def _k_softmax(z):
    e = np.exp(np.array(z) - max(z))
    return len(z) * e / e.sum()


# Weights as the simplex search draws them: K * softmax of logits, whose
# small entries fall under the floor and need pins.
softmax_vectors = st.lists(st.floats(-15.0, 15.0), min_size=2, max_size=8).map(_k_softmax)


@_SETTINGS
@given(st.one_of(raw_vectors, softmax_vectors))
def test_project_equals_the_full_loop_bitwise(v):
    assert _project(v, DEFAULT_WEIGHT_FLOOR).tobytes() == \
        clamp_and_redistribute(v, DEFAULT_WEIGHT_FLOOR).tobytes()


@_SETTINGS
@given(st.one_of(raw_vectors, softmax_vectors))
def test_projection_satisfies_kkt(v):
    """w = v + tau + mu with mu >= 0 and mu_i > 0 only where w_i = floor."""
    wv = project_feasible(v)
    w, floor, k = wv.w, wv.floor, v.size
    assert abs(float(w.sum()) - k) <= 1e-9
    assert np.all(w >= floor)
    free = w > floor
    assert free.any()
    tau = w[free] - v[free]
    assert float(np.ptp(tau)) <= 1e-12 * max(1.0, float(np.abs(v).max()))
    mu = floor - v[~free] - tau[0]
    assert np.all(mu >= -1e-12 * max(1.0, float(np.abs(v).max())))


@_SETTINGS
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
def test_projection_is_identity_on_feasible_input(shares):
    k = len(shares)
    s = np.array(shares) + 1e-3
    w = DEFAULT_WEIGHT_FLOOR + (k - k * DEFAULT_WEIGHT_FLOOR) * s / s.sum()
    p = project_feasible(w).w
    # Only the rounding of sum(w) away from K moves it, by (K - sum) / K.
    gap = abs(k - float(w.sum()))
    assert np.all(np.abs(p - w) <= gap)
    if gap == 0.0:
        assert p.tobytes() == w.tobytes()


@st.composite
def psd_matrices(draw):
    """B^T B for a (rank x K) B with columns scaled over four decades, so
    rank-deficient and badly scaled M are both common."""
    k = draw(st.integers(2, 6))
    rank = draw(st.integers(1, k))
    rows = st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k)
    b = np.array(draw(st.lists(rows, min_size=rank, max_size=rank)))
    b = b * 10.0 ** np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)))
    return b.T @ b


@_SETTINGS
@given(psd_matrices())
def test_quadratic_solve_is_a_kkt_point(m):
    """The gradient 2 M w is equal across free coordinates and at least that
    value on pinned ones: the optimality condition of a convex QP."""
    report = solve_quadratic(m)
    w, floor, k = report.w_star.w, report.w_star.floor, m.shape[0]
    assert report.converged
    assert abs(float(w.sum()) - k) <= 1e-9 and np.all(w >= floor)
    grad = 2.0 * m @ w
    tol = 1e-7 * float((np.abs(m) @ w).max())
    free = w > floor + 1e-12  # the final projection may lift a pin by an ulp
    level = float(grad[free].mean())
    assert np.all(np.abs(grad[free] - level) <= tol)
    assert np.all(grad[~free] >= level - tol)
