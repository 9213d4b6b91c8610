"""Synthetic problem families, baselines, and weight-sampling utilities."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autoscale import (
    WEIGHT_FLOOR,
    imbalanced_reference_problem,
    make_mlp_problem,
    make_quadratic_problem,
    make_weight_vector,
    random_loss_weighting_step,
    run_fixed_scalarization,
    run_stl_baselines,
    sample_weight_sets,
    snapshot_from_gradients,
    grad_cosine_similarity,
    grad_magnitude_similarity,
    pairwise_mean,
)

from helpers import finite_difference_gradients, oracle_stl_baselines, weighted_optimum

# One instance of each family with K >= 3, so subsets can be reordered.
_FAMILIES = {
    "mlp": make_mlp_problem(k=4, input_dim=2, width=8, n_samples=16, seed=1),
    "quadratic": make_quadratic_problem(k=4, d=5, scales=[1.0, 2.0, 0.5, 4.0],
                                        conflict_angle=math.pi / 3.0, seed=1),
}


# ---------------------------------------------------------------------------
# analytic gradients vs central differences
# ---------------------------------------------------------------------------

def _check_gradients(problem, rng, points=10, scale=0.5):
    for _ in range(points):
        theta = problem.initial_theta() + scale * rng.standard_normal(problem.full_dim)
        exact = problem.task_gradients(theta)
        approx = finite_difference_gradients(problem, theta)
        denom = max(1.0, float(np.abs(exact).max()))
        assert float(np.abs(exact - approx).max()) / denom <= 1e-5


def test_quadratic_gradients_match_finite_differences():
    problem = make_quadratic_problem(k=3, d=4, scales=[1.0, 2.0, 0.5],
                                     conflict_angle=math.pi / 3.0, seed=2)
    _check_gradients(problem, np.random.default_rng(0))


def test_reference_problem_gradients_match_finite_differences():
    _check_gradients(imbalanced_reference_problem(), np.random.default_rng(1))


def test_mlp_gradients_match_finite_differences():
    problem = make_mlp_problem(k=2, input_dim=2, width=8, n_samples=16, seed=4)
    _check_gradients(problem, np.random.default_rng(2), points=5, scale=0.2)


# ---------------------------------------------------------------------------
# gradients of a subset of the tasks
# ---------------------------------------------------------------------------

@st.composite
def _theta_and_tasks(draw):
    problem = _FAMILIES[draw(st.sampled_from(sorted(_FAMILIES)))]
    seed = draw(st.integers(0, 2**32 - 1))
    theta = problem.initial_theta() + \
        0.5 * np.random.default_rng(seed).standard_normal(problem.full_dim)
    k = problem.num_tasks
    tasks = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k,
                          unique=True))
    return problem, theta, tasks


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_theta_and_tasks())
def test_task_subset_rows_equal_the_full_matrix_rows_bitwise(case):
    problem, theta, tasks = case
    rows = problem.task_gradients(theta, tuple(tasks))
    assert rows.shape == (len(tasks), problem.full_dim)
    assert rows.tobytes() == problem.task_gradients(theta)[tasks].tobytes()


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_a_batch_of_parameters_gives_each_row_its_own_values_bitwise(family):
    problem = _FAMILIES[family]
    rng = np.random.default_rng(3)
    thetas = problem.initial_theta() + 0.5 * rng.standard_normal((5, problem.full_dim))
    losses, grads = problem.task_losses(thetas), problem.task_gradients(thetas)
    subset = problem.task_gradients(thetas, (2, 0))
    assert losses.shape == (5, 4) and grads.shape == (5, 4, problem.full_dim)
    for theta, row_losses, row_grads, row_subset in zip(thetas, losses, grads, subset):
        assert row_losses.tobytes() == problem.task_losses(theta).tobytes()
        assert row_grads.tobytes() == problem.task_gradients(theta).tobytes()
        assert row_subset.tobytes() == problem.task_gradients(theta, (2, 0)).tobytes()


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("bad", [-1, 4, 1.0, "0", True, None])
def test_task_indices_outside_the_tasks_are_rejected(family, bad):
    problem = _FAMILIES[family]
    with pytest.raises(ValueError, match=rf"task index {bad!r} .* K = 4"):
        problem.task_gradients(problem.initial_theta(), (0, bad))


def test_stl_baselines_request_one_gradient_row_per_step():
    problem = make_mlp_problem(k=8, input_dim=2, width=8, n_samples=16, seed=1)
    rows = []

    class Counting:
        def __getattr__(self, name):
            return getattr(problem, name)

        def task_gradients(self, theta, tasks=None):
            grads = problem.task_gradients(theta, tasks)
            rows.append(grads.shape[0])
            return grads

    run_stl_baselines(Counting(), 5)
    assert len(rows) == 8 * 5
    assert sum(rows) == 8 * 5


# ---------------------------------------------------------------------------
# controlled start geometry
# ---------------------------------------------------------------------------

def test_quadratic_start_geometry_balanced():
    problem = make_quadratic_problem(k=2, d=3, scales=[1.0, 1.0],
                                     conflict_angle=math.pi / 2.0, seed=0)
    snap = snapshot_from_gradients(problem.task_gradients(problem.initial_theta()))
    assert pairwise_mean(grad_magnitude_similarity, snap) >= 1.0 - 1e-12
    assert abs(pairwise_mean(grad_cosine_similarity, snap)) <= 1e-10


def test_quadratic_start_geometry_imbalanced():
    problem = make_quadratic_problem(k=2, d=3, scales=[1.0, 10.0],
                                     conflict_angle=math.pi / 2.0, seed=0)
    snap = snapshot_from_gradients(problem.task_gradients(problem.initial_theta()))
    # 2*1*10 / (1 + 100) = 20/101
    assert pairwise_mean(grad_magnitude_similarity, snap) == pytest.approx(
        20.0 / 101.0, abs=1e-12)
    norms = snap.norms
    assert norms[1] / norms[0] == pytest.approx(10.0, rel=1e-12)


def test_quadratic_start_angle_is_honored():
    angle = math.pi / 3.0
    problem = make_quadratic_problem(k=3, d=5, scales=[1.0, 1.0, 1.0],
                                     conflict_angle=angle, seed=6)
    snap = snapshot_from_gradients(problem.task_gradients(problem.initial_theta()))
    for i in range(3):
        for j in range(i + 1, 3):
            assert grad_cosine_similarity(snap, i, j) == pytest.approx(
                math.cos(angle), abs=1e-10)


def test_conflict_free_tasks_share_their_optimum():
    # angle 0: both tasks pull along the same direction, so plain uniform
    # training drives each loss to its per-task optimum
    problem = make_quadratic_problem(k=2, d=3, scales=[1.0, 1.0],
                                     conflict_angle=0.0, seed=0,
                                     offsets=[0.3, 0.7])
    run = run_fixed_scalarization(problem, make_weight_vector([1.0, 1.0]), 500)
    assert run.final_losses == pytest.approx(problem.reference_optima, abs=1e-8)


def test_quadratic_geometry_validation():
    with pytest.raises(ValueError):
        make_quadratic_problem(k=4, d=3, scales=np.ones(4),
                               conflict_angle=math.pi / 2.0)        # d < k
    with pytest.raises(ValueError):
        make_quadratic_problem(k=3, d=5, scales=np.ones(3),
                               conflict_angle=math.pi)              # cos < -1/(k-1)
    with pytest.raises(ValueError):
        make_quadratic_problem(k=2, d=3, scales=np.ones(3),
                               conflict_angle=math.pi / 2.0)        # wrong scales


def test_single_task_quadratic_builds():
    problem = make_quadratic_problem(k=1, d=3, scales=[2.0],
                                     conflict_angle=math.pi / 2.0)
    snap = snapshot_from_gradients(problem.task_gradients(problem.initial_theta()))
    assert snap.norms[0] == pytest.approx(2.0, rel=1e-12)


def test_weighted_optimum_is_the_training_limit():
    problem = make_quadratic_problem(k=2, d=3, scales=[1.0, 2.0],
                                     conflict_angle=math.pi / 2.0, seed=3)
    w = make_weight_vector([0.6, 1.4])
    run = run_fixed_scalarization(problem, w, 2000)
    target = weighted_optimum(problem, w)
    assert np.max(np.abs(run.theta_final - target)) <= 1e-4


# ---------------------------------------------------------------------------
# the imbalanced reference instance
# ---------------------------------------------------------------------------

def test_reference_problem_invariants():
    problem = imbalanced_reference_problem()
    assert problem.num_tasks == 3
    assert problem.full_dim == 6
    assert problem.reference_optima == (1.2196, 1.0, 2.2087)
    grads = problem.task_gradients(problem.initial_theta())
    norms = np.linalg.norm(grads, axis=1)
    # stiffness varies 16x but every task starts at the same gradient norm
    assert norms == pytest.approx([2.0, 2.0, 2.0], rel=1e-12)
    snap = snapshot_from_gradients(grads)
    assert abs(pairwise_mean(grad_cosine_similarity, snap)) <= 1e-10
    # deliberately conservative step size (see the family docstring)
    assert problem.step_size == 7e-5


# ---------------------------------------------------------------------------
# single-task baselines
# ---------------------------------------------------------------------------

def test_stl_baselines_reach_quadratic_optima():
    problem = make_quadratic_problem(k=2, d=3, scales=[1.0, 2.0],
                                     conflict_angle=math.pi / 3.0, seed=0,
                                     offsets=[0.5, 1.25])
    baselines = run_stl_baselines(problem, 200)
    assert baselines == pytest.approx([0.5, 1.25], abs=1e-6)
    with pytest.raises(ValueError):
        run_stl_baselines(problem, 0)


@pytest.mark.parametrize("problem, iters", [
    (make_mlp_problem(k=3, seed=2), 200),
    (make_mlp_problem(k=8, step_size=0.05, seed=1), 60),
    (make_quadratic_problem(k=2, d=3, scales=[1.0, 2.0],
                            conflict_angle=math.pi / 3.0, seed=0,
                            offsets=[0.5, 1.25]), 200),
], ids=["mlp-k3", "mlp-k8", "quadratic-k2"])
def test_stl_baselines_equal_the_full_matrix_oracle_bytewise(problem, iters):
    assert run_stl_baselines(problem, iters).tobytes() == \
        oracle_stl_baselines(problem, iters).tobytes()


def test_stl_baselines_solve_realizable_mlp():
    problem = make_mlp_problem(k=2, input_dim=2, width=16, n_samples=64,
                               noise=0.0, seed=3)
    baselines = run_stl_baselines(problem, 1500)
    assert np.all(baselines < 1e-3)


def test_mlp_problem_is_seed_deterministic():
    a = make_mlp_problem(k=2, seed=5)
    b = make_mlp_problem(k=2, seed=5)
    c = make_mlp_problem(k=2, seed=6)
    assert np.array_equal(a.initial_theta(), b.initial_theta())
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_mlp_head_gradients_are_isolated():
    problem = make_mlp_problem(k=3, input_dim=2, width=8, n_samples=16, seed=0)
    rng = np.random.default_rng(9)
    theta = problem.initial_theta() + 0.1 * rng.standard_normal(problem.full_dim)
    grads = problem.task_gradients(theta)
    trunk = problem.trunk_dim
    per_head = problem.width + 1
    for t in range(3):
        for other in range(3):
            block = grads[t, trunk + other * per_head:
                          trunk + (other + 1) * per_head]
            if other == t:
                assert np.any(block != 0.0)
            else:
                assert np.all(block == 0.0)
    # and the shared slice stops exactly at the trunk
    assert problem.shared_slice == slice(0, trunk)


# ---------------------------------------------------------------------------
# weight sampling
# ---------------------------------------------------------------------------

def test_dirichlet_sampler_distinct_feasible_deterministic():
    sets = sample_weight_sets(19, 3, seed=0, scheme="dirichlet-uniform")
    again = sample_weight_sets(19, 3, seed=0, scheme="dirichlet-uniform")
    assert len(sets) == 19
    seen = {wv.as_tuple() for wv in sets}
    assert len(seen) == 19
    for wv, wv2 in zip(sets, again):
        assert wv.as_tuple() == wv2.as_tuple()
        assert float(np.sum(wv.w)) == pytest.approx(3.0, abs=1e-9)
        assert np.all(wv.w >= WEIGHT_FLOOR)


def test_log_uniform_ladder_for_two_tasks():
    sets = sample_weight_sets(5, 2, seed=0, scheme="log-uniform-grid")
    rows = np.stack([wv.w for wv in sets])
    # symmetric ladder around (1, 1): reversing the list swaps the columns
    assert np.max(np.abs(rows - rows[::-1, ::-1])) <= 1e-12
    assert rows[2] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert rows[0] == pytest.approx([2.0 / 11.0, 20.0 / 11.0], abs=1e-12)
    # single point degenerates to uniform
    only = sample_weight_sets(1, 2, seed=0, scheme="log-uniform-grid")
    assert only[0].as_tuple() == (1.0, 1.0)


def test_sampler_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        sample_weight_sets(5, 2, scheme="sobol")
    with pytest.raises(ValueError):
        sample_weight_sets(0, 2)


def test_random_loss_weighting_step_properties():
    a = random_loss_weighting_step(3, seed=11, iteration=7)
    b = random_loss_weighting_step(3, seed=11, iteration=7)
    c = random_loss_weighting_step(3, seed=11, iteration=8)
    assert a.as_tuple() == b.as_tuple()
    assert a.as_tuple() != c.as_tuple()
    assert float(np.sum(a.w)) == pytest.approx(3.0, abs=1e-9)


def test_random_loss_weighting_is_uniform_in_expectation():
    k = 3
    draws = np.stack([random_loss_weighting_step(k, seed=11, iteration=t).w
                      for t in range(2000)])
    assert np.max(np.abs(draws.mean(axis=0) - 1.0)) <= 0.03
