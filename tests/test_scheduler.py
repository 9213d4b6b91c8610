"""Two-phase schedule: windowed exploration, aggregation, fixed-weight phase."""
import math

import numpy as np
import pytest

from autoscale import (
    AutoScaleConfig,
    DivergenceError,
    GradientSnapshot,
    LossSnapshot,
    QuadraticFamily,
    SolverMethod,
    WindowBuffer,
    aggregate_final_weight,
    make_quadratic_problem,
    make_weight_vector,
    random_loss_weighting_step,
    run_autoscale,
    run_fixed_scalarization,
    run_weight_schedule,
    snapshot_from_gradients,
    uniform_weights,
    window_cost,
)
from autoscale import scheduler


def _small_problem(k=2):
    scales = [1.0, 2.0, 3.0][:k]
    return make_quadratic_problem(k=k, d=3, scales=scales,
                                  conflict_angle=math.pi / 2.0, seed=0)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_derived_quantities():
    cfg = AutoScaleConfig(total_iters=1000, exploration_ratio=0.2,
                          window_size=50, aggregation_size=4)
    assert cfg.exploration_iters == 200
    assert cfg.num_windows == 4
    assert cfg.total_iters - cfg.exploration_iters == 800


def test_config_rejects_fractional_exploration():
    with pytest.raises(ValueError, match="must be integral"):
        AutoScaleConfig(total_iters=1000, exploration_ratio=1.0 / 3.0)


def test_config_rejects_short_exploration():
    with pytest.raises(ValueError, match="shorter than one window"):
        AutoScaleConfig(total_iters=100, exploration_ratio=0.2, window_size=50)


def test_config_rejects_nondividing_window():
    with pytest.raises(ValueError, match="must divide the exploration budget"):
        AutoScaleConfig(total_iters=1000, exploration_ratio=0.2, window_size=60)


def test_config_rejects_oversized_aggregation():
    with pytest.raises(ValueError, match="exceeds the 4 exploration windows"):
        AutoScaleConfig(total_iters=1000, exploration_ratio=0.2,
                        window_size=50, aggregation_size=10)


def test_config_rejects_bad_scalars():
    with pytest.raises(ValueError):
        AutoScaleConfig(total_iters=0)
    with pytest.raises(ValueError):
        AutoScaleConfig(total_iters=100, exploration_ratio=1.5)
    with pytest.raises(ValueError):
        AutoScaleConfig(total_iters=1000, exploration_ratio=0.2,
                        window_size=50, aggregation_size=0)
    with pytest.raises(ValueError, match="snapshot_stride"):
        AutoScaleConfig(total_iters=1000, exploration_ratio=0.2,
                        window_size=50, aggregation_size=4, snapshot_stride=51)
    with pytest.raises(ValueError, match="unknown cost kind"):
        AutoScaleConfig(total_iters=1000, exploration_ratio=0.2,
                        window_size=50, aggregation_size=4, cost_kind="bogus")


# ---------------------------------------------------------------------------
# final-weight aggregation
# ---------------------------------------------------------------------------

def test_aggregate_examples():
    pair = [make_weight_vector([1.0, 1.0]), make_weight_vector([0.8, 1.2])]
    assert aggregate_final_weight(pair, 2).w == pytest.approx([0.9, 1.1], abs=1e-15)
    triple = [make_weight_vector([1.2, 0.8]),
              make_weight_vector([1.0, 1.0]),
              make_weight_vector([0.7, 1.3])]
    got = aggregate_final_weight(triple, 3)
    assert got.w == pytest.approx([29.0 / 30.0, 31.0 / 30.0], abs=1e-12)


def test_aggregate_tail_only():
    ws = [make_weight_vector([0.5, 1.5]), make_weight_vector([1.0, 1.0])]
    assert aggregate_final_weight(ws, 1).w == pytest.approx([1.0, 1.0], abs=0)


def test_aggregate_validation():
    ws = [make_weight_vector([1.0, 1.0])]
    with pytest.raises(ValueError):
        aggregate_final_weight(ws, 0)
    with pytest.raises(ValueError):
        aggregate_final_weight(ws, 2)


# ---------------------------------------------------------------------------
# two-phase structure
# ---------------------------------------------------------------------------

def _phase_config(**overrides):
    base = dict(total_iters=300, exploration_ratio=0.2, window_size=20,
                aggregation_size=3, cost_kind="equal-grad-norm", seed=0)
    base.update(overrides)
    return AutoScaleConfig(**base)


def test_run_shapes_and_counts():
    problem = _small_problem()
    cfg = _phase_config()
    run = run_autoscale(problem, cfg)
    assert len(run.records) == cfg.total_iters
    assert [r.iteration for r in run.records] == list(range(cfg.total_iters))
    assert run.losses.shape == (300, 2)
    assert run.grad_norms.shape == (300, 2)
    assert run.gram_upper.shape == (300, 3)
    assert len(run.weight_history.window_weights) == cfg.num_windows
    assert len(run.weight_history.per_iteration_weights) == cfg.total_iters
    assert len(run.solver_reports) == cfg.num_windows
    assert all(r.method is SolverMethod.CLOSED_FORM_QP for r in run.solver_reports)


def test_weights_constant_within_each_window_and_phase2():
    problem = _small_problem()
    cfg = _phase_config()
    run = run_autoscale(problem, cfg)
    tau = cfg.window_size
    per_iter = run.weight_history.per_iteration_weights
    window_weights = run.weight_history.window_weights

    # window 0 trains at uniform; window i >= 1 at the weight solved from
    # window i-1; every iteration inside a window sees the identical tuple
    expected = (1.0, 1.0)
    for i in range(cfg.num_windows):
        span = per_iter[i * tau:(i + 1) * tau]
        assert all(w == expected for w in span)
        expected = window_weights[i].as_tuple()

    # phase 2 is constant at the aggregated weight
    final = run.weight_history.final_weight.as_tuple()
    assert all(w == final for w in per_iter[cfg.exploration_iters:])


def test_final_weight_is_mean_of_last_windows():
    problem = _small_problem()
    cfg = _phase_config()
    run = run_autoscale(problem, cfg)
    tail = run.weight_history.window_weights[-cfg.aggregation_size:]
    mean = np.mean([wv.w for wv in tail], axis=0)
    assert np.max(np.abs(run.weight_history.final_weight.w - mean)) <= 1e-12


def _rebuild_window(run, start, stop):
    """Reconstruct a WindowBuffer from a run's recorded per-iteration arrays."""
    k = run.losses.shape[1]
    iu = np.triu_indices(k)
    pairs = []
    for t in range(start, stop):
        gram = np.zeros((k, k))
        gram[iu] = run.gram_upper[t]
        gram = gram + np.triu(gram, 1).T
        g = GradientSnapshot(norms=run.grad_norms[t], gram=gram, iteration=t)
        prev = run.losses[t - 1] if t > 0 else run.losses[0]
        l = LossSnapshot(losses=run.losses[t], initial_losses=run.losses[0],
                         prev_losses=prev, iteration=t)
        pairs.append((g, l))
    return WindowBuffer(pairs=tuple(pairs), capacity=len(pairs))


@pytest.mark.parametrize("kind", ["equal-grad-norm", "equal-loss", "low-cond"])
def test_each_window_solve_never_regresses(kind):
    problem = _small_problem()
    cfg = _phase_config(cost_kind=kind, solver_budget=600)
    run = run_autoscale(problem, cfg)
    tau = cfg.window_size
    incumbent = uniform_weights(2)
    for i, solved in enumerate(run.weight_history.window_weights):
        win = _rebuild_window(run, i * tau, (i + 1) * tau)
        c_new = window_cost(kind, solved, win)
        c_old = window_cost(kind, incumbent, win)
        assert c_new <= c_old * (1.0 + 1e-12) + 1e-15
        incumbent = solved


def test_low_cond_uses_simplex_search():
    problem = _small_problem()
    cfg = _phase_config(cost_kind="low-cond", solver_budget=600)
    run = run_autoscale(problem, cfg)
    assert all(r.method is SolverMethod.SIMPLEX_SEARCH for r in run.solver_reports)


def test_snapshot_stride_thins_the_buffer():
    problem = _small_problem()
    cfg = _phase_config(snapshot_stride=5)
    run = run_autoscale(problem, cfg)
    # the run completes and still solves one weight per window
    assert len(run.weight_history.window_weights) == cfg.num_windows


def test_zero_exploration_equals_unitary_run():
    problem = _small_problem()
    cfg = AutoScaleConfig(total_iters=200, exploration_ratio=0.0, seed=0)
    auto = run_autoscale(problem, cfg)
    fixed = run_fixed_scalarization(problem, uniform_weights(2), 200)
    assert np.array_equal(auto.theta_final, fixed.theta_final)
    assert auto.final_losses == fixed.final_losses
    assert auto.weight_history.window_weights == ()
    assert all(w == (1.0, 1.0) for w in auto.weight_history.per_iteration_weights)


def test_runs_are_deterministic():
    problem = _small_problem()
    cfg = _phase_config(cost_kind="low-cond", solver_budget=400)
    a = run_autoscale(problem, cfg)
    b = run_autoscale(problem, cfg)
    assert np.array_equal(a.theta_final, b.theta_final)
    assert a.final_losses == b.final_losses
    assert a.weight_history.per_iteration_weights == b.weight_history.per_iteration_weights


@pytest.mark.parametrize("block", [1, 7])
def test_recording_block_size_leaves_runs_unchanged(monkeypatch, block):
    # 20-iteration windows at stride 3: blocks of 7 split each window in three
    problem = _small_problem(3)
    cfg = _phase_config(cost_kind="low-cond", snapshot_stride=3, solver_budget=300)
    want = run_autoscale(problem, cfg)
    monkeypatch.setattr(scheduler, "_RECORD_BLOCK", block)
    got = run_autoscale(problem, cfg)
    assert got.records == want.records
    assert np.array_equal(got.theta_final, want.theta_final)
    assert got.weight_history.per_iteration_weights == want.weight_history.per_iteration_weights
    for name in ("losses", "grad_norms", "gram_upper"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_divergence_names_the_first_non_finite_iteration():
    problem = make_quadratic_problem(k=3, d=4, scales=[1.0, 2.0, 3.0],
                                     conflict_angle=math.pi / 2.0, step_size=5.0)
    w = np.array([0.5, 1.0, 1.5])
    theta, losses = problem.initial_theta(), []
    with np.errstate(all="ignore"):
        while True:            # step alone until a snapshot cannot be taken
            losses.append(problem.task_losses(theta))
            grads = problem.task_gradients(theta)
            try:
                assert np.all(np.isfinite(losses[-1]))
                snapshot_from_gradients(grads)
            except (AssertionError, ValueError):
                break
            theta = theta - problem.step_size * (w @ grads)
    t = len(losses) - 1
    with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError) as exc:
        run_fixed_scalarization(problem, make_weight_vector(w), 1000)
    assert str(exc.value) == (
        f"training diverged at iteration {t}: non-finite task losses or gradients; "
        f"last finite losses {losses[t - 1].tolist()} at iteration {t - 1}; "
        f"weights {[0.5, 1.0, 1.5]}")


# ---------------------------------------------------------------------------
# other training drivers
# ---------------------------------------------------------------------------

def test_fixed_scalarization_descends_all_tasks():
    problem = _small_problem()
    run = run_fixed_scalarization(problem, uniform_weights(2), 200)
    start = problem.task_losses(problem.initial_theta())
    assert all(f < s for f, s in zip(run.final_losses, start))
    assert run.weight_history.final_weight.as_tuple() == (1.0, 1.0)
    with pytest.raises(ValueError):
        run_fixed_scalarization(problem, uniform_weights(2), 0)
    with pytest.raises(ValueError):
        run_fixed_scalarization(problem, uniform_weights(3), 10)


def test_weight_schedule_repeatable_and_recorded():
    problem = _small_problem()
    schedule = lambda t: random_loss_weighting_step(2, seed=9, iteration=t)
    a = run_weight_schedule(problem, schedule, 50)
    b = run_weight_schedule(problem, schedule, 50)
    assert np.array_equal(a.theta_final, b.theta_final)
    assert a.weight_history.per_iteration_weights == b.weight_history.per_iteration_weights
    # the schedule actually varies between iterations
    assert len(set(a.weight_history.per_iteration_weights)) > 1


def test_single_task_training_matches_contraction():
    # one task, identity curvature: gradient descent contracts the distance
    # to the center by (1 - h*s) per step, so the final loss is exact
    s, h, r, offset, T = 2.0, 0.1, 1.5, 0.25, 40
    problem = QuadraticFamily(
        curvatures=np.eye(2)[None, :, :],
        centers=np.array([[r, 0.0]]),
        scales=np.array([s]),
        offsets=np.array([offset]),
        step_size=h,
        theta0=np.zeros(2),
    )
    run = run_fixed_scalarization(problem, np.array([1.0]), T)
    want = 0.5 * s * (r * (1 - h * s) ** T) ** 2 + offset
    assert run.final_losses[0] == pytest.approx(want, rel=1e-10)
    assert run.weight_history.final_weight is None
    assert run.records[0].gms_mean is None
