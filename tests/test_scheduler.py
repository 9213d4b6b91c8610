"""Two-phase schedule: windowed exploration, aggregation, fixed-weight phase."""
import logging
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
    aggregate_final_weight,
    make_quadratic_problem,
    make_weight_vector,
    metric_record,
    random_loss_weighting_step,
    run_autoscale,
    run_fixed_scalarization,
    run_weight_schedule,
    sample_weight_sets,
    snapshot_from_gradients,
    uniform_weights,
    window_cost,
)
from autoscale import scheduler
from autoscale.metrics import record_at

from helpers import loss_snap, metric_columns_identical, metric_columns_match, window


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
    assert len(run.metrics["degenerate_flags"]) == cfg.total_iters
    assert all(len(column) == cfg.total_iters for column in run.metrics.values())
    assert run.columns["iter"].tolist() == list(range(cfg.total_iters))
    assert run.losses.shape == (300, 2)
    assert run.grad_norms.shape == (300, 2)
    assert run.gram_upper.shape == (300, 3)
    assert len(run.window_weights) == cfg.num_windows
    assert run.weights.shape == (300, 2)
    assert len(run.solver_reports) == cfg.num_windows
    assert all(r.method is SolverMethod.CLOSED_FORM_QP for r in run.solver_reports)


def test_weights_constant_within_each_window_and_phase2():
    problem = _small_problem()
    cfg = _phase_config()
    run = run_autoscale(problem, cfg)
    tau = cfg.window_size
    per_iter = run.weights

    # window 0 trains at uniform; window i >= 1 at the weight solved from
    # window i-1; every iteration inside a window sees the identical weights
    expected = np.ones(2)
    for i in range(cfg.num_windows):
        assert np.all(per_iter[i * tau:(i + 1) * tau] == expected)
        expected = run.window_weights[i].w

    # phase 2 is constant at the aggregated weight
    assert np.all(per_iter[cfg.exploration_iters:] == run.final_weight.w)


def test_final_weight_is_mean_of_last_windows():
    problem = _small_problem()
    cfg = _phase_config()
    run = run_autoscale(problem, cfg)
    tail = run.window_weights[-cfg.aggregation_size:]
    mean = np.mean([wv.w for wv in tail], axis=0)
    assert np.max(np.abs(run.final_weight.w - mean)) <= 1e-12


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
    return window(pairs)


@pytest.mark.parametrize("stride", [1, 3])
def test_descent_window_equals_the_snapshot_pair_window(stride):
    """The columnar window of a descent equals the window of the snapshot
    pairs that stepping alone produces, at every ``stride``-th iteration."""
    problem, w = _small_problem(3), np.array([0.5, 1.0, 1.5])
    descent = scheduler._Descent(problem, 40)
    descent.run(lambda t: w, 10)
    descent.run(lambda t: w, 40)
    theta, losses, pairs = problem.initial_theta(), [], []
    for t in range(40):
        losses.append(problem.task_losses(theta))
        grads = problem.task_gradients(theta)
        if t >= 10 and (t - 10) % stride == 0:
            pairs.append((snapshot_from_gradients(grads[:, problem.shared_slice], t),
                          loss_snap(losses[t], losses[0], losses[max(t - 1, 0)], t)))
        theta = theta - problem.step_size * (w @ grads)
    got, want = descent.window(10, stride), window(pairs)
    assert len(got) == len(range(10, 40, stride))
    for name in ("norms", "grams", "losses"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("kind", ["equal-grad-norm", "equal-loss", "low-cond"])
def test_each_window_solve_never_regresses(kind):
    problem = _small_problem()
    cfg = _phase_config(cost_kind=kind)
    run = run_autoscale(problem, cfg)
    tau = cfg.window_size
    incumbent = uniform_weights(2)
    for i, solved in enumerate(run.window_weights):
        win = _rebuild_window(run, i * tau, (i + 1) * tau)
        c_new = window_cost(kind, solved, win)
        c_old = window_cost(kind, incumbent, win)
        assert c_new <= c_old * (1.0 + 1e-12) + 1e-15
        incumbent = solved


def test_low_cond_uses_simplex_search():
    problem = _small_problem()
    cfg = _phase_config(cost_kind="low-cond")
    run = run_autoscale(problem, cfg)
    assert all(r.method is SolverMethod.SIMPLEX_SEARCH for r in run.solver_reports)


def test_snapshot_stride_thins_the_buffer():
    problem = _small_problem()
    cfg = _phase_config(snapshot_stride=5)
    run = run_autoscale(problem, cfg)
    # the run completes and still solves one weight per window
    assert len(run.window_weights) == cfg.num_windows


def test_zero_exploration_equals_unitary_run():
    problem = _small_problem()
    cfg = AutoScaleConfig(total_iters=200, exploration_ratio=0.0, seed=0)
    auto = run_autoscale(problem, cfg)
    fixed = run_fixed_scalarization(problem, uniform_weights(2), 200)
    assert np.array_equal(auto.theta_final, fixed.theta_final)
    assert auto.final_losses == fixed.final_losses
    assert auto.window_weights == ()
    assert np.all(auto.weights == 1.0)


def test_runs_are_deterministic():
    problem = _small_problem()
    cfg = _phase_config(cost_kind="low-cond")
    a = run_autoscale(problem, cfg)
    b = run_autoscale(problem, cfg)
    assert np.array_equal(a.theta_final, b.theta_final)
    assert a.final_losses == b.final_losses
    assert np.array_equal(a.weights, b.weights)
    assert metric_columns_identical(a.metrics, b.metrics)


def test_block_rows_record_as_they_do_alone(caplog):
    problem = _small_problem(3)
    cfg = _phase_config(cost_kind="low-cond", snapshot_stride=3)
    with caplog.at_level(logging.WARNING, logger="autoscale.scheduler"):
        run = run_autoscale(problem, cfg)
    assert not caplog.records          # the per-window re-check agreed
    i, j = np.triu_indices(3)
    for t in (0, 1, 19, 63, 64, 65, 299):
        gram = np.empty((3, 3))
        gram[i, j] = gram[j, i] = run.gram_upper[t]
        grad = GradientSnapshot(norms=run.grad_norms[t], gram=gram, iteration=t)
        loss = LossSnapshot(losses=run.losses[t], initial_losses=run.losses[0],
                            prev_losses=run.losses[max(t - 1, 0)], iteration=t)
        alone = metric_record(grad, loss, run.weights[t])
        assert alone == record_at(run.metrics, t, t, run.weights[t])
        assert metric_columns_match({n: c[t:t + 1] for n, c in run.metrics.items()}, [alone])


@pytest.mark.parametrize("block", [1, 7])
def test_recording_block_size_leaves_runs_unchanged(monkeypatch, block):
    # 20-iteration windows at stride 3: blocks of 7 split each window in three
    problem = _small_problem(3)
    cfg = _phase_config(cost_kind="low-cond", snapshot_stride=3)
    want = run_autoscale(problem, cfg)
    monkeypatch.setattr(scheduler, "_RECORD_BLOCK", block)
    got = run_autoscale(problem, cfg)
    assert metric_columns_identical(got.metrics, want.metrics)
    assert np.array_equal(got.theta_final, want.theta_final)
    for name in ("weights", "losses", "grad_norms", "gram_upper"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def _diverging_run():
    """A problem whose fixed-weight run diverges, its weights, and the task
    losses of each iteration up to the first non-finite one."""
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
    return problem, w, losses


def test_divergence_names_the_first_non_finite_iteration():
    problem, w, losses = _diverging_run()
    t = len(losses) - 1
    with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError) as exc:
        run_fixed_scalarization(problem, make_weight_vector(w), 1000)
    assert str(exc.value) == (
        f"training diverged at iteration {t}: non-finite task losses or gradients; "
        f"last finite losses {losses[t - 1].tolist()} at iteration {t - 1}; "
        f"weights {[0.5, 1.0, 1.5]}")


def test_divergence_stops_stepping_at_the_diverging_iteration(monkeypatch):
    problem, w, losses = _diverging_run()
    t = len(losses) - 1
    assert t % scheduler._RECORD_BLOCK != scheduler._RECORD_BLOCK - 1
    calls = []
    gradients = type(problem).task_gradients

    def counted(self, theta):
        calls.append(theta)
        return gradients(self, theta)

    monkeypatch.setattr(type(problem), "task_gradients", counted)
    with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError):
        run_fixed_scalarization(problem, make_weight_vector(w), 1000)
    assert len(calls) == t + 1


def test_a_non_finite_low_cond_incumbent_is_divergence(monkeypatch):
    """Rows can stay finite while the window objective overflows; for
    low-cond the incumbent cost is the objective checked."""
    problem = _small_problem(3)
    losses = run_fixed_scalarization(problem, uniform_weights(3), 20).losses
    monkeypatch.setattr(scheduler, "window_cost", lambda kind, w, window: math.inf)
    with pytest.raises(DivergenceError) as exc:
        run_autoscale(problem, _phase_config(cost_kind="low-cond"))
    assert str(exc.value) == (
        "training diverged in window 0 (iterations 0 to 19): non-finite window "
        f"objective; largest task loss {float(losses.max())!r}")


# ---------------------------------------------------------------------------
# fixed-weight members in lockstep
# ---------------------------------------------------------------------------

def _lockstep_case():
    """A problem and 19 weights of which members 1 and 6 diverge: the weighted
    Hessian is (w . scales) I, and w . scales exceeds 2 / step_size = 5."""
    problem = make_quadratic_problem(k=3, d=4, scales=[1.0, 2.0, 3.0],
                                     conflict_angle=math.pi / 2.0, step_size=0.4)
    return problem, sample_weight_sets(19, 3, seed=1), 600


def _single(problem, wv, total):
    try:
        return run_fixed_scalarization(problem, wv, total)
    except ValueError as exc:
        return exc


def _assert_same_member(got, want):
    if isinstance(want, ValueError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert metric_columns_identical(got.metrics, want.metrics)
    assert got.theta_final.tobytes() == want.theta_final.tobytes()
    assert got.final_losses == want.final_losses
    assert got.final_weight.as_tuple() == want.final_weight.as_tuple()
    for name in ("weights", "losses", "grad_norms", "gram_upper"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("members", [[1], [0, 1], list(range(19))])
def test_each_batch_member_equals_its_single_run(members):
    problem, weights, total = _lockstep_case()
    batch = run_fixed_scalarization(problem, [weights[r] for r in members], total)
    singles = [_single(problem, weights[r], total) for r in members]
    assert len(batch) == len(members)
    assert [isinstance(run, DivergenceError) for run in singles] == [r in (1, 6) for r in members]
    for got, want in zip(batch, singles):
        _assert_same_member(got, want)


def test_a_member_failing_a_record_check_leaves_with_its_own_error(monkeypatch):
    """A check other than finiteness fails for one member's rows alone: the
    stacked pass is redone member by member, so the others still finish."""
    problem, weights, total = _lockstep_case()
    weights = [w for r, w in enumerate(weights) if r not in (1, 6)][:5]
    marked = weights[2].as_tuple()
    records = scheduler.metric_records

    def failing(norms, grams, losses, initial, prev, w, iterations):
        rows = [i for i, row in enumerate(w) if tuple(row) == marked and iterations[i] >= 70]
        if rows:
            raise ValueError(f"check failed at iteration {iterations[rows[0]]}")
        return records(norms, grams, losses, initial, prev, w, iterations)

    monkeypatch.setattr(scheduler, "metric_records", failing)
    batch = run_fixed_scalarization(problem, weights, total)
    singles = [_single(problem, wv, total) for wv in weights]
    assert str(singles[2]) == "check failed at iteration 70"
    for got, want in zip(batch, singles):
        _assert_same_member(got, want)


def test_a_batch_checks_every_weight_and_keeps_single_runs_single():
    problem = _small_problem()
    with pytest.raises(ValueError, match="weights must have length 2"):
        run_fixed_scalarization(problem, [uniform_weights(2), uniform_weights(3)], 10)
    single = run_fixed_scalarization(problem, uniform_weights(2), 10)
    batch = run_fixed_scalarization(problem, [uniform_weights(2)], 10)
    assert isinstance(batch, list) and len(batch) == 1
    _assert_same_member(batch[0], single)
    pair = run_fixed_scalarization(problem, (uniform_weights(2), uniform_weights(2)), 10)
    assert isinstance(pair, list) and len(pair) == 2
    _assert_same_member(pair[1], single)
    # A plain list of numbers is one weight, not a batch.
    _assert_same_member(run_fixed_scalarization(problem, [1.0, 1.0], 10), single)


# ---------------------------------------------------------------------------
# other training drivers
# ---------------------------------------------------------------------------

def test_fixed_scalarization_descends_all_tasks():
    problem = _small_problem()
    run = run_fixed_scalarization(problem, uniform_weights(2), 200)
    start = problem.task_losses(problem.initial_theta())
    assert all(f < s for f, s in zip(run.final_losses, start))
    assert run.final_weight.as_tuple() == (1.0, 1.0)
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
    assert np.array_equal(a.weights, b.weights)
    # the schedule actually varies between iterations
    assert len(np.unique(a.weights, axis=0)) > 1


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
    assert run.final_weight is None
    assert np.isnan(run.metrics["gms_mean"]).all() and np.isnan(run.metrics["gcs_mean"]).all()
    assert run.metrics["degenerate_flags"] == (("pair metrics skipped: single task",),) * T
