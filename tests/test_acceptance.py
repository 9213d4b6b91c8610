"""End-to-end acceptance checks, one per criterion.

Each test prints one ``acceptance NN: PASS/FAIL - detail`` line directly to
the real stdout (bypassing capture) so a teed ``pytest`` log always carries
the per-criterion verdicts, then asserts.

The heavyweight criteria (02, 07, 08) re-run full training or grid protocols
and together take a few minutes; everything else is fast.
"""
import math
import time

import numpy as np
import pytest

import autoscale as a
from autoscale.cli import RunConfig, execute_run

from helpers import (
    constant_window,
    grad_snap,
    loss_snap,
    random_trace_line,
    random_window,
    simplex_grid,
    trace_lines_identical,
)


@pytest.fixture
def report(capsys):
    """Print one ``acceptance NN: PASS/FAIL - detail`` line, then assert.

    ``capsys.disabled()`` suspends pytest's capture (including fd capture),
    so the verdict lines always reach the terminal / teed log.
    """
    def _report(num: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\nacceptance {num:02d}: {status} - {detail}", flush=True)
        assert ok, f"criterion {num:02d} failed: {detail}"
    return _report


def _close(got, want, tol) -> bool:
    return abs(got - want) <= tol


# ---------------------------------------------------------------------------
# 1. metric formula suite + condition-number oracle
# ---------------------------------------------------------------------------

def test_criterion_01_metric_formulas(report):
    t0 = time.perf_counter()
    checks = []

    # magnitude similarity
    eq = grad_snap([[3.0, 0.0], [0.0, 3.0]])
    checks.append(a.grad_magnitude_similarity(eq, 0, 1) == 1.0)
    s12 = grad_snap([[1.0, 0.0], [0.0, 2.0]])
    checks.append(_close(a.grad_magnitude_similarity(s12, 0, 1), 0.8, 1e-15))
    dom = grad_snap([[1.0, 0.0], [0.0, 0.0]])
    checks.append(a.grad_magnitude_similarity(dom, 0, 1) == 0.0)

    # cosine similarity
    checks.append(a.grad_cosine_similarity(
        grad_snap([[2.0, 0.0], [5.0, 0.0]]), 0, 1) == 1.0)
    checks.append(a.grad_cosine_similarity(
        grad_snap([[1.0, 0.0], [0.0, 3.0]]), 0, 1) == 0.0)
    checks.append(a.grad_cosine_similarity(
        grad_snap([[1.0, 0.0], [-3.0, 0.0]]), 0, 1) == -1.0)

    # condition number: identity, ratio, near-parallel witness
    checks.append(_close(a.condition_number(
        grad_snap([[1.0, 0.0], [0.0, 1.0]])), 1.0, 1e-12))
    checks.append(_close(a.condition_number(s12), 2.0, 1e-12))
    witness = a.condition_number(grad_snap([[1.0, 0.0], [1.0, 0.01]]))
    checks.append(abs(witness - 200.005000125) / 200.005000125 <= 1e-6)

    # loss-ratio metrics
    checks.append(a.inverse_learning_rate(
        loss_snap([1.0, 1.0], initial=[2.0, 4.0])).tolist() == [0.5, 0.25])
    checks.append(a.inverse_learning_rate(
        loss_snap([2.0, 0.5], initial=[1.0, 1.0])).tolist() == [2.0, 0.5])
    checks.append(a.loss_descending_rate(
        loss_snap([1.0, 3.0], prev=[2.0, 2.0], iteration=1)).tolist() == [0.5, 1.5])
    checks.append(a.loss_descending_rate(
        loss_snap([2.0, 2.0], prev=[4.0, 1.0], iteration=1)).tolist() == [0.5, 2.0])
    checks.append(a.relative_loss(
        loss_snap([1.0, 1.0, 2.0])).tolist() == [0.25, 0.25, 0.5])
    checks.append(a.relative_loss(
        loss_snap([0.0, 5.0], initial=[1.0, 5.0])).tolist() == [0.0, 1.0])

    # aggregation helpers
    checks.append(_close(a.pairwise_mean(
        a.grad_magnitude_similarity, grad_snap(np.diag([1.0, 2.0, 2.0]))),
        13.0 / 15.0, 1e-15))
    checks.append(_close(a.task_std([0.0, 2.0]), 1.0, 1e-15))
    checks.append(_close(a.task_std([1.0, 2.0, 3.0]), math.sqrt(2.0 / 3.0), 1e-15))

    examples_ok = all(checks)

    # Gram-path kappa vs dense SVD on 200 random stacks
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 5))          # K <= 4
        d = int(rng.integers(k, 51))         # D <= 50
        g = rng.standard_normal((k, d))
        got = a.condition_number(grad_snap(g))
        want = float(np.linalg.cond(g))
        worst_rel = max(worst_rel, abs(got - want) / want)
    elapsed = time.perf_counter() - t0

    ok = examples_ok and worst_rel <= 1e-8 and elapsed < 10.0
    report(1, ok,
            f"{sum(checks)}/{len(checks)} examples, kappa worst rel err "
            f"{worst_rel:.2e} over 200 stacks, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. solver vs dense-grid oracle, all cost kinds
# ---------------------------------------------------------------------------

def test_criterion_02_solver_oracle(report):
    t0 = time.perf_counter()
    grids = {2: simplex_grid(2, step=0.01), 3: simplex_grid(3, step=0.01)}
    worst = {}
    for kind in ("equal-grad-norm", "equal-loss", "low-cond"):
        rng = np.random.default_rng(202)
        worst_gap = -np.inf
        for i in range(100):
            k = 2 if i % 2 == 0 else 3
            win = random_window(rng, k=k, d=int(rng.integers(3, 9)),
                                n=int(rng.integers(2, 6)))
            grid_best = float(a.window_cost(kind, grids[k], win).min())

            fn = lambda wv: a.window_cost(kind, wv, win)
            solved = a.solve_general(fn, w_init=a.uniform_weights(k), seed=0)
            worst_gap = max(worst_gap, solved.cost_at_w_star - grid_best)
            if a.CostKind.parse(kind).is_quadratic:
                closed = a.solve_quadratic(a.quadratic_form(kind, win))
                worst_gap = max(worst_gap, closed.cost_at_w_star - grid_best)
            if worst_gap > 1e-3:
                break
        worst[kind] = worst_gap
    elapsed = time.perf_counter() - t0
    ok = all(g <= 1e-3 for g in worst.values()) and elapsed < 120.0
    gaps = ", ".join(f"{k} {v:+.1e}" for k, v in worst.items())
    report(2, ok, f"worst (solver - grid-best) gaps: {gaps}; "
                   f"100 windows/kind, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. closed-form balance of gradient norms
# ---------------------------------------------------------------------------

def test_criterion_03_closed_form_balance(report):
    win = constant_window(np.diag([2.0, 1.0]))
    solved = a.solve_quadratic(a.quadratic_form("equal-grad-norm", win))
    w_err = float(np.abs(solved.w_star.w - np.array([2.0 / 3.0, 4.0 / 3.0])).max())
    ok = w_err <= 1e-6 and abs(solved.cost_at_w_star) <= 1e-10
    report(3, ok, f"w* = {tuple(round(float(v), 8) for v in solved.w_star.w)}, "
                   f"|w - (2/3, 4/3)| = {w_err:.2e}, "
                   f"cost = {solved.cost_at_w_star:.2e}")


# ---------------------------------------------------------------------------
# 4. conditioning balance for orthogonal gradients
# ---------------------------------------------------------------------------

def test_criterion_04_low_cond_balance(report):
    win = constant_window(np.diag([1.0, 2.0]))
    solved = a.solve_general(lambda wv: a.window_cost("low-cond", wv, win),
                             w_init=a.uniform_weights(2), seed=0)
    want = np.array([4.0 / 3.0, 2.0 / 3.0])
    rel_err = float((np.abs(solved.w_star.w - want) / want).max())
    kappa = a.window_cost("low-cond", solved.w_star, win)
    ok = rel_err <= 0.02 and kappa <= 1.01
    report(4, ok, f"w* = {tuple(round(float(v), 6) for v in solved.w_star.w)}, "
                   f"rel err {rel_err:.2e} (<= 2%), kappa(w*) = {kappa:.6f}")


# ---------------------------------------------------------------------------
# 5. two-phase schedule structure at the default knobs
# ---------------------------------------------------------------------------

def test_criterion_05_schedule_structure(report):
    problem = a.imbalanced_reference_problem(seed=0)
    cfg = a.AutoScaleConfig(total_iters=25000, exploration_ratio=0.2,
                            window_size=50, aggregation_size=10,
                            cost_kind="equal-grad-norm", seed=0)
    run = a.run_autoscale(problem, cfg)
    windows = run.window_weights
    per_iter = run.weights

    n_windows = len(windows)
    constant_in_windows = True
    expected = np.ones(problem.num_tasks)
    for i in range(cfg.num_windows):
        span = per_iter[i * cfg.window_size:(i + 1) * cfg.window_size]
        if not np.all(span == expected):
            constant_in_windows = False
            break
        expected = windows[i].w
    final = run.final_weight
    phase2 = per_iter[cfg.exploration_iters:]
    constant_phase2 = bool(np.all(phase2 == final.w))

    mean_tail = np.mean([wv.w for wv in windows[-10:]], axis=0)
    agg_dev = float(np.abs(final.w - mean_tail).max())

    ok = (n_windows == 100 and constant_in_windows and constant_phase2
          and agg_dev <= 1e-12)
    report(5, ok, f"{n_windows} windows (need 100), "
                   f"window-constant={constant_in_windows}, "
                   f"phase2-constant={constant_phase2}, "
                   f"|w_hat - mean(last 10)| = {agg_dev:.1e}")


# ---------------------------------------------------------------------------
# 6. cosine similarity is invariant to positive task weightings
# ---------------------------------------------------------------------------

def test_criterion_06_gcs_weight_invariance(report):
    problem = a.make_quadratic_problem(k=3, d=5, scales=[1.0, 3.0, 0.5],
                                       conflict_angle=math.pi / 3.0, seed=1)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        theta = problem.initial_theta() + rng.standard_normal(problem.full_dim)
        grads = problem.task_gradients(theta)
        base_snap = grad_snap(grads)
        base = [a.grad_cosine_similarity(base_snap, i, j)
                for i in range(3) for j in range(i + 1, 3)]
        for _ in range(20):
            w = rng.uniform(0.05, 20.0, size=3)
            snap = grad_snap(grads * w[:, None])
            got = [a.grad_cosine_similarity(snap, i, j)
                   for i in range(3) for j in range(i + 1, 3)]
            worst = max(worst, float(np.abs(np.array(got) - np.array(base)).max()))
    ok = worst <= 1e-12
    report(6, ok, f"max |weighted GCS - unweighted GCS| = {worst:.2e} "
                   f"over 100 points x 20 weightings")


# ---------------------------------------------------------------------------
# 7. metric/performance correlation across fixed-weight runs
# ---------------------------------------------------------------------------

def _delta_m_vs_optima(run, problem) -> float:
    base = problem.reference_optima
    return a.delta_m([a.TaskScore(float(v), float(b))
                      for v, b in zip(run.final_losses, base)])


def test_criterion_07_metric_trend(report):
    t0 = time.perf_counter()
    problem = a.imbalanced_reference_problem(seed=0)
    samples = a.sample_weight_sets(19, problem.num_tasks, seed=0,
                                   scheme="dirichlet-uniform")
    dms, gms_means, cond_means = [], [], []
    for wv in samples:
        run = a.run_fixed_scalarization(problem, wv, 2500)
        dms.append(_delta_m_vs_optima(run, problem))
        gms_means.append(float(np.mean(run.metrics["gms_mean"])))
        cond_means.append(float(np.mean(run.metrics["cond_number"])))
    rho_gms = a.spearman_correlation(np.array(dms), np.array(gms_means))
    rho_cond = a.spearman_correlation(np.array(dms), np.array(cond_means))
    elapsed = time.perf_counter() - t0
    ok = rho_gms <= -0.5 and rho_cond >= 0.5 and elapsed < 300.0
    report(7, ok, f"rho(delta_m, mean GMS) = {rho_gms:+.4f} (need <= -0.5), "
                   f"rho(delta_m, mean kappa) = {rho_cond:+.4f} (need >= +0.5), "
                   f"N=19, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. adaptive runs beat unitary; low-cond is grid-competitive
# ---------------------------------------------------------------------------

def test_criterion_08_beats_unitary(report):
    t0 = time.perf_counter()
    total = 12500
    problem = a.imbalanced_reference_problem(seed=0)
    k = problem.num_tasks

    unitary = a.run_fixed_scalarization(problem, a.uniform_weights(k), total)
    dm_unitary = _delta_m_vs_optima(unitary, problem)

    dm_auto = {}
    for kind in ("equal-grad-norm", "equal-loss", "low-cond"):
        cfg = a.AutoScaleConfig(total_iters=total, exploration_ratio=0.2,
                                window_size=50, aggregation_size=10,
                                cost_kind=kind, seed=0)
        dm_auto[kind] = _delta_m_vs_optima(a.run_autoscale(problem, cfg), problem)

    grid = a.sample_weight_sets(20, k, seed=0, scheme="log-uniform-grid")
    dm_grid = min(_delta_m_vs_optima(
        a.run_fixed_scalarization(problem, wv, total), problem) for wv in grid)
    rel_gap = abs(dm_auto["low-cond"] - dm_grid) / abs(dm_grid)
    elapsed = time.perf_counter() - t0

    beats = {kind: dm < dm_unitary for kind, dm in dm_auto.items()}
    ok = all(beats.values()) and rel_gap <= 0.10
    dm_text = ", ".join(f"{kind} {dm:.3f}" for kind, dm in dm_auto.items())
    report(8, ok, f"delta_m: unitary {dm_unitary:.3f} vs {dm_text} "
                   f"(all lower: {all(beats.values())}); low-cond vs grid-20 "
                   f"best {dm_grid:.3f}, rel gap {rel_gap:.4f} (<= 0.10); "
                   f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. evaluation metrics and the delta identity
# ---------------------------------------------------------------------------

def test_criterion_09_evaluation_metrics(report):
    checks = []
    checks.append(a.delta_m([a.TaskScore(2.0, 2.0),
                             a.TaskScore(0.5, 0.5, higher_is_better=True)]) == 0.0)
    checks.append(_close(a.delta_m(
        [a.TaskScore(1.1, 1.0, higher_is_better=True)]), -10.0, 1e-12))
    checks.append(_close(a.delta_m(
        [a.TaskScore(1.1, 1.0), a.TaskScore(1.8, 2.0)]), 0.0, 1e-12))
    checks.append(a.delta_m_deg([a.TaskScore(0.9, 1.0)]) == 0.0)
    checks.append(_close(a.delta_m_deg(
        [a.TaskScore(1.05, 1.0), a.TaskScore(0.97, 1.0)]), 5.0, 1e-12))
    checks.append(_close(a.delta_m_deg(
        [a.TaskScore(1.02, 1.0), a.TaskScore(1.03, 1.0),
         a.TaskScore(0.90, 1.0)]), 5.0, 1e-12))
    mr = a.mean_rank([[1.0, 2.0], [2.0, 1.0]], [False, False])
    checks.append(np.array_equal(mr, [1.5, 1.5]))
    checks.append(a.mean_rank([[1.0], [1.0], [2.0]], [False]).tolist()
                  == [1.5, 1.5, 3.0])
    checks.append(_close(a.spearman_correlation(
        [1.0, 2.0, 3.0], [2.0, 1.0, 3.0]), 0.5, 1e-12))
    examples_ok = all(checks)

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 8))
        scores = [a.TaskScore(float(rng.uniform(0.1, 3.0)),
                              float(rng.uniform(0.1, 3.0)),
                              higher_is_better=bool(rng.integers(2)))
                  for _ in range(k)]
        deltas = np.array([s.oriented_delta_pct for s in scores])
        neg_sum = float(np.maximum(-deltas, 0.0).sum())
        gap = abs(k * a.delta_m(scores) - (a.delta_m_deg(scores) - neg_sum))
        worst = max(worst, gap)
    ok = examples_ok and worst <= 1e-10
    report(9, ok, f"{sum(checks)}/{len(checks)} examples incl. MR=1.5; "
                   f"identity worst gap {worst:.1e} over 10^4 score sets")


# ---------------------------------------------------------------------------
# 10. byte-identical traces and bitwise round trips
# ---------------------------------------------------------------------------

def test_criterion_10_reproducible_io(report, tmp_path):
    cfg = RunConfig(method="autoscale", problem="quadratic", k=2, dim=3,
                    scales=(1.0, 2.0), total_iters=500, window_size=50,
                    aggregation_size=2, cost_kind="low-cond", seed=0,
                    run_id="repro")
    paths = []
    for name in ("first.jsonl", "second.jsonl"):
        summary, run = execute_run(cfg)
        path = tmp_path / name
        a.write_trace(path, [summary[f] for f in a.TRACE_FIELDS[:5]], run.columns)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    rng = np.random.default_rng(10)
    round_trips_ok = True
    for _ in range(10_000):
        line = random_trace_line(rng, k=int(rng.integers(2, 5)))
        back = a.parse_trace_line(a.serialize_trace_line(line))
        if not trace_lines_identical(line, back):
            round_trips_ok = False
            break
    ok = identical and round_trips_ok
    report(10, ok, f"identical configs -> byte-identical traces "
                    f"({paths[0].stat().st_size} bytes x 2): {identical}; "
                    f"10^4 random records round-trip bitwise: {round_trips_ok}")
