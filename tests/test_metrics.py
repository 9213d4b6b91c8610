"""Per-iteration diagnostics: magnitude/cosine similarity, conditioning, loss ratios."""
import statistics

import numpy as np
import pytest

from autoscale import (
    DegenerateInputError,
    GradientSnapshot,
    LossSnapshot,
    condition_number,
    grad_cosine_similarity,
    grad_magnitude_similarity,
    inverse_learning_rate,
    kappa_from_grams,
    loss_descending_rate,
    make_weight_vector,
    metric_record,
    metric_records,
    pairwise_mean,
    relative_loss,
    snapshot_from_gradients,
    task_std,
)

from helpers import grad_snap, loss_snap, oracle_metric_record


# ---------------------------------------------------------------------------
# gradient magnitude similarity
# ---------------------------------------------------------------------------

def test_gms_equal_norms_is_one():
    for c in (0.1, 1.0, 37.5):
        s = grad_snap([[c, 0.0], [0.0, c]])
        assert grad_magnitude_similarity(s, 0, 1) == 1.0


def test_gms_value_example():
    s = grad_snap([[1.0, 0.0], [0.0, 2.0]])
    assert grad_magnitude_similarity(s, 0, 1) == pytest.approx(0.8, abs=1e-15)


def test_gms_zero_norm_is_full_dominance():
    s = grad_snap([[1.0, 0.0], [0.0, 0.0]])
    assert grad_magnitude_similarity(s, 0, 1) == 0.0


def test_gms_never_exceeds_one():
    # Nearly equal norms where the quotient rounds a half-ulp above 1.
    a = 0.43249719552409716
    b = np.nextafter(a, np.inf)
    assert 2.0 * a * b / (a * a + b * b) > 1.0  # the raw quotient overshoots
    s = GradientSnapshot(norms=np.array([a, b]),
                         gram=np.array([[a * a, a * b], [a * b, b * b]]))
    assert grad_magnitude_similarity(s, 0, 1) == 1.0


def test_gms_symmetric_and_validated():
    s = grad_snap([[1.0, 0.0], [0.5, 0.5]])
    assert grad_magnitude_similarity(s, 0, 1) == grad_magnitude_similarity(s, 1, 0)
    with pytest.raises(ValueError):
        grad_magnitude_similarity(s, 1, 1)
    with pytest.raises(IndexError):
        grad_magnitude_similarity(s, 0, 2)
    both_zero = grad_snap([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateInputError):
        grad_magnitude_similarity(both_zero, 0, 1)


# ---------------------------------------------------------------------------
# gradient cosine similarity
# ---------------------------------------------------------------------------

def test_gcs_canonical_angles():
    aligned = grad_snap([[2.0, 0.0], [5.0, 0.0]])
    orthogonal = grad_snap([[1.0, 0.0], [0.0, 3.0]])
    opposed = grad_snap([[1.0, 0.0], [-3.0, 0.0]])
    assert grad_cosine_similarity(aligned, 0, 1) == 1.0
    assert grad_cosine_similarity(orthogonal, 0, 1) == 0.0
    assert grad_cosine_similarity(opposed, 0, 1) == -1.0


def test_gcs_is_scale_invariant():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((3, 8))
    base = grad_snap(g)
    scaled = grad_snap(g * np.array([[3.0], [0.01], [250.0]]))
    for i in range(3):
        for j in range(i + 1, 3):
            assert grad_cosine_similarity(scaled, i, j) == pytest.approx(
                grad_cosine_similarity(base, i, j), abs=1e-12)


def test_gcs_zero_norm_is_degenerate():
    s = grad_snap([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateInputError):
        grad_cosine_similarity(s, 0, 1)


# ---------------------------------------------------------------------------
# condition number
# ---------------------------------------------------------------------------

def test_cond_orthonormal_is_one():
    s = grad_snap([[1.0, 0.0], [0.0, 1.0]])
    assert condition_number(s) == pytest.approx(1.0, abs=1e-12)


def test_cond_orthogonal_unequal_norms():
    s = grad_snap([[1.0, 0.0], [0.0, 2.0]])
    assert condition_number(s) == pytest.approx(2.0, abs=1e-12)


def test_cond_near_parallel_pair():
    # Nearly parallel rows: the exact value follows from the Gram eigenvalues,
    # cross-checked against the dense SVD-based condition number.
    g = np.array([[1.0, 0.0], [1.0, 0.01]])
    s = grad_snap(g)
    assert condition_number(s) == pytest.approx(200.005000125, rel=1e-6)
    assert condition_number(s) == pytest.approx(np.linalg.cond(g), rel=1e-10)


def test_cond_matches_svd_on_random_stacks():
    rng = np.random.default_rng(314)
    for _ in range(60):
        k = int(rng.integers(2, 5))
        d = int(rng.integers(k, 51))
        g = rng.standard_normal((k, d))
        s = grad_snap(g)
        assert condition_number(s) == pytest.approx(np.linalg.cond(g), rel=1e-8)


def test_cond_is_scale_invariant():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 6))
    base = condition_number(grad_snap(g))
    assert condition_number(grad_snap(17.0 * g)) == pytest.approx(base, rel=1e-10)


def test_cond_with_weights_scales_rows():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((3, 6))
    w = make_weight_vector([0.5, 1.0, 1.5])
    got = condition_number(grad_snap(g), w)
    want = np.linalg.cond(g * w.w[:, None])
    assert got == pytest.approx(want, rel=1e-8)
    with pytest.raises(ValueError):
        condition_number(grad_snap(g), [1.0, 2.0])   # wrong length


def test_cond_parallel_rows_hit_the_floor():
    s = grad_snap([[1.0, 0.0], [2.0, 0.0]])
    # rank-1 Gram: the small eigenvalue is floored at 1e-12 * lambda_max,
    # so kappa saturates at exactly 1e6.
    assert condition_number(s) == pytest.approx(1e6, rel=1e-9)


def test_kappa_from_grams_batch():
    rng = np.random.default_rng(20)
    stacks = [rng.standard_normal((3, 7)) for _ in range(5)]
    grams = np.stack([g @ g.T for g in stacks])
    kappa, floored = kappa_from_grams(grams)
    assert kappa.shape == (5,) and floored.shape == (5,)
    for i, g in enumerate(stacks):
        assert kappa[i] == pytest.approx(np.linalg.cond(g), rel=1e-8)
        assert not floored[i]
    zero_kappa, zero_floored = kappa_from_grams(np.zeros((2, 2)))
    assert np.isnan(zero_kappa) and not zero_floored
    all_zero = grad_snap([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateInputError):
        condition_number(all_zero)


# ---------------------------------------------------------------------------
# loss-ratio metrics
# ---------------------------------------------------------------------------

def test_inverse_learning_rate_examples():
    snap = loss_snap([1.0, 1.0], initial=[2.0, 4.0])
    assert inverse_learning_rate(snap).tolist() == [0.5, 0.25]
    snap = loss_snap([2.0, 0.5], initial=[1.0, 1.0])
    assert inverse_learning_rate(snap).tolist() == [2.0, 0.5]


def test_loss_descending_rate_examples():
    snap = loss_snap([1.0, 3.0], prev=[2.0, 2.0], iteration=1)
    assert loss_descending_rate(snap).tolist() == [0.5, 1.5]
    snap = loss_snap([2.0, 2.0], prev=[4.0, 1.0], iteration=1)
    assert loss_descending_rate(snap).tolist() == [0.5, 2.0]


def test_loss_descending_rate_start_convention():
    snap = loss_snap([3.0, 7.0], prev=[3.0, 7.0], iteration=0)
    assert loss_descending_rate(snap).tolist() == [1.0, 1.0]


def test_loss_descending_rate_rejects_zero_prev():
    snap = loss_snap([1.0, 1.0], prev=[0.0, 2.0], iteration=5)
    with pytest.raises(ValueError):
        loss_descending_rate(snap)


def test_relative_loss_examples():
    snap = loss_snap([1.0, 1.0, 2.0])
    assert relative_loss(snap).tolist() == [0.25, 0.25, 0.5]
    snap = loss_snap([0.0, 5.0], initial=[1.0, 5.0])
    assert relative_loss(snap).tolist() == [0.0, 1.0]


def test_relative_loss_all_zero_is_degenerate():
    snap = loss_snap([0.0, 0.0], initial=[1.0, 1.0])
    with pytest.raises(DegenerateInputError):
        relative_loss(snap)


# ---------------------------------------------------------------------------
# aggregation helpers
# ---------------------------------------------------------------------------

def test_pairwise_mean_example():
    # norms (1, 2, 2): pair values 0.8, 0.8, 1.0 -> mean 13/15.
    g = np.diag([1.0, 2.0, 2.0])
    value = pairwise_mean(grad_magnitude_similarity, grad_snap(g))
    assert value == pytest.approx(13.0 / 15.0, abs=1e-15)


def test_pairwise_mean_skip_degenerate():
    g = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    s = grad_snap(g)
    with pytest.raises(DegenerateInputError):
        pairwise_mean(grad_cosine_similarity, s)
    only_valid = grad_cosine_similarity(s, 1, 2)
    assert pairwise_mean(grad_cosine_similarity, s, skip_degenerate=True) == only_valid
    all_bad = grad_snap([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateInputError):
        pairwise_mean(grad_magnitude_similarity, all_bad, skip_degenerate=True)
    single = GradientSnapshot(norms=np.array([1.0]), gram=np.array([[1.0]]))
    with pytest.raises(ValueError):
        pairwise_mean(grad_magnitude_similarity, single)


def test_task_std_examples():
    assert task_std([0.0, 2.0]) == pytest.approx(1.0, abs=1e-15)
    assert task_std([1.0, 2.0, 3.0]) == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)
    with pytest.raises(ValueError):
        task_std([1.0])
    with pytest.raises(ValueError):
        task_std([1.0, np.inf])


# ---------------------------------------------------------------------------
# full per-iteration record
# ---------------------------------------------------------------------------

def test_metric_record_happy_path():
    g = grad_snap([[1.0, 0.0], [0.0, 2.0]], iteration=3)
    l = loss_snap([1.0, 3.0], initial=[2.0, 4.0], prev=[2.0, 2.0], iteration=3)
    r = metric_record(g, l, make_weight_vector([1.0, 1.0]))
    assert r.iteration == 3
    assert r.gms_mean == pytest.approx(0.8, abs=1e-15)
    assert r.gcs_mean == 0.0
    assert r.cond_number == pytest.approx(2.0, abs=1e-12)
    assert r.ilr == (0.5, 0.75)
    assert r.ldr == (0.5, 1.5)
    assert r.rl == (0.25, 0.75)
    assert r.ilr_std == pytest.approx(task_std([0.5, 0.75]), abs=0)
    assert r.rl_std == pytest.approx(0.25, abs=1e-15)
    assert r.weights == (1.0, 1.0)
    assert r.degenerate_flags == ()


def test_metric_record_rejects_mismatched_snapshots():
    g = grad_snap([[1.0, 0.0], [0.0, 1.0]], iteration=3)
    l = loss_snap([1.0, 1.0], iteration=4)
    with pytest.raises(ValueError):
        metric_record(g, l, make_weight_vector([1.0, 1.0]))
    l3 = loss_snap([1.0, 1.0, 1.0], iteration=3)
    with pytest.raises(ValueError):
        metric_record(g, l3, make_weight_vector([1.0, 1.0]))
    l2 = loss_snap([1.0, 1.0], iteration=3)
    with pytest.raises(ValueError):
        metric_record(g, l2, np.array([1.0, 1.0, 1.0]))


def test_metric_record_single_task():
    g = snapshot_from_gradients(np.array([[2.0, 0.0]]))
    l = LossSnapshot(losses=np.array([1.0]), initial_losses=np.array([2.0]),
                     prev_losses=np.array([1.0]))
    r = metric_record(g, l, np.array([1.0]))
    assert r.gms_mean is None and r.gcs_mean is None
    assert r.ilr_std == 0.0 and r.rl_std == 0.0
    assert r.rl == (1.0,)
    assert "pair metrics skipped: single task" in r.degenerate_flags


def test_metric_record_flags_floored_cond():
    g = grad_snap([[1.0, 0.0], [2.0, 0.0]], iteration=0)
    l = loss_snap([1.0, 1.0])
    r = metric_record(g, l, make_weight_vector([1.0, 1.0]))
    assert r.cond_number == pytest.approx(1e6, rel=1e-9)
    assert any("cond_number floored" in f for f in r.degenerate_flags)


def test_metric_record_flags_skipped_pairs_and_rl():
    g = grad_snap([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], iteration=2)
    l = loss_snap([0.0, 0.0, 0.0], initial=[1.0, 1.0, 1.0],
                  prev=[1.0, 1.0, 1.0], iteration=2)
    r = metric_record(g, l, make_weight_vector([1.0, 1.0, 1.0]))
    # pairs with the zero-norm task are skipped from the cosine mean
    assert any("gcs" in f and "skipped" in f for f in r.degenerate_flags)
    # all-zero losses: relative loss falls back to uniform and is flagged
    assert r.rl == (pytest.approx(1 / 3), pytest.approx(1 / 3), pytest.approx(1 / 3))
    assert any(f.startswith("rl degenerate") for f in r.degenerate_flags)


# ---------------------------------------------------------------------------
# stacked records against the per-pair oracle
# ---------------------------------------------------------------------------

def _degenerate_block(k, rng, d=9):
    """Snapshot pairs at iterations 0..n-1 with every degenerate row kind.

    Rows: random; one zero-norm gradient; two zero-norm gradients; an all-zero
    Gram; two parallel gradients (singular Gram, floored); all-zero losses
    (rl degenerate); a zero previous loss (ldr degenerate); random.
    """
    grads = [rng.standard_normal((k, d)) * np.exp(rng.uniform(-3, 3, (k, 1)))
             for _ in range(8)]
    grads[1][0] = 0.0
    grads[2][: min(2, k)] = 0.0
    grads[3][:] = 0.0
    if k >= 2:
        grads[4][1] = 3.0 * grads[4][0]
    losses = rng.uniform(0.1, 3.0, (8, k))
    losses[5] = 0.0
    losses[6, -1] = 0.0
    initial = losses[0]
    pairs = []
    for t, (g, l) in enumerate(zip(grads, losses)):
        prev = losses[t - 1] if t else l
        pairs.append((grad_snap(g, iteration=t),
                      loss_snap(l, initial=initial, prev=prev, iteration=t)))
    return pairs


def _stack(pairs, weights):
    return (np.array([g.norms for g, _ in pairs]), np.array([g.gram for g, _ in pairs]),
            np.array([l.losses for _, l in pairs]), pairs[0][1].initial_losses,
            np.array([l.prev_losses for _, l in pairs]),
            np.tile(weights, (len(pairs), 1)), [g.iteration for g, _ in pairs])


@pytest.mark.parametrize("k", [1, 2, 3, 6, 8])
def test_metric_records_equal_the_per_pair_oracle(k):
    rng = np.random.default_rng(100 + k)
    pairs = _degenerate_block(k, rng)
    weights = np.ones(k) if k == 1 else make_weight_vector(rng.uniform(0.2, 2.0, k)).w
    expected = [oracle_metric_record(g, l, weights) for g, l in pairs]
    assert metric_records(*_stack(pairs, weights)) == expected
    assert [metric_record(g, l, weights) for g, l in pairs] == expected
    flags = " ".join(f for r in expected for f in r.degenerate_flags)
    assert "cond_number degenerate" in flags and "rl degenerate" in flags
    if k >= 2:
        for kind in ("gms", "gcs", "cond_number floored", "ldr degenerate"):
            assert kind in flags


def test_metric_records_of_random_blocks_equal_the_oracle():
    rng = np.random.default_rng(7)
    for k in (2, 3, 5, 8, 11):
        pairs = []
        for t in range(40):
            g = rng.standard_normal((k, 4)) * np.exp(rng.uniform(-5, 5, (k, 1)))
            pairs.append((grad_snap(g, iteration=t + 1),
                          loss_snap(rng.uniform(0.01, 5.0, k), initial=np.ones(k),
                                    prev=rng.uniform(0.01, 5.0, k), iteration=t + 1)))
        weights = make_weight_vector(rng.uniform(0.2, 2.0, k)).w
        assert metric_records(*_stack(pairs, weights)) == [
            oracle_metric_record(g, l, weights) for g, l in pairs]


@pytest.mark.parametrize("bad_gram, bad_norms", [
    ([[1.0, np.nan], [np.nan, 1.0]], [1.0, 1.0]),      # non-finite entries
    ([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0]),            # Cauchy-Schwarz violated
])
def test_metric_records_reject_a_row_like_its_snapshot(bad_gram, bad_norms):
    with pytest.raises(ValueError) as snapshot_error:
        GradientSnapshot(norms=np.array(bad_norms), gram=np.array(bad_gram))
    rng = np.random.default_rng(3)
    pairs = _degenerate_block(2, rng)
    norms, grams, losses, initial, prev, weights, iters = _stack(pairs, np.ones(2))
    norms[4], grams[4] = bad_norms, bad_gram
    grams[6, 0, 0] = -1.0              # a later row failing another check
    with pytest.raises(ValueError) as block_error:
        metric_records(norms, grams, losses, initial, prev, weights, iters)
    assert str(block_error.value) == str(snapshot_error.value)


def test_spreads_past_the_square_overflow_stay_finite():
    """Finite losses past ~1e154 overflow the squares inside np.std."""
    values = [1.0, 1e160, 2e160]
    assert task_std(values) == pytest.approx(statistics.pstdev(values), rel=1e-15)
    rng = np.random.default_rng(5)
    pairs = _degenerate_block(3, rng)
    norms, grams, _, _, _, weights, iters = _stack(pairs, np.ones(3))
    losses = np.ones((len(iters), 3))
    losses[5] = values
    records = metric_records(norms, grams, losses, np.ones(3), losses, weights, iters)
    assert records[5].ilr_std == task_std(values)
    assert [r.ilr_std for r in records[:5]] == [0.0] * 5
