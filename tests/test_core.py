"""Domain types: feasibility projection, snapshots, windows, seeding."""
import numpy as np
import pytest

from autoscale import (
    DEFAULT_WEIGHT_FLOOR,
    GradientSnapshot,
    LossSnapshot,
    MetricRecord,
    WeightVector,
    WindowBuffer,
    make_weight_vector,
    snapshot_from_gradients,
    spawn_rng,
    uniform_weights,
)

from helpers import grad_snap, loss_snap

FLOOR = DEFAULT_WEIGHT_FLOOR


# ---------------------------------------------------------------------------
# make_weight_vector / WeightVector
# ---------------------------------------------------------------------------

def test_make_weight_vector_already_feasible():
    wv = make_weight_vector([1.0, 1.0])
    assert wv.as_tuple() == (1.0, 1.0)
    assert wv.k == 2


def test_make_weight_vector_rescales():
    wv = make_weight_vector([2.0, 6.0])
    assert wv.as_tuple() == pytest.approx((0.5, 1.5), abs=1e-15)


def test_make_weight_vector_floor_fixed_point():
    # [0, 1]: the zero coordinate pins at the floor and the free coordinate
    # absorbs the remaining budget K - floor.
    wv = make_weight_vector([0.0, 1.0])
    assert wv.w[0] == FLOOR
    assert wv.w[1] == pytest.approx(2.0 - FLOOR, abs=1e-15)
    assert float(wv.w.sum()) == pytest.approx(2.0, abs=1e-12)


def test_make_weight_vector_idempotent():
    rng = np.random.default_rng(42)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        raw = rng.uniform(-0.5, 3.0, size=k)
        if not np.any(np.maximum(raw, 0) > 0):
            continue
        once = make_weight_vector(raw)
        twice = make_weight_vector(once.w)
        assert np.max(np.abs(once.w - twice.w)) <= 1e-12


def test_make_weight_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        make_weight_vector([1.0])                    # K < 2
    with pytest.raises(ValueError):
        make_weight_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        make_weight_vector([1.0, np.inf])
    with pytest.raises(ValueError):
        make_weight_vector([0.0, 0.0])               # no positive mass
    with pytest.raises(ValueError):
        make_weight_vector(np.ones((2, 2)))          # not 1-d


def test_weight_vector_validates_directly():
    WeightVector(np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        WeightVector(np.array([0.0, 2.0]))           # below floor
    with pytest.raises(ValueError):
        WeightVector(np.array([1.0, 1.1]))           # sum != K
    with pytest.raises(ValueError):
        WeightVector(np.array([1.0, 1.0]), floor=1.5)
    with pytest.raises(ValueError):
        WeightVector(np.array([2.0]))                # K < 2


def test_weight_vector_is_immutable():
    wv = make_weight_vector([1.0, 1.0])
    with pytest.raises(ValueError):
        wv.w[0] = 5.0


def test_uniform_weights():
    wv = uniform_weights(4)
    assert wv.as_tuple() == (1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_orthonormal_gradients():
    s = grad_snap([[1.0, 0.0], [0.0, 1.0]])
    assert s.norms.tolist() == [1.0, 1.0]
    assert s.gram.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_snapshot_identical_gradients():
    s = grad_snap([[3.0, 4.0], [3.0, 4.0]])
    assert s.norms.tolist() == [5.0, 5.0]
    assert s.gram.tolist() == [[25.0, 25.0], [25.0, 25.0]]


def test_snapshot_plain_inner_products():
    s = grad_snap([[1.0, 0.0], [1.0, 1.0]])
    assert s.norms[0] == 1.0
    assert s.norms[1] == pytest.approx(np.sqrt(2.0), abs=0)
    # the diagonal is rewritten as norms^2, so it can differ by an ulp
    assert s.gram == pytest.approx(np.array([[1.0, 1.0], [1.0, 2.0]]), abs=1e-15)
    assert s.gram[0, 1] == 1.0 and s.gram[1, 0] == 1.0


def test_snapshot_rejects_bad_shapes():
    with pytest.raises(ValueError):
        snapshot_from_gradients(np.ones(3))          # not (K, D)
    with pytest.raises(ValueError):
        GradientSnapshot(norms=np.array([1.0, 1.0]), gram=np.eye(3))


def test_snapshot_invariant_violations():
    with pytest.raises(ValueError):                  # asymmetric gram
        GradientSnapshot(norms=np.array([1.0, 1.0]),
                         gram=np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError):                  # diagonal != norms^2
        GradientSnapshot(norms=np.array([1.0, 2.0]),
                         gram=np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):                  # Cauchy-Schwarz
        GradientSnapshot(norms=np.array([1.0, 1.0]),
                         gram=np.array([[1.0, 1.5], [1.5, 1.0]]))
    with pytest.raises(ValueError):                  # negative norm
        GradientSnapshot(norms=np.array([-1.0, 1.0]),
                         gram=np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):                  # bad iteration
        GradientSnapshot(norms=np.array([1.0]), gram=np.array([[1.0]]),
                         iteration=-3)


def test_snapshot_compression_is_lossless_for_inner_products():
    """Norms + Gram carry the same information as the full gradients."""
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 10_000))
    s = snapshot_from_gradients(g)
    for i in range(3):
        assert s.norms[i] == pytest.approx(np.linalg.norm(g[i]), rel=1e-12)
        for j in range(3):
            assert s.gram[i, j] == pytest.approx(float(g[i] @ g[j]), rel=1e-12)


def test_loss_snapshot_validation():
    loss_snap([1.0, 2.0])  # fine
    with pytest.raises(ValueError):
        loss_snap([1.0, 2.0], initial=[1.0])         # length mismatch
    with pytest.raises(ValueError):
        loss_snap([1.0, 2.0], initial=[0.0, 1.0])    # nonpositive initial
    with pytest.raises(ValueError):
        loss_snap([-1.0, 2.0])                       # negative loss
    with pytest.raises(ValueError):
        loss_snap([np.nan, 2.0])
    with pytest.raises(ValueError):
        LossSnapshot(losses=np.ones(2), initial_losses=np.ones(2),
                     prev_losses=np.ones(2), iteration=-1)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def _pair(t):
    return (grad_snap([[1.0, 0.0], [0.0, 1.0]], iteration=t),
            loss_snap([1.0, 1.0], iteration=t))


def test_window_accepts_contiguous_pairs():
    w = WindowBuffer(pairs=(_pair(0), _pair(1), _pair(2)), capacity=3)
    assert len(w) == 3
    assert [g.iteration for g, _ in w] == [0, 1, 2]
    assert [l.iteration for _, l in w] == [0, 1, 2]


def test_window_columns_stack_the_pairs():
    pairs = [(grad_snap([[1.0, 0.0], [0.0, 2.0 + t]], iteration=t),
              loss_snap([1.0 + t, 3.0], iteration=t)) for t in range(3)]
    w = WindowBuffer(pairs=tuple(pairs), capacity=3)
    assert w.k == 2
    assert w.norms.shape == (3, 2) and w.grams.shape == (3, 2, 2)
    assert w.losses.shape == (3, 2)
    for t, (g, l) in enumerate(pairs):
        assert np.array_equal(w.norms[t], g.norms)
        assert np.array_equal(w.grams[t], g.gram)
        assert np.array_equal(w.losses[t], l.losses)
    for arr in (w.norms, w.grams, w.losses):
        with pytest.raises(ValueError):
            arr[0] = 0.0                                      # read-only
    empty = WindowBuffer(pairs=(), capacity=1)
    assert len(empty) == 0 and empty.grams.size == 0


def test_window_rejects_mixed_task_counts():
    three = (grad_snap(np.eye(3), iteration=1), loss_snap([1.0, 1.0, 1.0], iteration=1))
    with pytest.raises(ValueError, match="same K"):
        WindowBuffer(pairs=(_pair(0), three), capacity=2)


def test_window_rejects_gaps_and_misalignment():
    with pytest.raises(ValueError):
        WindowBuffer(pairs=(_pair(0), _pair(2)), capacity=2)      # gap
    bad = (grad_snap([[1.0, 0.0], [0.0, 1.0]], iteration=5),
           loss_snap([1.0, 1.0], iteration=6))
    with pytest.raises(ValueError):
        WindowBuffer(pairs=(bad,), capacity=1)                    # misaligned
    with pytest.raises(TypeError):
        WindowBuffer(pairs=((1, 2),), capacity=1)


def test_window_stride_and_capacity():
    w = WindowBuffer(pairs=(_pair(0), _pair(2), _pair(4)), capacity=3, stride=2)
    assert len(w) == 3
    with pytest.raises(ValueError):
        WindowBuffer(pairs=(_pair(0), _pair(1)), capacity=1)      # over capacity
    with pytest.raises(ValueError):
        WindowBuffer(pairs=(), capacity=0)
    with pytest.raises(ValueError):
        WindowBuffer(pairs=(_pair(0),), capacity=1, stride=0)


# ---------------------------------------------------------------------------
# metric record validation
# ---------------------------------------------------------------------------

def _record(**overrides):
    base = dict(iteration=0, gms_mean=1.0, gcs_mean=0.0, cond_number=1.0,
                ilr=(1.0, 1.0), ilr_std=0.0, ldr=(1.0, 1.0),
                rl=(0.5, 0.5), rl_std=0.0, weights=(1.0, 1.0))
    base.update(overrides)
    return MetricRecord(**base)


def test_metric_record_range_checks():
    _record()
    with pytest.raises(ValueError):
        _record(gms_mean=1.5)
    with pytest.raises(ValueError):
        _record(gcs_mean=-2.0)
    with pytest.raises(ValueError):
        _record(cond_number=0.5)
    with pytest.raises(ValueError):
        _record(rl=(0.7, 0.7))
    with pytest.raises(ValueError):
        _record(iteration=-1)
    # None is the degenerate-mean marker, always allowed
    _record(gms_mean=None, gcs_mean=None)


def test_metric_record_coerces_tuples():
    r = _record(ilr=[1.0, 2.0])
    assert r.ilr == (1.0, 2.0)
    assert isinstance(r.ilr, tuple)


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def test_spawn_rng_is_deterministic_per_key():
    a = spawn_rng(123, 1, 7).standard_normal(4)
    b = spawn_rng(123, 1, 7).standard_normal(4)
    assert np.array_equal(a, b)


def test_spawn_rng_streams_are_independent():
    a = spawn_rng(123, 1).standard_normal(4)
    b = spawn_rng(123, 2).standard_normal(4)
    c = spawn_rng(124, 1).standard_normal(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
