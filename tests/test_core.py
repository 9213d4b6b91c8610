"""Domain types: feasibility projection, snapshots, windows, seeding."""
import numpy as np
import pytest

from autoscale import (
    WEIGHT_FLOOR,
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
from autoscale.core import raise_first_fault, record_faults

from helpers import grad_snap, loss_snap, window

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
    assert wv.w[0] == WEIGHT_FLOOR
    assert wv.w[1] == pytest.approx(2.0 - WEIGHT_FLOOR, abs=1e-15)
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

def test_window_columns_stack_the_pairs():
    pairs = [(grad_snap([[1.0, 0.0], [0.0, 2.0 + t]], iteration=t),
              loss_snap([1.0 + t, 3.0], iteration=t)) for t in range(3)]
    w = window(pairs)
    assert len(w) == 3 and w.k == 2
    assert w.norms.shape == (3, 2) and w.grams.shape == (3, 2, 2)
    assert w.losses.shape == (3, 2)
    for t, (g, l) in enumerate(pairs):
        assert np.array_equal(w.norms[t], g.norms)
        assert np.array_equal(w.grams[t], g.gram)
        assert np.array_equal(w.losses[t], l.losses)
    for arr in (w.norms, w.grams, w.losses):
        with pytest.raises(ValueError):
            arr[0] = 0.0                                      # read-only
    empty = window([])
    assert len(empty) == 0 and empty.grams.size == 0
    empty = WindowBuffer(np.empty((0, 3)), np.empty((0, 3, 3)), np.empty((0, 3)))
    assert len(empty) == 0 and empty.k == 3        # zero-size columns keep K
    assert empty.grams.shape == (0, 3, 3) and empty.losses.shape == (0, 3)


def test_window_rejects_mixed_task_counts():
    norms, grams, losses = _columns()
    with pytest.raises(ValueError, match="window columns must be"):
        WindowBuffer(norms, grams, losses[:, :1])
    with pytest.raises(ValueError, match="window columns must be"):
        WindowBuffer(norms, grams[:, :1, :1], losses)
    with pytest.raises(ValueError, match="window columns must be"):
        WindowBuffer(norms[:2], grams, losses)
    with pytest.raises(ValueError, match="window columns must be"):
        WindowBuffer(norms[0], grams[0], losses[0])


def _columns():
    """Valid three-row K=2 window columns, as writable copies."""
    pairs = [(grad_snap([[1.0, 0.5], [0.0, 2.0 + t]], iteration=t),
              loss_snap([1.0 + t, 3.0], iteration=t)) for t in range(3)]
    w = window(pairs)
    return w.norms.copy(), w.grams.copy(), w.losses.copy()


def _snapshot_message(norms, grams, losses):
    """The first message building the rows' snapshots one at a time raises."""
    for n, g, l in zip(norms, grams, losses):
        try:
            GradientSnapshot(norms=n, gram=g)
            LossSnapshot(losses=l, initial_losses=np.ones_like(l), prev_losses=l)
        except ValueError as exc:
            return str(exc)
    return None


def _nan_norm(n, g, l, row):
    n[row, 0] = np.nan


def _asymmetric(n, g, l, row):
    g[row, 0, 1] += 1e-3


def _off_diagonal(n, g, l, row):
    g[row, 1, 1] *= 1.5


def _cauchy_schwarz(n, g, l, row):
    g[row, 0, 1] = g[row, 1, 0] = 2.0 * n[row, 0] * n[row, 1]


def _negative_loss(n, g, l, row):
    l[row, 1] = -1.0


def _infinite_loss(n, g, l, row):
    l[row, 0] = np.inf


@pytest.mark.parametrize("fault, message", [
    (_nan_norm, "snapshot entries must be finite"),
    (_asymmetric, "gram matrix must be symmetric (1e-10 relative)"),
    (_off_diagonal, "gram diagonal must equal squared norms (1e-8 relative)"),
    (_cauchy_schwarz, "gram entries violate the Cauchy-Schwarz bound"),
    (_negative_loss, "losses must be nonnegative"),
    (_infinite_loss, "losses must be finite"),
])
def test_window_rejects_bad_rows_with_the_snapshot_message(fault, message):
    norms, grams, losses = _columns()
    fault(norms, grams, losses, 1)
    assert _snapshot_message(norms, grams, losses) == message
    with pytest.raises(ValueError) as exc:
        WindowBuffer(norms, grams, losses)
    assert str(exc.value) == message


@pytest.mark.parametrize("first, later", [
    (_negative_loss, _nan_norm),       # a loss fault before a gradient fault
    (_cauchy_schwarz, _asymmetric),    # a later check before an earlier one
])
def test_window_raises_for_the_first_failing_row(first, later):
    norms, grams, losses = _columns()
    first(norms, grams, losses, 1)
    later(norms, grams, losses, 2)
    want = _snapshot_message(norms[1:2], grams[1:2], losses[1:2])
    assert _snapshot_message(norms, grams, losses) == want
    with pytest.raises(ValueError) as exc:
        WindowBuffer(norms, grams, losses)
    assert str(exc.value) == want
    # within one row the gradient checks come first, as in building its pair
    later(norms, grams, losses, 1)
    with pytest.raises(ValueError) as exc:
        WindowBuffer(norms, grams, losses)
    assert str(exc.value) == _snapshot_message(norms[1:2], grams[1:2], losses[1:2])


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


@pytest.mark.parametrize("field, value", [
    ("ilr_std", float("inf")), ("rl_std", float("nan")), ("ilr", (1.0, float("inf"))),
    ("ldr", (float("inf"), 1.0)), ("weights", (float("nan"), 1.0))])
def test_metric_record_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"metric record values must be finite: {field}$"):
        _record(**{field: value})


@pytest.mark.parametrize("overrides", [
    {"iteration": -1}, {"gms_mean": 1.5}, {"gms_mean": -0.5}, {"gcs_mean": -2.0},
    {"cond_number": 0.5}, {"cond_number": float("nan")}, {"rl": (0.7, 0.7)},
    {"rl": (float("inf"), 0.5)}, {"ilr_std": float("inf")},
    {"ilr": (1.0, float("nan")), "weights": (float("inf"), 1.0)}])
def test_record_faults_raise_what_the_first_failing_record_would(overrides):
    with pytest.raises(ValueError) as record_error:
        _record(**overrides)
    rows = [dict(_record().__dict__, iteration=t) for t in range(6)]
    rows[3].update(overrides)
    rows[4]["iteration"] = -1          # a later row failing an earlier check
    rows[5]["cond_number"] = 0.0
    columns = {name: np.array([row[name] for row in rows], dtype=float)
               for name in rows[0] if name != "degenerate_flags"}
    with pytest.raises(ValueError) as block_error:
        raise_first_fault(record_faults(columns))
    assert str(block_error.value) == str(record_error.value)


def test_metric_record_null_means_pass_the_range_checks():
    columns = {name: np.array([value] * 2, dtype=float)
               for name, value in _record(gms_mean=None, gcs_mean=None).__dict__.items()
               if name != "degenerate_flags"}
    assert np.isnan(columns["gms_mean"]).all()
    raise_first_fault(record_faults(columns))


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
