"""JSONL trace format: exact round trips, strict parsing, stable hashing."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autoscale import (
    TRACE_FIELDS,
    TraceLine,
    TraceParseError,
    config_hash,
    parse_trace_line,
    read_trace,
    serialize_trace_line,
    write_trace,
)
from autoscale.cli import RunConfig, execute_run, trace_lines_for_run
from autoscale.traceio import iter_trace

from helpers import (
    bits_equal as _bits_equal,
    random_trace_line as _random_line,
    trace_lines_identical as _lines_identical,
)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_round_trip_is_bitwise_exact():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        line = _random_line(rng, k=int(rng.integers(2, 5)))
        text = serialize_trace_line(line)
        back = parse_trace_line(text)
        assert _lines_identical(line, back)
        # and the serialization itself is a fixed point
        assert serialize_trace_line(back) == text


def test_round_trip_preserves_signed_zero_and_extremes():
    rng = np.random.default_rng(1)
    line = _random_line(rng)
    tricky = (-0.0, 5e-324, 1.7976931348623157e308, 1e-308)
    line = TraceLine(**{**{f: getattr(line, f) for f in TRACE_FIELDS},
                        "gram_upper": tricky,
                        "ilr": (0.1, 1.0 / 3.0, 0.3333333333333333)})
    back = parse_trace_line(serialize_trace_line(line))
    assert all(_bits_equal(x, y) for x, y in zip(tricky, back.gram_upper))
    assert all(_bits_equal(x, y) for x, y in zip(line.ilr, back.ilr))


# Finite floats, with the edges a trace must carry exactly always in reach:
# signed zero, the subnormal range and the top of the double range.
_EDGES = (-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
          1.7976931348623157e308, -1.7976931348623157e308, 1.79e308, -1.79e308)
_floats = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))
_float_tuples = st.lists(_floats, max_size=6).map(tuple)


@st.composite
def _trace_lines(draw):
    fields = {name: draw(st.text(max_size=8))
              for name in ("run_id", "method", "cost_kind", "config_hash")}
    fields.update({name: draw(st.integers(0, 2**63)) for name in ("seed", "iter")})
    fields.update({name: draw(_float_tuples) for name in (
        "weights", "losses", "grad_norms", "gram_upper", "ilr", "ldr", "rl")})
    fields.update({name: draw(st.none() | _floats) for name in ("gms_mean", "gcs_mean")})
    fields.update({name: draw(_floats) for name in ("cond_number", "ilr_std", "rl_std")})
    fields["degenerate_flags"] = tuple(draw(st.lists(st.text(max_size=12), max_size=3)))
    return TraceLine(**fields)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_trace_lines())
def test_generated_lines_round_trip_bitwise(line):
    text = serialize_trace_line(line)
    back = parse_trace_line(text)
    assert _lines_identical(line, back)
    assert serialize_trace_line(back) == text


def test_field_order_is_fixed():
    rng = np.random.default_rng(2)
    text = serialize_trace_line(_random_line(rng))
    pairs = json.loads(text, object_pairs_hook=lambda kv: [k for k, _ in kv])
    assert tuple(pairs) == TRACE_FIELDS


def test_trace_lines_for_run_carry_everything():
    cfg = RunConfig(method="unitary", problem="quadratic", k=2, dim=3,
                    scales=(1.0, 2.0), total_iters=20, seed=3)
    run = execute_run(cfg)["_run"]
    lines = list(trace_lines_for_run(run, cfg))
    assert len(lines) == len(run.records) == 20
    for i, (line, rec) in enumerate(zip(lines, run.records)):
        assert (line.run_id, line.method, line.cost_kind, line.seed, line.config_hash) == (
            cfg.resolved_run_id(), "unitary", "", 3, cfg.semantic_hash())
        assert line.iter == rec.iteration
        for name in ("weights", "gms_mean", "gcs_mean", "cond_number", "ilr", "ilr_std",
                     "ldr", "rl", "rl_std", "degenerate_flags"):
            assert getattr(line, name) == getattr(rec, name), name
        assert line.losses == tuple(run.losses[i])
        assert line.grad_norms == tuple(run.grad_norms[i])
        assert line.gram_upper == tuple(run.gram_upper[i])
        assert all(type(v) is float for v in line.losses + line.gram_upper)
        assert _lines_identical(line, parse_trace_line(serialize_trace_line(line)))


def test_trace_line_normalizes_lists_and_ints():
    line = _random_line(np.random.default_rng(7))
    fields = {name: getattr(line, name) for name in TRACE_FIELDS}
    as_lists = {name: list(v) if isinstance(v, tuple) else v for name, v in fields.items()}
    assert TraceLine(**as_lists) == line

    text = json.dumps(_payload(weights=[1, 2, 3], cond_number=2, gms_mean=0))
    parsed = parse_trace_line(text)
    assert parsed.weights == (1.0, 2.0, 3.0)
    assert all(type(v) is float for v in (*parsed.weights, parsed.cond_number,
                                          parsed.gms_mean))
    again = serialize_trace_line(parsed)
    assert '"weights":[1.0,2.0,3.0]' in again
    assert '"cond_number":2.0' in again
    assert '"gms_mean":0.0' in again


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

def _payload(**overrides):
    rng = np.random.default_rng(3)
    base = json.loads(serialize_trace_line(_random_line(rng)))
    base.update(overrides)
    return base


def test_parse_rejects_invalid_json():
    with pytest.raises(TraceParseError, match="invalid JSON"):
        parse_trace_line("{not json")
    with pytest.raises(TraceParseError, match="line 7: invalid JSON"):
        parse_trace_line("{not json", line_number=7)


def test_parse_rejects_non_object():
    with pytest.raises(TraceParseError, match="must be a JSON object"):
        parse_trace_line("[1, 2, 3]")


def test_parse_rejects_unknown_fields():
    payload = _payload(surprise=1, zebra=2)
    with pytest.raises(TraceParseError, match="unknown field\\(s\\): surprise, zebra"):
        parse_trace_line(json.dumps(payload))


def test_parse_rejects_missing_fields():
    payload = _payload()
    del payload["weights"], payload["seed"]
    with pytest.raises(TraceParseError, match="missing field\\(s\\): seed, weights"):
        parse_trace_line(json.dumps(payload))


def test_parse_rejects_wrong_types():
    checks = [
        (dict(run_id=7), "'run_id' must be a string"),
        (dict(seed="0"), "'seed' must be an integer"),
        (dict(seed=True), "'seed' must be an integer"),
        (dict(iter=1.5), "'iter' must be an integer"),
        (dict(weights="nope"), "'weights' must be an array of numbers"),
        (dict(weights=[1.0, True]), "'weights' must be an array of numbers"),
        (dict(gms_mean="x"), "'gms_mean' must be a number or null"),
        (dict(gms_mean=False), "'gms_mean' must be a number or null"),
        (dict(cond_number=None), "'cond_number' must be a number"),
        (dict(cond_number=True), "'cond_number' must be a number"),
        (dict(degenerate_flags=[1]), "'degenerate_flags' must be an array of strings"),
    ]
    for overrides, message in checks:
        with pytest.raises(TraceParseError) as err:
            parse_trace_line(json.dumps(_payload(**overrides)))
        assert message in str(err.value)


@pytest.mark.parametrize("field, raw", [
    ("cond_number", "NaN"),
    ("ilr_std", "1e999"),
    ("losses", "[1.0, " + "9" * 400 + "]"),
], ids=["nan", "inf", "huge-int"])
def test_parse_rejects_numbers_no_double_holds(field, raw):
    text = json.dumps(_payload(**{field: 0.0})).replace(
        f'"{field}": 0.0', f'"{field}": {raw}')
    with pytest.raises(TraceParseError,
                       match=f"line 3: field '{field}' must be finite"):
        parse_trace_line(text, line_number=3)


def test_parse_accepts_null_means():
    payload = _payload(gms_mean=None, gcs_mean=None)
    line = parse_trace_line(json.dumps(payload))
    assert line.gms_mean is None and line.gcs_mean is None


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def test_write_read_and_blank_line_handling(tmp_path):
    rng = np.random.default_rng(4)
    lines = [_random_line(rng) for _ in range(20)]
    path = tmp_path / "run.jsonl"
    assert write_trace(path, lines) == 20
    back = read_trace(path)
    assert len(back) == 20
    assert all(_lines_identical(a, b) for a, b in zip(lines, back))

    # blank and whitespace-only lines are skipped on read
    raw = path.read_text(encoding="utf-8").splitlines()
    raw.insert(3, "")
    raw.insert(10, "   ")
    path.write_text("\n".join(raw) + "\n", encoding="utf-8")
    assert len(list(iter_trace(path))) == 20


def test_read_reports_one_based_line_numbers(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "bad.jsonl"
    good = serialize_trace_line(_random_line(rng))
    path.write_text(good + "\n" + "{broken\n", encoding="utf-8")
    with pytest.raises(TraceParseError, match="line 2:"):
        read_trace(path)


def test_writes_are_byte_identical(tmp_path):
    rng = np.random.default_rng(6)
    lines = [_random_line(rng) for _ in range(10)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trace(p1, lines)
    write_trace(p2, lines)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# config hashing
# ---------------------------------------------------------------------------

def test_config_hash_is_key_order_independent():
    a = config_hash({"alpha": 0.2, "tau": 50, "kind": "equal-loss"})
    b = config_hash({"tau": 50, "kind": "equal-loss", "alpha": 0.2})
    assert a == b
    assert len(a) == 16
    assert all(c in "0123456789abcdef" for c in a)


def test_config_hash_separates_configs():
    a = config_hash({"alpha": 0.2, "tau": 50})
    b = config_hash({"alpha": 0.2, "tau": 51})
    assert a != b
