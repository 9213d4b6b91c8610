"""JSONL trace format: exact round trips, strict parsing, stable hashing."""
import json
import os
import re
import tempfile

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
from autoscale import cli, traceio
from autoscale.cli import RunConfig, execute_run
from autoscale.traceio import iter_trace, read_trace_columns

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


def test_written_trace_lines_carry_the_run_columns(tmp_path):
    cfg = RunConfig(method="unitary", problem="quadratic", k=2, dim=3,
                    scales=(1.0, 2.0), total_iters=20, seed=3)
    summary, run = execute_run(cfg)
    path = tmp_path / "run.jsonl"
    assert write_trace(path, [summary[f] for f in TRACE_FIELDS[:5]], run.columns) == 20
    lines = read_trace(path)
    columns = run.columns
    assert len(lines) == len(run.metrics["degenerate_flags"]) == 20
    for i, line in enumerate(lines):
        assert (line.run_id, line.method, line.cost_kind, line.seed, line.config_hash) == (
            cfg.resolved_run_id(), "unitary", "", 3, cfg.semantic_hash())
        assert line.iter == columns["iter"][i] == i
        for name in TRACE_FIELDS[6:-1]:
            want = columns[name][i].tolist()
            got = getattr(line, name)
            assert all(map(_bits_equal, got, want)) if isinstance(want, list) else (
                _bits_equal(got, want)), name
        assert line.degenerate_flags == columns["degenerate_flags"][i]
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


def test_parse_reports_a_deeply_nested_line_as_invalid_json(tmp_path):
    deep = "[" * 200_000
    with pytest.raises(TraceParseError, match=r"^line 4: invalid JSON \(nested too deeply\)$"):
        parse_trace_line(deep, line_number=4)
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(_texts(2) + [deep]) + "\n", encoding="utf-8")
    assert _assert_reads_agree(path) == ("TraceParseError",
                                         "line 3: invalid JSON (nested too deeply)")


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


# Two faulty fields: the parser checks strings, integers, float arrays,
# nullable floats, floats and then the flags, each in field order, and a
# field's type before its finiteness; the first fault found is reported.
@pytest.mark.parametrize("overrides, message", [
    (dict(seed="0", config_hash=5), "'config_hash' must be a string"),
    (dict(iter=1.5, weights="x"), "'iter' must be an integer"),
    (dict(gms_mean="x", ilr=["1"]), "'ilr' must be an array of numbers"),
    (dict(cond_number=None, gcs_mean=True), "'gcs_mean' must be a number or null"),
    (dict(degenerate_flags=[1], rl_std=None), "'rl_std' must be a number"),
    (dict(weights=[float("inf")], losses="x"), "'weights' must be finite"),
    (dict(ldr=[float("nan")], ilr=[True]), "'ilr' must be an array of numbers"),
    (dict(ilr_std=float("inf"), gms_mean=[1.0]), "'gms_mean' must be a number or null"),
], ids=["str-before-int", "int-before-array", "array-before-nullable",
        "nullable-before-float", "float-before-flags", "finite-before-next-field",
        "field-order-within-a-kind", "type-of-an-earlier-kind-before-finite"])
def test_parse_reports_the_first_fault_in_a_fixed_order(overrides, message):
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
    meta, columns, lines = _random_columns(rng, 3, 20)
    path = tmp_path / "run.jsonl"
    assert write_trace(path, meta, columns) == 20
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
    meta, columns, _ = _random_columns(rng, 3, 70)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trace(p1, meta, columns)
    write_trace(p2, meta, columns)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# the block writer against the line serializer
# ---------------------------------------------------------------------------

_NULLABLE = ("gms_mean", "gcs_mean")


def _random_columns(rng, k, t, meta=("run", "fixed", "", 0, "0" * 16), flag_pool=((),),
                    start=0):
    """Trace metadata, columns of ``t`` rows at K=``k`` with edge values and
    null pair means mixed in, and the TraceLines the columns stand for."""
    widths = dict.fromkeys(("weights", "losses", "grad_norms", "ilr", "ldr", "rl"), k)
    widths["gram_upper"] = k * (k + 1) // 2

    def values(*shape):
        spread = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
        return np.where(rng.random(shape) < 0.3, rng.choice(_EDGES, shape), spread)

    columns = {"iter": start + np.arange(t)}
    for name in TRACE_FIELDS[6:-1]:
        columns[name] = values(t, widths[name]) if name in widths else values(t)
    for name in _NULLABLE:
        columns[name][rng.random(t) < 0.2] = np.nan
    columns["degenerate_flags"] = [flag_pool[i] for i in rng.integers(len(flag_pool), size=t)]
    lines = []
    for n in range(t):
        row = {name: columns[name][n].tolist() for name in TRACE_FIELDS[6:-1]}
        row.update({name: None for name in _NULLABLE if np.isnan(row[name])})
        lines.append(TraceLine(*meta, start + n, degenerate_flags=columns["degenerate_flags"][n],
                               **row))
    return list(meta), columns, lines


# Text that JSON must escape or that a %-template must not read as a slot.
_TEXT = st.text(max_size=8) | st.text(st.sampled_from('"\\%sd{}é€💥\u2028\x00 '), max_size=8)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(k=st.integers(1, 8),
       t=st.sampled_from((1, 63, 64, 65, 128, 129)) | st.integers(1, 200),
       meta=st.tuples(_TEXT, _TEXT, _TEXT, st.integers(-2**70, 2**70), _TEXT),
       flag_pool=st.lists(st.lists(_TEXT, max_size=3).map(tuple), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), start=st.integers(0, 2**40))
def test_block_writer_equals_the_line_serializer(k, t, meta, flag_pool, seed, start):
    meta, columns, lines = _random_columns(np.random.default_rng(seed), k, t, meta,
                                           flag_pool, start)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        assert write_trace(path, meta, columns) == t
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == "".join(serialize_trace_line(line) + "\n" for line in lines).encode()


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("name", TRACE_FIELDS[6:-1])
def test_block_writer_names_a_non_finite_field(tmp_path, name, bad):
    meta, columns, lines = _random_columns(np.random.default_rng(8), 3, 70)
    columns[name][66] = bad          # a whole row of a per-task field
    path = tmp_path / "t.jsonl"
    if name in _NULLABLE and np.isnan(bad):
        write_trace(path, meta, columns)           # NaN is the null of a pair mean
        assert getattr(read_trace(path)[66], name) is None
        return
    with pytest.raises(ValueError, match=f"^trace field '{name}' must be finite, "
                                         f"got {bad!r} at row 66$"):
        write_trace(path, meta, columns)
    # The 64 lines of the first block never reach path, nor stay beside it.
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("meta, message", [
    (("run", "fixed", "", 1.5, "0" * 16), "trace meta field 'seed' must be an integer, got 1.5"),
    (("run", "fixed", "", True, "0" * 16), "trace meta field 'seed' must be an integer, got True"),
    (("run", "fixed", "", 0, 12), "trace meta field 'config_hash' must be a string, got 12"),
    ((None, "fixed", "", 0, "0" * 16), "trace meta field 'run_id' must be a string, got None"),
    (("run", "fixed", ""), "trace meta must hold 5 values (run_id, method, cost_kind, seed, "
                          "config_hash), got 3"),
], ids=["float-seed", "bool-seed", "int-hash", "none-id", "three-values"])
def test_block_writer_checks_its_meta_before_writing(tmp_path, meta, message):
    _, columns, _ = _random_columns(np.random.default_rng(11), 2, 5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_trace(tmp_path / "t.jsonl", list(meta), columns)
    assert list(tmp_path.iterdir()) == []


def test_a_failed_write_keeps_the_file_already_at_the_path(tmp_path):
    meta, columns, _ = _random_columns(np.random.default_rng(10), 2, 130)
    path = tmp_path / "t.jsonl"
    write_trace(path, meta, columns)
    before = path.read_bytes()
    columns["cond_number"][129] = np.inf
    with pytest.raises(ValueError, match="at row 129$"):
        write_trace(path, meta, columns)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_block_writer_checks_its_first_line_against_the_serializer(tmp_path, monkeypatch):
    meta, columns, _ = _random_columns(np.random.default_rng(9), 2, 5)
    monkeypatch.setattr(traceio, "serialize_trace_line", lambda line: "{}")
    with pytest.raises(RuntimeError, match="first line differs from serialize_trace_line"):
        write_trace(tmp_path / "t.jsonl", meta, columns)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# columnar reads
# ---------------------------------------------------------------------------

def _columns_or_error(read, path):
    """What a read gives: its columns as text (``repr`` tells -0.0 from 0.0),
    or the type and message of the error it raised."""
    try:
        return repr(read(path))
    except (TraceParseError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)


def _assert_reads_agree(path, names=TRACE_FIELDS):
    """read_trace_columns gives read_trace's attributes, or its error."""
    by_lines = _columns_or_error(
        lambda p: {name: [getattr(line, name) for line in read_trace(p)] for name in names},
        path)
    assert _columns_or_error(lambda p: read_trace_columns(p, names), path) == by_lines
    return by_lines


@pytest.mark.parametrize("argv", [
    ("--method", "autoscale", "--problem", "reference", "--cost", "low-cond",
     "--total-iters", "150", "--exploration-ratio", "0.4", "--window-size", "30",
     "--aggregation-size", "2"),
    ("--method", "rlw", "--problem", "mlp", "--k", "4", "--total-iters", "130",
     "--baseline-iters", "5"),
], ids=["reference-low-cond", "mlp-k4-rlw"])
def test_columns_equal_the_parsed_lines_of_a_written_trace(tmp_path, argv):
    path = tmp_path / "run.jsonl"
    assert cli.main(["run", *argv, "--trace", str(path)]) == 0
    _assert_reads_agree(path)
    columns = read_trace_columns(path, TRACE_FIELDS)
    # Any subset, in any order, holds the same entries.
    assert read_trace_columns(path, ("rl_std", "iter")) == {
        "rl_std": columns["rl_std"], "iter": columns["iter"]}


def _texts(n, seed=8):
    rng = np.random.default_rng(seed)
    return [serialize_trace_line(_random_line(rng, k=int(rng.integers(2, 5))))
            for _ in range(n)]


def _edit(text, **fields):
    payload = json.loads(text)
    payload.update(fields)
    return json.dumps(payload)


def test_columns_accept_what_the_line_parser_accepts(tmp_path):
    texts = _texts(200)          # ragged: K differs from line to line
    texts[5] = _edit(texts[5], weights=[1, 2, 3], cond_number=7, gms_mean=0)
    texts[70] = _edit(texts[70], losses=[], gram_upper=[2**60, -1.5], gcs_mean=None)
    texts[199] = _edit(texts[199], degenerate_flags=["zero-grad", ""], seed=2**70)
    path = tmp_path / "t.jsonl"
    path.write_text("\n\n" + "\n   \n".join(texts) + "\n\t\n", encoding="utf-8")
    _assert_reads_agree(path)
    columns = read_trace_columns(path, ("weights", "cond_number", "gms_mean", "gram_upper"))
    assert columns["weights"][5] == (1.0, 2.0, 3.0)
    assert all(type(v) is float for v in (*columns["weights"][5],
                                          columns["cond_number"][5], columns["gms_mean"][5]))
    assert columns["gram_upper"][70] == (float(2**60), -1.5)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n \n", encoding="utf-8")
    assert read_trace_columns(empty, ("iter",)) == {"iter": []}


_MALFORMED = {
    "invalid-json": lambda t: t[:-1],
    "not-an-object": lambda t: "[1, 2]",
    "missing-fields": lambda t: '{"weights": "oops"}',
    "unknown-field": lambda t: _edit(t, zebra=1),
    "bool-in-floats": lambda t: _edit(t, weights=[1.0, True]),
    "string-in-floats": lambda t: _edit(t, ilr=["1.0"]),
    "nan": lambda t: _edit(t, cond_number=float("nan")),
    "inf-in-array": lambda t: _edit(t, ldr=[1.0, float("inf")]),
    "huge-int": lambda t: t.replace('"losses":[', '"losses":[' + "9" * 400 + ",", 1),
    "array-as-object": lambda t: _edit(t, rl={}),
    "null-float": lambda t: _edit(t, ilr_std=None),
    "float-iter": lambda t: _edit(t, iter=3.0),
    "bool-seed": lambda t: _edit(t, seed=False),
    "int-run-id": lambda t: _edit(t, run_id=1),
    "non-string-flag": lambda t: _edit(t, degenerate_flags=[None]),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
@pytest.mark.parametrize("line", [1, 64, 65, 130, 200])
def test_columns_reject_a_malformed_line_as_the_line_parser_does(tmp_path, case, line):
    texts = _texts(200)
    later_error = _edit(texts[line - 1], weights="later error")
    texts[line - 1] = _MALFORMED[case](texts[line - 1])
    texts.insert(line + 5, later_error)
    texts.insert(10, "")        # a blank line: numbers stay physical
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(texts) + "\n", encoding="utf-8")
    error = _assert_reads_agree(path)
    number = line + (line > 10)
    assert error[0] == "TraceParseError" and error[1].startswith(f"line {number}: ")


@pytest.mark.parametrize("bad_byte_line", [4, 60, 150])
def test_columns_meet_undecodable_text_where_read_trace_does(tmp_path, bad_byte_line):
    # A line fails before an undecodable byte, within the same read-ahead
    # block (and, for line 4, the same decoding chunk) or after it.
    texts = _texts(200)
    texts[2] = "{broken"
    data = "\n".join(texts).encode("utf-8").split(b"\n")
    data[bad_byte_line - 1] = data[bad_byte_line - 1].replace(b"run-", b"\xff", 1)
    path = tmp_path / "t.jsonl"
    path.write_bytes(b"\n".join(data) + b"\n")
    error = _assert_reads_agree(path)
    assert error[0] == ("UnicodeDecodeError" if bad_byte_line == 4 else "TraceParseError")


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
