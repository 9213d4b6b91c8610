"""Line-delimited run traces: one self-describing JSON object per iteration.

Each line carries the run metadata (id, method, cost kind, seed, config hash)
plus the full per-iteration observation: weights, raw losses, gradient norms,
the Gram upper triangle (row-major), and every derived metric.  Numeric fields
serialize with shortest-round-trip precision, so parse(serialize(line))
reproduces the exact binary values and identical runs produce byte-identical
files.  ``write_trace`` writes a run's columns in blocks of lines, byte for
byte what one ``serialize_trace_line`` per line would write.  ``TraceLine``
converts every value once, whether it comes from a file or from Python
values.  Parsing is strict: unknown fields and non-finite numbers
are rejected, and a truncated or malformed line reports what is missing.
``read_trace_columns`` reads chosen fields as columns under the same rules,
checking blocks of lines at once and leaving every error to
``parse_trace_line``.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

#: Exact serialized field order.  Metadata first, then the per-iteration payload.
TRACE_FIELDS = (
    "run_id", "method", "cost_kind", "seed", "config_hash",
    "iter", "weights", "losses", "grad_norms", "gram_upper",
    "gms_mean", "gcs_mean", "cond_number",
    "ilr", "ilr_std", "ldr", "rl", "rl_std",
    "degenerate_flags",
)

_FLOAT_TUPLES = ("weights", "losses", "grad_norms", "gram_upper", "ilr", "ldr", "rl")
_OPTIONAL_FLOATS = ("gms_mean", "gcs_mean")
_FLOATS = ("cond_number", "ilr_std", "rl_std")
_NUMBER_TYPES = frozenset((int, float))
_MAX_FLOAT = sys.float_info.max
_STRINGS = ("run_id", "method", "cost_kind", "config_hash")
_INTEGERS = ("seed", "iter")
_ARRAYS = _FLOAT_TUPLES + ("degenerate_flags",)
_FIELD_SET = frozenset(TRACE_FIELDS)
_STR, _INT, _FLOAT, _LIST = (frozenset((t,)) for t in (str, int, float, list))
#: Most non-blank lines ``read_trace_columns`` decodes before checking them.
_BLOCK_LINES = 64


class TraceParseError(ValueError):
    """A trace line failed to parse; the message names what went wrong."""


@dataclass(frozen=True)
class TraceLine:
    """One fully-described trace line (metadata + iteration payload)."""

    run_id: str
    method: str
    cost_kind: str
    seed: int
    config_hash: str
    iter: int
    weights: tuple[float, ...]
    losses: tuple[float, ...]
    grad_norms: tuple[float, ...]
    gram_upper: tuple[float, ...]
    gms_mean: float | None
    gcs_mean: float | None
    cond_number: float
    ilr: tuple[float, ...]
    ilr_std: float
    ldr: tuple[float, ...]
    rl: tuple[float, ...]
    rl_std: float
    degenerate_flags: tuple[str, ...]

    def __post_init__(self) -> None:
        # The one place a trace value is converted: numpy scalars from a run
        # and JSON ints from a file both become plain floats here.
        for name in _FLOAT_TUPLES:
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        for name in _FLOATS:
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in _OPTIONAL_FLOATS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))
        object.__setattr__(self, "degenerate_flags",
                           tuple(map(str, self.degenerate_flags)))


def serialize_trace_line(line: TraceLine) -> str:
    """Compact JSON with the fixed field order; floats round-trip exactly."""
    return json.dumps({name: getattr(line, name) for name in TRACE_FIELDS},
                      separators=(",", ":"), allow_nan=False)


def parse_trace_line(text: str, line_number: int | None = None) -> TraceLine:
    """Strict inverse of :func:`serialize_trace_line`."""
    where = f"line {line_number}: " if line_number is not None else ""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"{where}invalid JSON ({exc.msg} at column {exc.colno})")
    if not isinstance(payload, dict):
        raise TraceParseError(f"{where}trace line must be a JSON object")
    unknown = set(payload) - set(TRACE_FIELDS)
    if unknown:
        raise TraceParseError(f"{where}unknown field(s): {', '.join(sorted(unknown))}")
    missing = [name for name in TRACE_FIELDS if name not in payload]
    if missing:
        raise TraceParseError(f"{where}missing field(s): {', '.join(missing)}")

    def fail(msg: str) -> TraceParseError:
        return TraceParseError(where + msg)

    def check_finite(name: str, values) -> None:
        # NaN, ±inf (json.loads reads 1e999 as inf) and ints past the double
        # range fail; int/float comparisons are exact, and NaN compares false.
        if not all(map(_MAX_FLOAT.__ge__, map(abs, values))):
            raise fail(f"field {name!r} must be finite and within the double range")

    # json.loads yields exact int/float/str/list/bool/None, so exact type
    # tests suffice and keep bool (an int subclass) out.
    for name in _STRINGS:
        if type(payload[name]) is not str:
            raise fail(f"field {name!r} must be a string")
    for name in _INTEGERS:
        if type(payload[name]) is not int:
            raise fail(f"field {name!r} must be an integer")
    for name in _FLOAT_TUPLES:
        v = payload[name]
        if type(v) is not list or not _NUMBER_TYPES.issuperset(map(type, v)):
            raise fail(f"field {name!r} must be an array of numbers")
        check_finite(name, v)
    for name in _OPTIONAL_FLOATS:
        v = payload[name]
        if v is not None:
            if type(v) not in _NUMBER_TYPES:
                raise fail(f"field {name!r} must be a number or null")
            check_finite(name, (v,))
    for name in _FLOATS:
        v = payload[name]
        if type(v) not in _NUMBER_TYPES:
            raise fail(f"field {name!r} must be a number")
        check_finite(name, (v,))
    flags = payload["degenerate_flags"]
    if type(flags) is not list or not all(type(e) is str for e in flags):
        raise fail("field 'degenerate_flags' must be an array of strings")
    return TraceLine(**payload)


def write_trace(path, meta: Sequence, columns: Mapping) -> int:
    """Write the trace of ``meta``, the five metadata values, and ``columns``,
    the fields ``iter`` to ``degenerate_flags`` by name: (T,) or (T, n) arrays
    with NaN for a null pair mean, and a tuple of flags per row.  Returns T.

    Every line fills one ``%`` template, a block of ``_BLOCK_LINES`` rows at
    a time; ``%r`` of a float is what ``json.dumps`` writes, and the first
    line must equal :func:`serialize_trace_line` of its values.  A non-finite
    value other than a null raises ValueError naming the field.
    """
    floats = {name: np.asarray(columns[name], dtype=float) for name in TRACE_FIELDS[6:-1]}
    template = json.dumps(dict(zip(TRACE_FIELDS, meta)), separators=(",", ":"))[:-1]
    template = template.replace("%", "%%") + ',"iter":%d'
    owners = []                       # the field of each column of a stacked block
    for name, column in floats.items():
        slot = "%s" if name in _OPTIONAL_FLOATS else "%r"
        width = column.shape[1] if name in _FLOAT_TUPLES else 0
        template += f',"{name}":' + (f"[{','.join([slot] * width)}]" if width else slot)
        owners += [name] * max(width, 1)
    template += ',"degenerate_flags":%s}\n'
    nulls = [i for i, name in enumerate(owners) if name in _OPTIONAL_FLOATS]
    iters, flags = np.asarray(columns["iter"]), columns["degenerate_flags"]
    flag_texts = {f: json.dumps(f, separators=(",", ":")) for f in set(flags)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for lo in range(0, len(iters), _BLOCK_LINES):
            hi = min(lo + _BLOCK_LINES, len(iters))
            block = np.hstack([c[lo:hi].reshape(hi - lo, -1) for c in floats.values()])
            null, bad = np.isnan(block[:, nulls]), ~np.isfinite(block)
            bad[:, nulls] = np.isinf(block[:, nulls])
            if bad.any():
                r, c = np.argwhere(bad)[0]
                raise ValueError(f"trace field {owners[c]!r} must be finite, "
                                 f"got {float(block[r, c])!r} at row {lo + r}")
            rows = block.tolist()
            for r, c in np.argwhere(null):
                rows[r][nulls[c]] = "null"
            texts = [template % (t, *row, flag_texts[f])
                     for t, row, f in zip(iters[lo:hi].tolist(), rows, flags[lo:hi])]
            if lo == 0:
                first = {n: None if n in _OPTIONAL_FLOATS and math.isnan(c[0]) else c[0].tolist()
                         for n, c in floats.items()}
                if texts[0] != serialize_trace_line(TraceLine(
                        *meta, int(iters[0]), **first, degenerate_flags=flags[0])) + "\n":
                    raise RuntimeError("trace writer: first line differs from serialize_trace_line")
            fh.write("".join(texts))
    return len(iters)


def iter_trace(path) -> Iterator[TraceLine]:
    """Stream parsed lines from a trace file (strict)."""
    with open(path, "r", encoding="utf-8") as fh:
        for i, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            yield parse_trace_line(raw, line_number=i)


def read_trace(path) -> list[TraceLine]:
    return list(iter_trace(path))


def read_trace_columns(path, names: Sequence[str]) -> dict[str, list]:
    """The fields ``names`` of a trace file as columns, one entry per line.

    Accepts and rejects exactly what :func:`read_trace` does, with the same
    values (arrays as tuples) and the same errors.  Lines are decoded in
    blocks of at most ``_BLOCK_LINES`` and checked together; a block that
    fails any check, even one ``parse_trace_line`` would pass, is parsed
    again line by line, so that function alone words every error.
    """
    columns: dict[str, list] = {name: [] for name in names}
    block: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for i, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if raw:
                    block.append((i, raw))
                    if len(block) == _BLOCK_LINES:
                        _read_block(block, columns)
                        block.clear()
        except UnicodeDecodeError:
            # read_trace would have parsed the lines decoded before this.
            _read_block(block, columns)
            raise
    _read_block(block, columns)
    return columns


def _read_block(block: list[tuple[int, str]], columns: dict[str, list]) -> None:
    payloads = _checked_payloads([text for _, text in block])
    if payloads is None:
        lines = [parse_trace_line(text, line_number=i) for i, text in block]
        for name, column in columns.items():
            column.extend(getattr(line, name) for line in lines)
        return
    for name, column in columns.items():
        values = (p[name] for p in payloads)
        column.extend(map(tuple, values) if name in _ARRAYS else values)


def _checked_payloads(texts: list[str]) -> list[dict] | None:
    """The decoded lines when every one holds exactly the trace fields, with
    exact types, only ``float`` numbers (an int may be past the double
    range) and finite ones; otherwise None."""
    try:
        payloads = list(map(json.loads, texts))
    except (ValueError, RecursionError):
        return None
    if not all(type(p) is dict and p.keys() == _FIELD_SET for p in payloads):
        return None
    if not _LIST.issuperset(map(type, [p[n] for p in payloads for n in _ARRAYS])):
        return None
    strings = [p[n] for p in payloads for n in _STRINGS]
    strings.extend(flag for p in payloads for flag in p["degenerate_flags"])
    floats = [x for p in payloads for n in _FLOAT_TUPLES for x in p[n]]
    floats.extend(p[n] for p in payloads for n in _FLOATS)
    floats.extend(v for p in payloads for n in _OPTIONAL_FLOATS if (v := p[n]) is not None)
    if (_STR.issuperset(map(type, strings))
            and _INT.issuperset(map(type, [p[n] for p in payloads for n in _INTEGERS]))
            and _FLOAT.issuperset(map(type, floats))
            and np.isfinite(np.array(floats)).all()):
        return payloads
    return None


def config_hash(config_dict: dict) -> str:
    """Stable short hash of a canonicalized configuration mapping."""
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"),
                       allow_nan=False, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
