"""Line-delimited run traces: one self-describing JSON object per iteration.

Each line carries the run metadata (id, method, cost kind, seed, config hash)
plus the full per-iteration observation: weights, raw losses, gradient norms,
the Gram upper triangle (row-major), and every derived metric.  Numeric fields
serialize with shortest-round-trip precision, so parse(serialize(line))
reproduces the exact binary values and identical runs produce byte-identical
files.  ``TraceLine`` converts every value once, whether it comes from a run
or from a file.  Parsing is strict: unknown fields and non-finite numbers
are rejected, and a truncated or malformed line reports what is missing.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

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
    for name in ("run_id", "method", "cost_kind", "config_hash"):
        if type(payload[name]) is not str:
            raise fail(f"field {name!r} must be a string")
    for name in ("seed", "iter"):
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


def write_trace(path, lines: Iterable[TraceLine]) -> int:
    """Write lines to ``path``; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(serialize_trace_line(line))
            fh.write("\n")
            count += 1
    return count


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


def config_hash(config_dict: dict) -> str:
    """Stable short hash of a canonicalized configuration mapping."""
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"),
                       allow_nan=False, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
