"""Line-delimited run traces: one self-describing JSON object per iteration.

Each line carries the run metadata (id, method, cost kind, seed, config hash)
plus the full per-iteration observation: weights, raw losses, gradient norms,
the Gram upper triangle (row-major), and every derived metric.  Numeric fields
serialize with shortest-round-trip precision, so parse(serialize(line))
reproduces the exact binary values and identical runs produce byte-identical
files.  ``write_trace`` writes a run's columns in blocks of lines, byte for
byte what one ``serialize_trace_line`` per line would write.  ``TraceLine``'s
fields declare the format; it converts every value once, from a file or from
Python values.  Parsing is strict: unknown fields and non-finite numbers are
rejected, and a truncated or malformed line reports what is missing.
``read_trace_columns`` reads chosen fields as columns under the same rules,
checking blocks of lines at once and leaving every error to
``parse_trace_line``.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import Iterator, Mapping, Sequence

import numpy as np

_MAX_FLOAT = sys.float_info.max
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
        for name, (_, array, nullable, element, _) in _FIELD_KINDS.items():
            value = getattr(self, name)
            if array:
                object.__setattr__(self, name, tuple(map(element, value)))
            elif element is float and not (nullable and value is None):
                object.__setattr__(self, name, float(value))


#: Each kind of field by its annotation, in the order the parser checks them:
#: its fields, whether it is an array, whether it may be null, the type of a
#: converted value (or element) and what the parser says a value must be.
_KINDS = {kind: (tuple(f.name for f in fields(TraceLine) if f.type == kind),
                 kind.startswith("tuple["), kind.endswith(" | None"), element, what)
          for kind, element, what in (
              ("str", str, "a string"),
              ("int", int, "an integer"),
              ("tuple[float, ...]", float, "an array of numbers"),
              ("float | None", float, "a number or null"),
              ("float", float, "a number"),
              ("tuple[str, ...]", str, "an array of strings"))}
#: The kind of each field, in serialized order; a field of no kind is a KeyError.
_FIELD_KINDS = {f.name: _KINDS[f.type] for f in fields(TraceLine)}
#: Exact serialized field order.  Metadata first, then the per-iteration payload.
TRACE_FIELDS = tuple(_FIELD_KINDS)
#: The fields a run's columns hold as floats: ``weights`` to ``rl_std``.
_FLOAT_COLUMNS = tuple(name for name, (_, _, _, element, _) in _FIELD_KINDS.items()
                       if element is float)


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
    except RecursionError:
        raise TraceParseError(f"{where}invalid JSON (nested too deeply)") from None
    if not isinstance(payload, dict):
        raise TraceParseError(f"{where}trace line must be a JSON object")
    unknown = set(payload) - set(TRACE_FIELDS)
    if unknown:
        raise TraceParseError(f"{where}unknown field(s): {', '.join(sorted(unknown))}")
    missing = [name for name in TRACE_FIELDS if name not in payload]
    if missing:
        raise TraceParseError(f"{where}missing field(s): {', '.join(missing)}")

    # json.loads yields exact int/float/str/list/bool/None, so exact type
    # tests suffice and keep bool (an int subclass) out.  A float field takes
    # an int too; NaN, ±inf (json.loads reads 1e999 as inf) and ints past the
    # double range fail it, as int/float comparisons are exact and NaN
    # compares false.
    for names, array, nullable, element, what in _KINDS.values():
        types = {int, float} if element is float else {element}
        for name in names:
            value = payload[name]
            if nullable and value is None:
                continue
            values = value if array else (value,)
            if array and type(value) is not list or not types.issuperset(map(type, values)):
                raise TraceParseError(f"{where}field {name!r} must be {what}")
            if element is float and not all(map(_MAX_FLOAT.__ge__, map(abs, values))):
                raise TraceParseError(
                    f"{where}field {name!r} must be finite and within the double range")
    return TraceLine(**payload)


def write_trace(path, meta: Sequence, columns: Mapping) -> int:
    """Write the trace of ``meta``, the five metadata values, and ``columns``,
    the fields ``iter`` to ``degenerate_flags`` by name: (T,) or (T, n) arrays
    with NaN for a null pair mean, and a tuple of flags per row.  Returns T.

    Every line fills one ``%`` template, a block of ``_BLOCK_LINES`` rows at
    a time; ``%r`` of a float is what ``json.dumps`` writes, and the first
    line must equal :func:`serialize_trace_line` of its values.  A ``meta``
    value not of its field's exact type (``str`` or ``int``), or a non-finite
    value other than a null, raises ValueError naming the field.  Lines go to
    ``path + ".tmp"``, renamed onto ``path`` once all are written, removed on error.
    """
    meta_fields = TRACE_FIELDS[:TRACE_FIELDS.index("iter")]
    if len(meta) != len(meta_fields):
        raise ValueError(f"trace meta must hold {len(meta_fields)} values "
                         f"({', '.join(meta_fields)}), got {len(meta)}")
    for name, value in zip(meta_fields, meta):
        _, _, _, element, what = _FIELD_KINDS[name]
        if type(value) is not element:
            raise ValueError(f"trace meta field {name!r} must be {what}, got {value!r}")
    floats = {name: np.asarray(columns[name], dtype=float) for name in _FLOAT_COLUMNS}
    template = json.dumps(dict(zip(TRACE_FIELDS, meta)), separators=(",", ":"))[:-1]
    template = template.replace("%", "%%") + ',"iter":%d'
    owners, nulls = [], []            # each stacked column's field; the nullable columns
    for name, column in floats.items():
        _, array, nullable, _, _ = _FIELD_KINDS[name]
        if nullable:
            nulls.append(len(owners))
        slot = "%s" if nullable else "%r"
        width = column.shape[1] if array else 0
        template += f',"{name}":' + (f"[{','.join([slot] * width)}]" if width else slot)
        owners += [name] * max(width, 1)
    template += ',"degenerate_flags":%s}\n'
    iters, flags = np.asarray(columns["iter"]), columns["degenerate_flags"]
    flag_texts = {f: json.dumps(f, separators=(",", ":")) for f in set(flags)}
    tmp = os.fspath(path) + ".tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
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
                    first = {n: c[0].tolist() for n, c in floats.items()}
                    first.update((owners[i], None) for i in nulls if rows[0][i] == "null")
                    if texts[0] != serialize_trace_line(TraceLine(
                            *meta, int(iters[0]), **first, degenerate_flags=flags[0])) + "\n":
                        raise RuntimeError(
                            "trace writer: first line differs from serialize_trace_line")
                fh.write("".join(texts))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
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
        payloads = [vars(parse_trace_line(text, line_number=i)) for i, text in block]
    for name, column in columns.items():
        values = (p[name] for p in payloads)
        array = _FIELD_KINDS[name][1]
        column.extend(map(tuple, values) if array else values)


def _checked_payloads(texts: list[str]) -> list[dict] | None:
    """The decoded lines when every one holds exactly the trace fields, with
    exact types, only ``float`` numbers (an int may be past the double
    range) and finite ones; otherwise None."""
    try:
        payloads = list(map(json.loads, texts))
    except (ValueError, RecursionError):
        return None
    if not all(type(p) is dict and p.keys() == _FIELD_KINDS.keys() for p in payloads):
        return None
    values = {str: [], int: [], float: []}       # by the type they must have
    for names, array, nullable, element, _ in _KINDS.values():
        column = [p[n] for p in payloads for n in names]
        if array:
            if not {list}.issuperset(map(type, column)):
                return None
            column = [x for v in column for x in v]
        elif nullable:
            column = [v for v in column if v is not None]
        values[element].extend(column)
    if (all({t}.issuperset(map(type, column)) for t, column in values.items())
            and np.isfinite(np.array(values[float])).all()):
        return payloads
    return None


def config_hash(config_dict: dict) -> str:
    """Stable short hash of a canonicalized configuration mapping."""
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"),
                       allow_nan=False, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
