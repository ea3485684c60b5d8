"""Tabular report construction and deterministic emission.

A report is a fixed column order, rows of scalar cells, and metadata
sufficient to re-run the producing analysis (hardware profile,
efficiency model, overlap mode, tool version, input digest).  Emission
is byte-deterministic: floats are serialized with 9 significant digits
in both CSV and JSON, so the two formats parse to identical values.
Non-finite floats (an infinite speedup) have no standard JSON form and
are emitted as missing values: ``null`` in JSON, an empty CSV cell.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator, Mapping, Sequence

from . import __version__
from .core import EfficiencyModel, HardwareProfile, OverlapMode

FORMATS = ("csv", "json")


def round9(value: float) -> float:
    """Round to 9 significant digits (the emission precision)."""
    return float(f"{value:.9g}")


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}" if math.isfinite(value) else ""
    return str(value)


#: Characters that make a CSV field quoted.
_CSV_QUOTED = re.compile(r'[,"\r\n]')


def _csv_field(value: Any) -> str:
    """A CSV field: the cell, quoted if it holds a comma, a quote or a line break."""
    if isinstance(value, str) and _CSV_QUOTED.search(value):
        return '"' + value.replace('"', '""') + '"'
    return _csv_cell(value)


#: A line break (anything ``str.splitlines`` splits on) or a lone surrogate,
#: which UTF-8 cannot encode.
_COMMENT_UNSAFE = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029\ud800-\udfff]")


def _comment_value(value: Any) -> str:
    """A metadata value for a CSV comment line: the cell text, or, if that
    would break the line or not encode, the text as a JSON string literal."""
    text = _csv_cell(value)
    return json.dumps(text) if _COMMENT_UNSAFE.search(text) else text


#: Encodes a cell as it is written inside a row of ``json.dumps(indent=2)``'s
#: layout (a list or dict cell keeps the row's item separator).
_JSON_CELL = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False)


def _json_text(value: Any) -> str:
    """One cell's JSON text: a float to 9 significant digits, or ``null``
    when it is not finite."""
    if isinstance(value, float):
        return repr(round9(value)) if math.isfinite(value) else "null"
    return "null" if value is None else _JSON_CELL.encode(value)


def model_metadata(model: HardwareProfile | EfficiencyModel) -> dict[str, float]:
    """Every field of a hardware profile or efficiency model, in declaration order."""
    return {f.name: round9(getattr(model, f.name)) for f in fields(model)}


def input_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Report:
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    metadata: Mapping[str, Any]


def build_report(kind: str, columns: Mapping[str, Sequence[Any]],
                 hw: HardwareProfile, eff: EfficiencyModel, overlap: OverlapMode,
                 source: str, digest: str,
                 extra_metadata: Mapping[str, Any] | None = None) -> Report:
    """A report of the named columns, each holding one value per row, in order."""
    lengths = {name: len(values) for name, values in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"report columns differ in length: {lengths}")
    metadata: dict[str, Any] = {
        "kind": kind,
        "tool_version": __version__,
        "hardware": model_metadata(hw),
        "efficiency": model_metadata(eff),
        "overlap": overlap.value,
        "input": {"source": source, "sha256": digest},
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return Report(columns=tuple(columns), rows=tuple(zip(*columns.values())), metadata=metadata)


def _flatten_metadata(meta: Mapping[str, Any], prefix: str = "") -> list[tuple[str, Any]]:
    items = []
    for key, value in meta.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            items.extend(_flatten_metadata(value, prefix=f"{name}."))
        else:
            items.append((name, value))
    return items


#: Rows formatted at a time.  Formatting a column at a time, in chunks,
#: bounds the formatted cells held at once to this many rows.
EMIT_CHUNK_ROWS = 2048


def _chunks(rows: Sequence[tuple]) -> Iterator[tuple[int, list[tuple]]]:
    """Each chunk's row count and its columns."""
    for start in range(0, len(rows), EMIT_CHUNK_ROWS):
        chunk = rows[start:start + EMIT_CHUNK_ROWS]
        yield len(chunk), list(zip(*chunk))


def _csv_column(values: tuple) -> Sequence[str]:
    """The CSV fields of one column: one rule for the column when its cells
    share a type, otherwise ``_csv_field`` per cell."""
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return [f"{v:.9g}" for v in values]
    if kinds == {str} and not _CSV_QUOTED.search("".join(values)):
        return values
    if kinds == {int}:
        return list(map(str, values))
    if kinds == {bool}:
        return ["true" if v else "false" for v in values]
    if kinds == {type(None)}:
        return [""] * len(values)
    return list(map(_csv_field, values))


def _csv_text(n_rows: int, fields: Sequence[Sequence[str]]) -> str:
    """The CSV lines of ``n_rows`` rows, given each column's fields."""
    if len(fields) == 1:
        # A lone empty field is quoted so that its row is not a blank line.
        lines = [field or '""' for field in fields[0]]
    else:
        lines = map(",".join, zip(*fields)) if fields else [""] * n_rows
    return "\n".join(lines) + "\n"


def _json_column(values: tuple) -> Sequence[str]:
    """The JSON text of one column's cells, chosen as ``_csv_column`` does."""
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return [repr(float(f"{v:.9g}")) for v in values]
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {bool}:
        return ["true" if v else "false" for v in values]
    if kinds == {type(None)}:
        return ["null"] * len(values)
    return list(map(_json_text, values))


def emit(report: Report, format: str = "csv") -> bytes:
    """Serialize a report. CSV prefixes metadata as '# key: value' comments."""
    # Text is encoded as it is written, a chunk at a time, so the whole
    # report is never held as text beside its bytes; the parts are joined
    # once at the end.  (A buffer grown as it is written, such as BytesIO,
    # is reallocated as it grows, and whether a reallocation copies, and so
    # briefly holds the report twice, depends on the heap's layout: the
    # peak memory would swing from one run to the next.)
    parts: list[bytes] = []

    def write(text: str) -> None:
        parts.append(text.encode("utf-8"))

    if format == "csv":
        for key, value in _flatten_metadata(report.metadata):
            write(f"# {key}: {_comment_value(value)}\n")
        write(_csv_text(1, [[_csv_field(c)] for c in report.columns]))
        for n_rows, columns in _chunks(report.rows):
            write(_csv_text(n_rows, [_csv_column(c) for c in columns]))
    elif format == "json":
        # The rows, the bulk of the bytes, are spliced into the frame that
        # ``indent=2`` gives, each row through one template of its keys.
        head = json.dumps({"metadata": report.metadata, "columns": list(report.columns)},
                          indent=2, allow_nan=False)
        write(f'{head[:-2]},\n  "rows": ')
        items = ",\n      ".join(encode_basestring_ascii(c).replace("{", "{{").replace("}", "}}")
                                  + ": {}" for c in report.columns)
        row = f"{{{{\n      {items}\n    }}}}".format
        sep = "[\n    "
        for n_rows, columns in _chunks(report.rows):
            rows = map(row, *map(_json_column, columns)) if columns else ["{}"] * n_rows
            write(sep)
            write(",\n    ".join(rows))
            sep = ",\n    "
        write("\n  ]\n}\n" if report.rows else "[]\n}\n")
    else:
        raise ValueError(f"unknown report format {format!r} (expected one of {FORMATS})")
    return b"".join(parts)
