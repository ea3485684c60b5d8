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
import io
import json
import math
import re
from dataclasses import dataclass, fields
from typing import Any, Mapping, Sequence

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


def _json_cell(value: Any):
    if isinstance(value, float):
        return round9(value) if math.isfinite(value) else None
    return value


#: Encodes a row dict with its items laid out as ``json.dumps(indent=2)`` does.
_JSON_ROW = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False)


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


def build_report(kind: str, columns: Sequence[str], rows: Sequence[tuple[Any, ...]],
                 hw: HardwareProfile, eff: EfficiencyModel, overlap: OverlapMode,
                 source: str, digest: str,
                 extra_metadata: Mapping[str, Any] | None = None) -> Report:
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
    return Report(columns=tuple(columns), rows=tuple(rows), metadata=metadata)


def _flatten_metadata(meta: Mapping[str, Any], prefix: str = "") -> list[tuple[str, Any]]:
    items = []
    for key, value in meta.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            items.extend(_flatten_metadata(value, prefix=f"{name}."))
        else:
            items.append((name, value))
    return items


def emit(report: Report, format: str = "csv") -> bytes:
    """Serialize a report. CSV prefixes metadata as '# key: value' comments."""
    if format == "csv":
        buf = io.StringIO()
        for key, value in _flatten_metadata(report.metadata):
            buf.write(f"# {key}: {_comment_value(value)}\n")
        for row in (report.columns, *report.rows):
            line = ",".join([_csv_field(value) for value in row])
            # A lone empty field is quoted so that its row is not a blank line.
            buf.write(f"{line}\n" if line or len(row) != 1 else '""\n')
        return buf.getvalue().encode("utf-8")
    if format == "json":
        # The rows, the bulk of the bytes, go through the C encoder, which
        # ``indent`` would bypass, and are spliced into the indented frame.
        head = json.dumps({"metadata": report.metadata, "columns": list(report.columns)},
                          indent=2, allow_nan=False)
        columns = report.columns
        if columns:
            encode = _JSON_ROW.encode
            rows = ["{\n      " + encode({col: _json_cell(value)
                                              for col, value in zip(columns, row)})[1:-1]
                    + "\n    }" for row in report.rows]
        else:
            rows = ["{}"] * len(report.rows)
        body = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
        return f'{head[:-2]},\n  "rows": {body}\n}}\n'.encode("utf-8")
    raise ValueError(f"unknown report format {format!r} (expected one of {FORMATS})")
