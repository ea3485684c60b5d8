"""Tabular report construction and deterministic emission.

A report is a fixed column order, rows of scalar cells, and metadata
sufficient to re-run the producing analysis (hardware profile,
efficiency model, overlap mode, tool version, input digest).  The rows
come in blocks, and a block holds columns, not rows: each column holds
either one cell per row or one fixed cell that every row of the block
shares (a sweep's setting, say), which is stored and formatted once per
block; the other columns are formatted a chunk of rows at a time, and
no cell's text outlives its chunk.  Emission reads only the block it is
writing, and builds no row tuple.  It is byte-deterministic, by one
table of rules per format, keyed by cell type, that turns a column of
cells into their text.  Floats are written with 9 significant digits
in both CSV and JSON, so the two formats parse to identical values.
Non-finite floats (an infinite speedup) have no standard JSON form:
they, and ``None``, are missing values (``null`` in JSON, an empty CSV
cell), and take the float rule.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from contextlib import suppress
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

from . import __version__
from .core import EfficiencyModel, HardwareProfile, OverlapMode

FORMATS = ("csv", "json")


def round9(value: float) -> float:
    """Round to 9 significant digits (the emission precision)."""
    return float(f"{value:.9g}")


#: A formatting rule: the text of each cell of a column of cells it takes.
Rule = Callable[[Sequence[Any]], Sequence[str]]


def _csv_floats(values: Sequence[Any]) -> Sequence[str]:
    """Each cell's 9-digit text, or an empty field for a missing or non-finite cell."""
    finite_only = False
    with suppress(TypeError):  # raised by a missing cell
        finite_only = all(map(math.isfinite, values))
    if finite_only:
        return [f"{v:.9g}" for v in values]
    return [f"{v:.9g}" if v is not None and math.isfinite(v) else "" for v in values]


#: The least positive normal double.  Below it, a 9-digit text need not
#: have the digits of ``repr`` of the double it rounds to.
_NORMAL_MIN = sys.float_info.min


def _json_exponent(text: str, value: float) -> str:
    """The JSON text of ``value``, given its 9-digit ``text`` in exponent
    form: ``repr`` of the double that ``text`` rounds to where the layouts
    differ (``e+``: ``repr`` writes 1e+09 to 1e+15 positionally) or the
    digits may (a subnormal value), otherwise ``text`` as it is."""
    if "e+" in text or 0 < abs(value) < _NORMAL_MIN:
        return repr(float(text))
    return text


def _json_floats(values: Sequence[Any]) -> Sequence[str]:
    """Each cell's ``repr(float(f"{v:.9g}"))``, or ``null`` for a missing or
    non-finite cell, in one pass over the 9-digit texts.

    For a normal double, two decimals of at most 15 significant digits
    never round to one double, so ``repr`` of the double a 9-digit text
    rounds to has that text's digits, and only the layout can differ: a
    positional text without a point gets ``.0`` (``123.0``, ``-0.0``), and
    an exponent text is left to ``_json_exponent``.  ``inf``, ``-inf`` and
    ``nan``, the only texts ending in a letter, are ``null``."""
    return [(_json_exponent(t, v) if "e" in t else t if "." in t
             else "null" if t[-1] in "fn" else t + ".0")
            if (t := v is not None and f"{v:.9g}") else "null" for v in values]


def _bools(values: Sequence[bool]) -> Sequence[str]:
    return ["true" if v else "false" for v in values]


#: Characters that make a CSV field quoted.
_CSV_QUOTED = re.compile(r'[,"\r\n]')


def _csv_strs(values: Sequence[str]) -> Sequence[str]:
    """Text as it is, quoted if it holds a comma, a quote or a line break."""
    if not _CSV_QUOTED.search("".join(values)):
        return values
    return ['"' + v.replace('"', '""') + '"' if _CSV_QUOTED.search(v) else v for v in values]


#: Each format's rules, in ``isinstance`` order: a cell of a type with no
#: rule of its own takes the first rule whose type it is an instance of.
_CSV_RULES: dict[type, Rule] = {
    **dict.fromkeys((type(None), float), _csv_floats),
    bool: _bools, str: _csv_strs, object: lambda values: list(map(str, values))}
_JSON_RULES: dict[type, Rule] = {
    **dict.fromkeys((type(None), float), _json_floats),
    bool: _bools, int: lambda values: list(map(int.__repr__, values)),
    str: lambda values: list(map(encode_basestring_ascii, values)),
    object: lambda values: list(map(json.dumps, values))}


def _texts(rules: Mapping[type, Rule], values: Sequence[Any]) -> Sequence[str]:
    """The text of a column's cells: one call of their rule when the cells
    share one, otherwise a call per cell."""
    rule_of = {kind: next(rule for base, rule in rules.items() if issubclass(kind, base))
               for kind in set(map(type, values))}
    if len(set(rule_of.values())) == 1:
        return next(iter(rule_of.values()))(values)
    return [rule_of[type(v)]((v,))[0] for v in values]


#: A line break (anything ``str.splitlines`` splits on) or a lone surrogate,
#: which UTF-8 cannot encode.
_COMMENT_UNSAFE = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029\ud800-\udfff]")


def _comment_value(value: Any) -> str:
    """A metadata value for a CSV comment line: its unquoted cell text, or, if
    that would break the line or not encode, the text as a JSON string."""
    text = str(value) if isinstance(value, str) else _texts(_CSV_RULES, (value,))[0]
    return json.dumps(text) if _COMMENT_UNSAFE.search(text) else text


def model_metadata(model: HardwareProfile | EfficiencyModel) -> dict[str, float]:
    """Every field of a hardware profile or efficiency model, in declaration order."""
    return {f.name: round9(getattr(model, f.name)) for f in fields(model)}


def input_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Fixed(NamedTuple):
    """One cell that every row of a block shares, given in place of a column's values."""

    value: Any


class Block(NamedTuple):
    """A block's row count and, in column order, each column's cells: one
    per row, or a ``Fixed`` cell that every row of the block shares."""

    n_rows: int
    columns: tuple[Sequence[Any] | Fixed, ...]


@dataclass(frozen=True)
class Report:
    columns: tuple[str, ...]
    blocks: tuple[Block, ...]
    metadata: Mapping[str, Any]

    @property
    def rows(self) -> "_Rows":
        return _Rows(self)


class _Rows:
    """A sized view of a report's rows, block by block."""

    def __init__(self, report: Report) -> None:
        self.report = report

    def __len__(self) -> int:
        return sum(n_rows for n_rows, _ in self.report.blocks)


def build_report(kind: str, blocks: Sequence[Mapping[str, Any]],
                 hw: HardwareProfile, eff: EfficiencyModel, overlap: OverlapMode,
                 source: str, digest: str,
                 extra_metadata: Mapping[str, Any] | None = None) -> Report:
    """A report of row blocks, in order.  Each block maps every column name,
    in report order, to one value per row or to a ``Fixed`` cell; at least
    one column per block holds one value per row, so that the block has a
    row count."""
    columns = tuple(blocks[0])
    built = []
    for block in blocks:
        if tuple(block) != columns:
            raise ValueError(f"report blocks differ in columns: {tuple(block)} and {columns}")
        lengths = {name: len(v) for name, v in block.items() if not isinstance(v, Fixed)}
        if not lengths:
            raise ValueError(f"report block has no per-row column: {columns}")
        if len(set(lengths.values())) > 1:
            raise ValueError(f"report columns differ in length: {lengths}")
        built.append(Block(next(iter(lengths.values())), tuple(block.values())))
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
    return Report(columns=columns, blocks=tuple(built), metadata=metadata)


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
#: bounds the formatted cells held at once to this many rows: no cell's
#: text outlives its chunk.
EMIT_CHUNK_ROWS = 2048


def _chunks(report: Report, rules: Mapping[type, Rule],
            text: Callable[[int, list[Sequence[str]]], str]) -> Iterator[bytes]:
    """Each chunk's ``text(n_rows, columns)`` of its columns' texts by
    ``rules``, encoded: a block's fixed cells are formatted once per block,
    each other column's slice once per chunk."""
    for n_rows, columns in report.blocks:
        fixed = {i: _texts(rules, (c.value,))[0] for i, c in enumerate(columns)
                 if isinstance(c, Fixed)}
        for start in range(0, n_rows, EMIT_CHUNK_ROWS):
            stop = min(start + EMIT_CHUNK_ROWS, n_rows)
            yield text(stop - start, [[fixed[i]] * (stop - start) if i in fixed
                                      else _texts(rules, column[start:stop])
                                      for i, column in enumerate(columns)]).encode("utf-8")


def _csv_text(n_rows: int, fields: Sequence[Sequence[str]]) -> str:
    """The CSV lines of ``n_rows`` rows, given each column's fields."""
    if len(fields) == 1:
        # A lone empty field is quoted so that its row is not a blank line.
        lines = [field or '""' for field in fields[0]]
    else:
        lines = map(",".join, zip(*fields)) if fields else [""] * n_rows
    return "\n".join(lines) + "\n"


def emit(report: Report, format: str = "csv") -> bytes:
    """Serialize a report. CSV prefixes metadata as '# key: value' comments."""
    # Text is encoded as it is written, a chunk at a time, and the parts are
    # joined once at the end.  (Whether a growing BytesIO copies as it grows
    # depends on the heap's layout, so its peak memory would swing.)
    parts: list[bytes] = []

    def write(text: str) -> None:
        parts.append(text.encode("utf-8"))

    if format == "csv":
        for key, value in _flatten_metadata(report.metadata):
            write(f"# {key}: {_comment_value(value)}\n")
        write(_csv_text(1, [[c] for c in _texts(_CSV_RULES, report.columns)]))
        parts += _chunks(report, _CSV_RULES, _csv_text)
    elif format == "json":
        # The rows, the bulk of the bytes, are spliced into the frame that
        # ``indent=2`` gives, each row's cell texts (floats from
        # ``_json_floats``' one pass) through one ``%`` template of its keys,
        # every ``%`` in a key doubled.
        head = json.dumps({"metadata": report.metadata, "columns": list(report.columns)},
                          indent=2, allow_nan=False)
        write(f'{head[:-2]},\n  "rows": ')
        items = ",\n      ".join(encode_basestring_ascii(c).replace("%", "%%") + ": %s"
                                  for c in report.columns)
        row = f"{{\n      {items}\n    }}".__mod__

        def rows(n_rows: int, columns: list[Sequence[str]]) -> str:
            return ",\n    ".join(map(row, zip(*columns)) if columns else ["{}"] * n_rows)

        wrote = False
        for data in _chunks(report, _JSON_RULES, rows):
            parts += (b",\n    " if wrote else b"[\n    ", data)
            wrote = True
        write("\n  ]\n}\n" if wrote else "[]\n}\n")
    else:
        raise ValueError(f"unknown report format {format!r} (expected one of {FORMATS})")
    return b"".join(parts)
