"""Physical-quantity parsing and formatting.

Every quantity in the model is carried in canonical units: bytes,
bytes/second, and FLOPs/second.  Config files and trace records may
instead carry human-readable strings ("25Gbps", "10GB/s", "11TFLOPs",
"204MB"); this module converts between the two representations.

Conventions:
  * decimal SI prefixes (1 GB = 1e9 bytes, 1 TFLOPs = 1e12 FLOPs/s);
  * case disambiguates bits from bytes: ``b`` is bits, ``B`` is bytes;
    bit quantities are divided by 8 at parse time;
  * a rate suffix ("/s" or "ps") is optional on bandwidths and
    forbidden on plain byte sizes.

One table (``_GRAMMAR``) holds each text kind's regex, its name and
example for error messages, and whether its value must be positive;
``parse_quantity`` and ``parse_count`` read a value by it.
``parse_column`` reads a whole trace column of byte sizes or counts in
one regex pass when each value is in the plain form (no space, no rate
suffix), and refuses any other column, which the trace reader then
parses a line at a time.  The column regexes are built from the same
pieces as the table's, so the column form is a part of the per-value
grammar.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence

KINDS = ("bandwidth", "flops_rate", "bytes")

_PREFIX = {"": 1.0, "k": 1e3, "K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12}

_NUM = r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
_PREFIX_RE = r"(?P<prefix>[kKMGT]?)"
_BYTE_UNIT = r"(?P<unit>[bB])"
_FLOPS_UNIT = r"(?P<unit>[Ff][Ll][Oo][Pp][Ss]?)"
#: Per text kind: its regex, its name and example as the error messages
#: give them, and whether its value must be positive.  A count is the
#: FLOPs grammar without a rate suffix.
_GRAMMAR = {
    "bytes": (re.compile(_NUM + r"\s*" + _PREFIX_RE + _BYTE_UNIT),
              "byte size", "'204MB'", False),
    "bandwidth": (re.compile(_NUM + r"\s*" + _PREFIX_RE + _BYTE_UNIT + r"(?:/s|ps)?"),
                  "bandwidth", "'25Gbps' or '10GB/s'", True),
    "flops_rate": (re.compile(_NUM + r"\s*" + _PREFIX_RE + _FLOPS_UNIT + r"?(?:/s)?"),
                   "FLOPs rate", "'11TFLOPs'", True),
    "count": (re.compile(_NUM + r"\s*" + _PREFIX_RE + _FLOPS_UNIT + r"?"),
              "operation count", "'1.56T'", False),
}
#: One value per line of a column, each in the plain form: ASCII digits,
#: no space and no rate suffix, and a count with a prefix or a unit.
_COLUMN_RE = {
    "bytes": re.compile("^" + _NUM + _PREFIX_RE + _BYTE_UNIT + "$", re.ASCII | re.MULTILINE),
    # "(?!$)": the number is followed by a prefix or a unit.
    "count": re.compile("^" + _NUM + "(?!$)" + _PREFIX_RE + _FLOPS_UNIT + "?$",
                        re.ASCII | re.MULTILINE),
}
#: A column divides each value by its unit's bits: bits by 8 as
#: ``parse_quantity`` does, and bytes by 1.0, which leaves a float as it is.
_BITS = {"B": 1.0, "b": 8.0}


class QuantityError(ValueError):
    """Raised for text that does not match the quantity grammar."""


def _parse(text: str, kind: str) -> float:
    """Canonical value of ``text`` by the grammar of ``kind``: the number
    times its prefix, divided by 8 if its unit is bits."""
    regex, name, example, positive = _GRAMMAR[kind]
    m = regex.fullmatch(text.strip())
    num, prefix, unit = m.group("num", "prefix", "unit") if m else (None,) * 3
    # A FLOPs rate or count needs a prefix or a unit; a byte unit is required.
    if not (prefix or unit):
        raise QuantityError(f"malformed {name} {text!r} (expected e.g. {example})")
    value = float(num) * _PREFIX[prefix]
    if unit == "b":
        value /= 8
    if positive and value <= 0:
        raise QuantityError(f"{name} must be positive, got {text!r}")
    return value


def parse_quantity(text: str, kind: str) -> float:
    """Parse ``text`` into canonical units for the given ``kind``.

    kind="bytes"      -> bytes           ("204MB" -> 2.04e8)
    kind="bandwidth"  -> bytes/second    ("25Gbps" -> 3.125e9)
    kind="flops_rate" -> FLOPs/second    ("11TFLOPs" -> 1.1e13)

    Bandwidths and FLOPs rates must be strictly positive; byte sizes may
    be zero.  Raises QuantityError on malformed text or unknown units.
    """
    if kind not in KINDS:
        raise QuantityError(f"unknown quantity kind {kind!r}; expected one of {KINDS}")
    return _parse(text, kind)


def parse_count(text: str) -> float:
    """Parse an operation count such as "1.56T" or "330.7GFLOPs" (no rate suffix)."""
    return _parse(text, "count")


def parse_column(texts: Sequence[str], kind: str) -> list[float] | None:
    """``parse_quantity`` (``parse_count`` for kind="count") of each of
    ``texts``, a trace column of "bytes" or "count" strings, or None if a
    text is not in the plain form that ``_COLUMN_RE`` matches.

    One regex pass reads every text of the joined column; each value
    then takes the float operations of the per-value parser, in its
    order.  A column holding a newline inside a text is refused, since
    its lines would no longer be its texts.
    """
    text = "\n".join(texts)
    if text.count("\n") != len(texts) - 1:
        return None
    found = _COLUMN_RE[kind].findall(text)
    if len(found) != len(texts):
        return None
    if kind == "count":
        return [float(num) * _PREFIX[prefix] for num, prefix, _ in found]
    return [float(num) * _PREFIX[prefix] / _BITS[unit] for num, prefix, unit in found]


def format_quantity(value: float, kind: str) -> str:
    """Render a canonical value so that parse_quantity round-trips it exactly."""
    if kind not in KINDS:
        raise QuantityError(f"unknown quantity kind {kind!r}; expected one of {KINDS}")
    if not math.isfinite(value) or value < 0:
        raise QuantityError(f"cannot format {value!r} as a {kind}")
    if kind != "bytes" and value <= 0:
        raise QuantityError(f"{kind} must be positive, got {value!r}")
    suffix = {"bytes": "B", "bandwidth": "B/s", "flops_rate": "FLOPs"}[kind]
    return f"{value:.17g}{suffix}"
