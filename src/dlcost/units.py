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
"""

from __future__ import annotations

import math
import re

KINDS = ("bandwidth", "flops_rate", "bytes")

_PREFIX = {"": 1.0, "k": 1e3, "K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12}

_NUM = r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
_BYTES_RE = re.compile(_NUM + r"\s*(?P<prefix>[kKMGT]?)(?P<unit>[bB])\Z")
_BANDWIDTH_RE = re.compile(_NUM + r"\s*(?P<prefix>[kKMGT]?)(?P<unit>[bB])(?P<rate>/s|ps)?\Z")
_FLOPS_RE = re.compile(_NUM + r"\s*(?P<prefix>[kKMGT]?)(?P<unit>[Ff][Ll][Oo][Pp][Ss]?)?(?P<rate>/s)?\Z")


class QuantityError(ValueError):
    """Raised for text that does not match the quantity grammar."""


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
    s = text.strip()
    if kind == "bytes":
        m = _BYTES_RE.fullmatch(s)
        if m is None:
            raise QuantityError(f"malformed byte size {text!r} (expected e.g. '204MB')")
        num, prefix, unit = m.groups()
        value = float(num) * _PREFIX[prefix]
        if unit == "b":
            value /= 8
        return value
    if kind == "bandwidth":
        m = _BANDWIDTH_RE.fullmatch(s)
        if m is None:
            raise QuantityError(f"malformed bandwidth {text!r} (expected e.g. '25Gbps' or '10GB/s')")
        num, prefix, unit, _rate = m.groups()
        value = float(num) * _PREFIX[prefix]
        if unit == "b":
            value /= 8
        if value <= 0:
            raise QuantityError(f"bandwidth must be positive, got {text!r}")
        return value
    # flops_rate
    m = _FLOPS_RE.fullmatch(s)
    num, prefix, unit, _rate = m.groups() if m else (None,) * 4
    if not (prefix or unit):
        raise QuantityError(f"malformed FLOPs rate {text!r} (expected e.g. '11TFLOPs')")
    value = float(num) * _PREFIX[prefix]
    if value <= 0:
        raise QuantityError(f"FLOPs rate must be positive, got {text!r}")
    return value


def parse_count(text: str) -> float:
    """Parse an operation count such as "1.56T" or "330.7GFLOPs" (no rate suffix)."""
    s = text.strip()
    m = _FLOPS_RE.fullmatch(s)
    num, prefix, unit, rate = m.groups() if m else (None,) * 4
    if rate or not (prefix or unit):
        raise QuantityError(f"malformed operation count {text!r} (expected e.g. '1.56T')")
    return float(num) * _PREFIX[prefix]


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
