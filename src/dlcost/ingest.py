"""Trace and configuration I/O.

Traces are newline-delimited JSON, one record per line, with snake_case
keys mirroring WorkloadRecord.  Quantities may be plain numbers in
canonical units or unit strings ("357MB", "1.56T"); writing always emits
canonical numbers so a written trace reloads bit-exactly.

Hardware profiles come from built-in presets or flat key = value files
with unit-string values; the DLCOST_HW_DIR environment variable prepends
a directory to the preset search path.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .core import (
    RECORD_QUANTITIES,
    ArchitectureKind,
    EfficiencyModel,
    HardwareProfile,
    WorkloadRecord,
    check_range,
    placed_cnodes,
    record_errors,
)
from .corpus import measured_efficiency
from .units import QuantityError, parse_count, parse_quantity

PathLike = Union[str, Path]


class TraceFormatError(ValueError):
    """A trace line (or config file) could not be interpreted."""


@dataclass(frozen=True)
class TraceError:
    line: int
    message: str


_TRACE_KEYS = frozenset(f.name for f in fields(WorkloadRecord))
_QUANTITY_KINDS = tuple((f.name, f.metadata["kind"]) for f in RECORD_QUANTITIES)
_ARCH_BY_LABEL = {arch.value: arch for arch in ArchitectureKind}
_FLOAT_MAX = sys.float_info.max
_INF = math.inf
_RAW_DECODE = json.JSONDecoder().raw_decode
#: ``parse_trace`` splits its text into lines this many characters (plus
#: the rest of a line) at a time, so it never holds a list of every line.
_BLOCK_CHARS = 1 << 16


def _coerce_int(value, name: str) -> int:
    if isinstance(value, bool):
        raise TraceFormatError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TraceFormatError(f"{name} must be an integer, got {value!r}")


def _coerce_quantity(value, name: str, kind: str) -> float:
    """Canonical value of a trace quantity: a number, or a unit string of
    the field's ``kind``."""
    if isinstance(value, str):
        return parse_count(value) if kind == "count" else parse_quantity(value, kind)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        form = "count" if kind == "count" else "unit"
        raise TraceFormatError(f"{name} must be a number or {form} string, got {value!r}")
    return float(value)


def record_from_dict(obj: dict) -> WorkloadRecord:
    """Build and validate a WorkloadRecord from one trace object."""
    if not isinstance(obj, dict):
        raise TraceFormatError(f"expected a JSON object, got {type(obj).__name__}")
    if not _TRACE_KEYS.issuperset(obj):
        unknown = next(key for key in obj if key not in _TRACE_KEYS)
        raise TraceFormatError(f"unknown field {unknown!r}")
    try:
        job_id = obj["job_id"]
        if not isinstance(job_id, str):
            raise TraceFormatError(f"job_id must be a string, got {job_id!r}")
        arch = ArchitectureKind.from_label(obj["arch"])
        kwargs = dict(
            job_id=job_id,
            arch=arch,
            num_cnodes=_coerce_int(obj["num_cnodes"], "num_cnodes"),
            batch_size=_coerce_int(obj["batch_size"], "batch_size"),
        )
        for name, kind in _QUANTITY_KINDS:
            kwargs[name] = _coerce_quantity(obj[name], name, kind)
        measured = obj.get("measured_step_seconds")
        if measured is not None:
            if isinstance(measured, bool) or not isinstance(measured, (int, float)):
                raise TraceFormatError(
                    f"measured_step_seconds must be a number, got {measured!r}")
            kwargs["measured_step_seconds"] = float(measured)
    except KeyError as exc:
        raise TraceFormatError(f"missing field {exc.args[0]!r}") from None
    # OverflowError: an integer too large for a float.
    except (QuantityError, ValueError, OverflowError) as exc:
        raise TraceFormatError(str(exc)) from None
    notes = obj.get("notes")
    if notes is not None:
        if not isinstance(notes, dict):
            raise TraceFormatError(f"notes must be an object, got {notes!r}")
        kwargs["notes"] = _share_keys(notes)
    rec = WorkloadRecord(**kwargs)
    errors = record_errors(rec)
    if errors:
        raise TraceFormatError("; ".join(errors))
    return rec


def record_to_dict(rec: WorkloadRecord) -> dict:
    """Canonical-unit JSON object for one record (inverse of record_from_dict)."""
    obj = {}
    for f in fields(rec):
        value = getattr(rec, f.name)
        if value is not None:  # an optional field left unset has no key
            obj[f.name] = value
    obj["arch"] = rec.arch.value
    if rec.notes is not None:
        obj["notes"] = dict(rec.notes)
    return obj


def _share_keys(notes: dict) -> dict:
    """A copy of ``notes`` whose str keys are the one shared copy of each
    key (``sys.intern``), so records that repeat a key hold it once; a key
    is freed once no record holds it."""
    return {sys.intern(key) if type(key) is str else key: value
            for key, value in notes.items()}


def _decode_line(line: str):
    """``json.loads(line)`` for a stripped, non-blank line.

    The C scanner decodes a line that is one JSON value; anything else,
    including every error, goes to ``json.loads`` for its exact result or
    message.
    """
    try:
        obj, end = _RAW_DECODE(line)
    except (ValueError, RecursionError):
        end = -1
    return obj if end == len(line) else json.loads(line)


def _screen_record(obj) -> Optional[WorkloadRecord]:
    """The record ``record_from_dict(obj)`` returns, for a clean object.

    A clean object has every required field and no unknown one, a str
    ``job_id`` of ASCII, a known ``arch`` label, int cNodes and batch size
    within the architecture's rules, quantities that are floats, ints or
    unit strings with a finite non-negative value, and, if given, a
    positive finite measured step time and finite numeric notes: a subset
    of what ``record_from_dict`` accepts, each value converted as it does.
    Every other object gets None: ``record_from_dict`` then builds it or
    names what is wrong, so it stays the one source of every rejection
    message.
    """
    if type(obj) is not dict or not _TRACE_KEYS.issuperset(obj):
        return None
    job_id = obj.get("job_id")
    label = obj.get("arch")
    num_cnodes = obj.get("num_cnodes")
    batch_size = obj.get("batch_size")
    if not (type(job_id) is str and job_id.isascii() and type(label) is str
            and type(num_cnodes) is int and type(batch_size) is int
            and 1 <= num_cnodes <= _FLOAT_MAX and 1 <= batch_size <= _FLOAT_MAX):
        return None
    arch = _ARCH_BY_LABEL.get(label)
    if arch is None or placed_cnodes(arch, num_cnodes) != num_cnodes:
        return None
    values = []
    for name, kind in _QUANTITY_KINDS:
        value = obj.get(name)
        kind_of = type(value)
        if kind_of is int:
            if not 0 <= value <= _FLOAT_MAX:
                return None
            value = float(value)
        elif kind_of is str:
            try:
                value = parse_count(value) if kind == "count" else parse_quantity(value, kind)
            except QuantityError:
                return None
        elif kind_of is not float:
            return None
        if not 0.0 <= value < _INF:
            return None
        values.append(value)
    flops, mem_access, input_bytes, weight_traffic, dense, embedding = values
    if arch is ArchitectureKind.ONE_WORKER_ONE_GPU and weight_traffic != 0:
        return None
    measured = obj.get("measured_step_seconds")
    if measured is not None:
        if type(measured) is int and 0 < measured <= _FLOAT_MAX:
            measured = float(measured)
        elif not (type(measured) is float and 0.0 < measured < _INF):
            return None
    notes = obj.get("notes")
    if notes is not None:
        if type(notes) is not dict:
            return None
        for value in notes.values():
            if not (type(value) is int or (type(value) is float and -_INF < value < _INF)):
                return None
        notes = _share_keys(notes)
    return WorkloadRecord(job_id, arch, num_cnodes, batch_size, flops, mem_access, input_bytes,
                          weight_traffic, dense, embedding, measured, notes)


def _lines(text: str) -> Iterator[str]:
    """The items of ``text.split("\n")``, split a block at a time: each
    block ends at the first line feed ``_BLOCK_CHARS`` past its start."""
    start = 0
    while (end := text.find("\n", start + _BLOCK_CHARS)) >= 0:
        yield from text[start:end].split("\n")
        start = end + 1
    yield from text[start:].split("\n")


def parse_trace(text: str, strict: bool = False,
                source: str = "<trace>") -> tuple[tuple[WorkloadRecord, ...], list[TraceError]]:
    """Parse newline-delimited JSON text into a population (a tuple of
    records) plus a per-line error report.

    Lines end at a line feed alone, since JSON allows a raw U+2028 and
    the other characters ``str.splitlines`` also breaks at inside a
    string.  Blank lines are skipped.  A record whose ``job_id`` an
    earlier line already used is malformed.  In strict mode the first
    malformed line raises TraceFormatError instead of being reported.
    Besides the text and the result, only one block of lines is held.
    """
    records = []
    errors = []
    first_lines: dict[str, int] = {}
    for lineno, line in enumerate(_lines(text), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = _decode_line(stripped)
        # Besides a JSONDecodeError, an over-long integer literal raises a
        # ValueError and over-deep nesting a RecursionError.
        except (ValueError, RecursionError) as exc:
            message = f"invalid JSON: {getattr(exc, 'msg', exc)}"
        else:
            try:
                rec = _screen_record(obj) or record_from_dict(obj)
            except TraceFormatError as exc:
                message = str(exc)
            else:
                first = first_lines.setdefault(rec.job_id, lineno)
                if first == lineno:
                    records.append(rec)
                    continue
                message = f"duplicate job_id {rec.job_id!r} (first on line {first})"
        if strict:
            raise TraceFormatError(f"{source}:{lineno}: {message}")
        errors.append(TraceError(line=lineno, message=message))
    return tuple(records), errors


def decode_trace(data: bytes, source: str = "<trace>") -> str:
    """The text of a trace or config file's bytes; a byte that is not
    UTF-8 raises TraceFormatError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TraceFormatError(f"{source}:{line}: invalid UTF-8 byte 0x{data[exc.start]:02x} "
                               f"({exc.reason})") from None


def load_trace(path: PathLike,
               strict: bool = False) -> tuple[tuple[WorkloadRecord, ...], list[TraceError]]:
    """Read a trace file; see parse_trace for the per-line error contract."""
    text = decode_trace(Path(path).read_bytes(), source=str(path))
    return parse_trace(text, strict=strict, source=str(path))


def dump_trace(pop: Iterable[WorkloadRecord]) -> str:
    """Serialize records as newline-delimited JSON text."""
    lines = [json.dumps(record_to_dict(rec), sort_keys=False) for rec in pop]
    return "".join(line + "\n" for line in lines)


def write_trace(pop: Iterable[WorkloadRecord], path: PathLike) -> None:
    """Write records to ``path`` as a newline-delimited JSON trace."""
    Path(path).write_text(dump_trace(pop), encoding="utf-8")


# --- hardware and efficiency configuration ---------------------------------

def _config_value(text: str, kind: str) -> float:
    """Canonical value of a config entry: a plain number for a fraction,
    else a unit string of the field's ``kind``."""
    if kind != "fraction":
        return parse_quantity(text, kind)
    try:
        return float(text)
    except ValueError:
        raise QuantityError(f"not a number: {text!r}") from None


def _parse_model_config(cls, text: str, source: str, what: str):
    """Build ``cls`` from flat ``key = value`` lines whose keys are its field
    names or their aliases, each field set at most once; fields without a
    default are required.  Lines end at a line feed, as in a trace, so a
    comment may hold any other line separator."""
    by_key = {key: f for f in fields(cls) for key in (f.name, *f.metadata["aliases"])}
    values, first_lines = {}, {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TraceFormatError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        f = by_key.get(key)
        if f is None:
            raise TraceFormatError(f"{source}:{lineno}: unknown {what} key {key!r}")
        first = first_lines.setdefault(f.name, lineno)
        if first != lineno:
            raise TraceFormatError(f"{source}:{lineno}: {f.name} already set on line {first}")
        try:
            values[f.name] = _config_value(value.strip().strip("'\""), f.metadata["kind"])
        except QuantityError as exc:
            raise TraceFormatError(f"{source}:{lineno}: {key}: {exc}") from None
        try:
            check_range(f, values[f.name])
        except ValueError as exc:
            raise TraceFormatError(f"{source}:{lineno}: {exc}") from None
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in values]
    if missing:
        raise TraceFormatError(f"{source}: missing {what} keys: {', '.join(missing)}")
    return cls(**values)


def parse_hardware_config(text: str, source: str = "<config>") -> HardwareProfile:
    """Parse a flat key = value profile, e.g. ``ethernet = 25Gbps``."""
    return _parse_model_config(HardwareProfile, text, source, "hardware")


def pai_baseline() -> HardwareProfile:
    """The production server class: 11 TFLOPs GPU, 1 TB/s memory,
    25 Gbps Ethernet, 10 GB/s PCIe, 50 GB/s NVLink."""
    return HardwareProfile(
        gpu_peak_flops=11e12,
        gpu_mem_bandwidth=1e12,
        pcie_bandwidth=10e9,
        ethernet_bandwidth=25e9 / 8,
        nvlink_bandwidth=50e9,
        gpu_mem_capacity=16e9,
    )


def case_study_testbed() -> HardwareProfile:
    """The case-study testbed: Tesla V100 servers at 15 TFLOPs peak,
    otherwise the same interconnects as the baseline."""
    return replace(pai_baseline(), gpu_peak_flops=15e12)


BUILTIN_HARDWARE = {
    "pai-baseline": pai_baseline,
    "case-study-testbed": case_study_testbed,
}

HW_DIR_ENV = "DLCOST_HW_DIR"


def _read_config(path: Path, parse):
    """``parse(text, source)`` of the config file at ``path``."""
    return parse(decode_trace(path.read_bytes(), str(path)), str(path))


def load_hardware_profile(spec: str) -> HardwareProfile:
    """Resolve ``spec`` as a file path, a preset under $DLCOST_HW_DIR, or a
    built-in preset name, in that order."""
    path = Path(spec)
    if path.is_file():
        return _read_config(path, parse_hardware_config)
    hw_dir = os.environ.get(HW_DIR_ENV)
    if hw_dir:
        for candidate in (Path(hw_dir) / spec, Path(hw_dir) / f"{spec}.hw"):
            if candidate.is_file():
                return _read_config(candidate, parse_hardware_config)
    if spec in BUILTIN_HARDWARE:
        return BUILTIN_HARDWARE[spec]()
    raise FileNotFoundError(
        f"unknown hardware profile {spec!r} "
        f"(no such file, and built-ins are: {', '.join(sorted(BUILTIN_HARDWARE))})"
    )


def parse_efficiency_config(text: str, source: str = "<config>") -> EfficiencyModel:
    """Parse a flat key = value efficiency file with plain fractions."""
    return _parse_model_config(EfficiencyModel, text, source, "efficiency")


def load_efficiency_model(spec: str = "default") -> EfficiencyModel:
    """Resolve ``spec`` as "default", "measured:<corpus job>", or a file path."""
    if spec == "default":
        return EfficiencyModel()
    if spec.startswith("measured:"):
        name = spec.removeprefix("measured:")
        table = measured_efficiency()
        if name not in table:
            raise FileNotFoundError(
                f"no measured efficiencies for {name!r} (known: {', '.join(sorted(table))})")
        return table[name]
    path = Path(spec)
    if path.is_file():
        return _read_config(path, parse_efficiency_config)
    raise FileNotFoundError(f"unknown efficiency spec {spec!r} (expected 'default', "
                            f"'measured:<corpus job>', or a config file path)")
