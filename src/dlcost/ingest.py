"""Trace and configuration I/O.

Traces are newline-delimited JSON, one record per line, with snake_case
keys mirroring WorkloadRecord.  Quantities may be plain numbers in
canonical units or unit strings ("357MB", "1.56T"); writing always emits
canonical numbers so a written trace reloads bit-exactly.

A trace is read into a ``core.Population``: one column per record field,
an ``array('d')`` for each quantity and a list for every other field.
Its text is scanned one line at a time, with no list of its lines, and
a line reaches the population by one of two paths.  A batch of lines
that passes the column screen (``_Reader.screen``) is appended a column
at a time, with no ``WorkloadRecord`` built; the screen reads a column
of unit strings with ``units.parse_column`` in one regex pass, and
refuses the batch if a value is not in the plain form, or if its count
of keys does not rule out a repeated one.  Each line of a refused batch
is decoded again, a repeated key at any depth being an error, and goes
to ``record_from_dict`` with ``core.record_errors``, the reference and
the source of every rejection message.

Hardware profiles come from built-in presets or flat key = value files
with unit-string values; the DLCOST_HW_DIR environment variable prepends
a directory to the preset search path.
"""

from __future__ import annotations

import json
import math
import operator
import os
import re
import sys
from array import array
from dataclasses import MISSING, dataclass, fields, replace
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Iterable, Union

from .core import (
    RECORD_FIELDS,
    RECORD_QUANTITIES,
    ArchitectureKind,
    EfficiencyModel,
    HardwareProfile,
    Population,
    WorkloadRecord,
    check_range,
    placed_cnodes,
    record_errors,
)
from .corpus import measured_efficiency
from .units import QuantityError, parse_column, parse_count, parse_quantity

PathLike = Union[str, Path]


class TraceFormatError(ValueError):
    """A trace line (or config file) could not be interpreted."""


@dataclass(frozen=True)
class TraceError:
    line: int
    message: str


_TRACE_KEYS = frozenset(f.name for f in fields(WorkloadRecord))
_QUANTITY_KINDS = tuple((f.name, f.metadata["kind"]) for f in RECORD_QUANTITIES)
_QUANTITY_NAMES = frozenset(name for name, _ in _QUANTITY_KINDS)
_ARCH_BY_LABEL = {arch.value: arch for arch in ArchitectureKind}
_ONE_GPU = ArchitectureKind.ONE_WORKER_ONE_GPU
_FLOAT_MAX = sys.float_info.max
_INF = math.inf
_RAW_DECODE = json.JSONDecoder().raw_decode
#: Each line of a text, as ``str.split("\n")`` gives them: ``^`` matches
#: at the start and after each line feed, and ``.`` any character but a
#: line feed.
_LINE = re.compile(r"^.*", re.MULTILINE)


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


def _unique_keys(pairs: list) -> dict:
    """The object of ``pairs``; a key that it repeats raises TraceFormatError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise TraceFormatError(f"repeated key {key!r}")
        obj[key] = value
    return obj


#: The required fields of a trace object, in ``WorkloadRecord`` order: the
#: job's id, architecture, cNodes and batch size, then its quantities.
_REQUIRED_NAMES = tuple(f.name for f in fields(WorkloadRecord) if f.default is MISSING)
_REQUIRED = operator.itemgetter(*_REQUIRED_NAMES)
_WEIGHT_TRAFFIC = [name for name, _ in _QUANTITY_KINDS].index("weight_traffic_bytes")
_STR = frozenset({str})
_INT = frozenset({int})
_FLOAT = frozenset({float})
_NUMBER = frozenset({int, float})
_NONE_OR_DICT = frozenset({type(None), dict})
#: Trace objects that ``parse_trace`` screens together: per record, 32 was
#: within noise of the fastest of 8 to 128 on a 20k-job trace.
_BATCH_LINES = 32


def _as_floats(values):
    """``values`` converted as ``record_from_dict`` converts a number (an int
    or a float) to a float, or None if one is not a number."""
    kinds = set(map(type, values))
    if kinds <= _FLOAT:
        return values
    return list(map(float, values)) if kinds <= _NUMBER else None


def _in_range(values, positive: bool = False) -> bool:
    """Whether each float is finite and not negative (positive, if asked)."""
    low = min(values)
    # The sum is NaN if a value is, and infinite if one is or if they add
    # past the largest float: the batch is then screened in parts.
    return (low > 0.0 if positive else low >= 0.0) and sum(values) < _INF


class _Reader:
    """A population as it is read: one column per ``WorkloadRecord`` field
    (an ``array('d')`` for each quantity, as ``Population`` holds it, else
    a list), the job ids read so far and the line of each record."""

    def __init__(self) -> None:
        self.columns = tuple(array("d") if name in _QUANTITY_NAMES else []
                             for name in RECORD_FIELDS)
        # A dict of None values: a set of as many ids takes twice the memory.
        self.seen: dict[str, None] = {}
        self.record_lines = array("q")
        self._index: dict[str, int] = {}  # job id -> record, from the first duplicate on

    def add(self, rec: WorkloadRecord, line: int) -> None:
        self.seen[rec.job_id] = None
        self.record_lines.append(line)
        for column, name in zip(self.columns, RECORD_FIELDS):
            column.append(getattr(rec, name))

    def first_line(self, job_id: str) -> int:
        """The line of the record that used ``job_id``."""
        done, job_ids = len(self._index), self.columns[0]
        self._index.update(zip(job_ids[done:], range(done, len(job_ids))))
        return self.record_lines[self._index[job_id]]

    def screen(self, objs: list, text: str, lines: list[int]) -> bool:
        """Add the records of ``objs``, decoded from ``lines`` whose texts
        ``text`` joins, if each object is clean.

        A clean object is one that ``record_from_dict`` accepts, with a
        str ``job_id`` that no earlier object used, int cNodes and batch
        size, and each quantity column all numbers or all unit strings in
        the plain form that ``units.parse_column`` reads; each value is
        converted as ``record_from_dict`` converts it.  Each rule is
        checked a column at a time.  Returns False, adding nothing, for
        any other batch: ``record_from_dict`` then builds or names each
        line, so it stays the one source of every rejection message.

        No clean object repeats a key.  Each key in ``text`` is followed
        by a colon of its own, so ``text`` holds at least as many colons
        as the objects and their ``notes`` have keys, and as many only if
        none of them repeats a key and no other object is nested.
        """
        n = len(objs)
        try:
            job_ids, labels, num_cnodes, batch_sizes, *quantities = zip(*map(_REQUIRED, objs))
            # Every required key is there, so an object of that many keys
            # has no other.
            plain = max(map(len, objs)) == len(_REQUIRED_NAMES)
            if not (plain or all(map(_TRACE_KEYS.issuperset, objs))):
                return False
            if not (set(map(type, job_ids)) <= _STR and len(set(job_ids)) == n
                    and self.seen.keys().isdisjoint(job_ids)):
                return False
            joined = "".join(job_ids)
            if not joined.isascii():
                joined.encode("utf-8")  # UnicodeEncodeError: a lone surrogate
            archs = list(map(_ARCH_BY_LABEL.__getitem__, labels))
            counts = num_cnodes + batch_sizes
            if not (set(map(type, counts)) <= _INT and min(counts) >= 1
                    and max(counts) <= _FLOAT_MAX
                    and tuple(map(placed_cnodes, archs, num_cnodes)) == num_cnodes):
                return False
            for i, ((_, kind), values) in enumerate(zip(_QUANTITY_KINDS, quantities)):
                # A unit string column is read in one regex pass; a value
                # not in the plain form fails the batch.
                if type(values[0]) is str:
                    quantities[i] = parse_column(values, kind)
                    if quantities[i] is None:
                        return False
            values = _as_floats(list(chain.from_iterable(quantities)))
            if values is None or not _in_range(values):
                return False
            quantities = [values[i:i + n] for i in range(0, len(values), n)]
            one_gpu = map(operator.is_, archs, repeat(_ONE_GPU))
            if any(compress(quantities[_WEIGHT_TRAFFIC], one_gpu)):  # 1w1g moves no weights
                return False
            measured = notes = [None] * n
            if not plain:
                measured = list(map(dict.get, objs, repeat("measured_step_seconds")))
                given = [m for m in measured if m is not None]
                if given:
                    given = _as_floats(given)
                    if given is None or not _in_range(given, positive=True):
                        return False
                    given = iter(given)
                    measured = [m if m is None else next(given) for m in measured]
                notes = list(map(dict.get, objs, repeat("notes")))
                if not set(map(type, notes)) <= _NONE_OR_DICT:
                    return False
                for note in notes:
                    if note:
                        for value in note.values():
                            if not (type(value) is int or (type(value) is float
                                                           and -_INF < value < _INF)):
                                return False
            keys = (n * len(_REQUIRED_NAMES) if plain
                    else sum(map(len, objs)) + sum(map(len, filter(None, notes))))
            if text.count(":") != keys:
                return False
        # KeyError: a missing field or an unknown architecture; TypeError: an
        # object that is not a dict, an unhashable label, or a unit string
        # column holding another value; ValueError: a job_id with a lone
        # surrogate (UnicodeEncodeError); OverflowError: an int beyond a float.
        except (KeyError, TypeError, ValueError, OverflowError):
            return False
        self.seen.update(zip(job_ids, repeat(None)))
        self.record_lines.extend(lines)
        for column, values in zip(self.columns, (
                job_ids, archs, num_cnodes, batch_sizes, *quantities, measured,
                [note if note is None else _share_keys(note) for note in notes])):
            column.extend(values)
        return True


def parse_trace(text: str) -> tuple[Population, list[TraceError]]:
    """Parse newline-delimited JSON text into a population (one column per
    record field, an ``array('d')`` per quantity) plus a per-line error
    report: each malformed line is one ``TraceError`` in the returned list.

    Lines end at a line feed alone, since JSON allows a raw U+2028 and
    the other characters ``str.splitlines`` also breaks at inside a
    string.  Blank lines are skipped.  A line is malformed if its object
    repeats a key, at any depth, or if ``record_from_dict`` refuses it;
    a record whose ``job_id`` an earlier line already used is malformed
    too.

    Decoded objects are screened ``_BATCH_LINES`` at a time, a column at
    a time.  Each line of a batch that fails the screen is decoded again
    and goes to ``record_from_dict``, one at a time.  The text is scanned
    a line at a time, so besides the text and the result, only one line,
    one batch of objects and their texts, the job ids read so far and
    each record's line are held, and, from the first duplicate job id on,
    an index of the job ids.
    """
    reader = _Reader()
    errors = []
    batch, batch_texts, batch_lines = [], [], []

    def read_line(line: str, lineno: int) -> None:
        """Add the record of one stripped line, or its error."""
        try:
            rec = record_from_dict(json.loads(line, object_pairs_hook=_unique_keys))
        except TraceFormatError as exc:  # a repeated key, or what record_from_dict refuses
            message = str(exc)
        # Besides a JSONDecodeError, an over-long integer literal raises a
        # ValueError and over-deep nesting a RecursionError.
        except (ValueError, RecursionError) as exc:
            message = f"invalid JSON: {getattr(exc, 'msg', exc)}"
        else:
            if rec.job_id not in reader.seen:
                reader.add(rec, lineno)
                return
            first = reader.first_line(rec.job_id)
            message = f"duplicate job_id {rec.job_id!r} (first on line {first})"
        errors.append(TraceError(line=lineno, message=message))

    def flush() -> None:
        if batch and not reader.screen(batch, "\n".join(batch_texts), batch_lines):
            batch.clear()  # its objects are not held while its lines are read again
            for line, lineno in zip(batch_texts, batch_lines):
                read_line(line, lineno)
        batch.clear()
        batch_texts.clear()
        batch_lines.clear()

    for lineno, line in enumerate(map(re.Match.group, _LINE.finditer(text)), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj, end = _RAW_DECODE(stripped)
        except (ValueError, RecursionError):
            end = -1
        # A stripped line that the C scanner decodes as one JSON value is
        # what json.loads decodes; read_line names the error of any other.
        if end != len(stripped):
            flush()
            read_line(stripped, lineno)
            continue
        batch.append(obj)
        batch_texts.append(stripped)
        batch_lines.append(lineno)
        if len(batch) == _BATCH_LINES:
            flush()
    flush()
    return Population(*reader.columns), errors


def decode_trace(data: bytes, source: str = "<trace>") -> str:
    """The text of a trace or config file's bytes; a byte that is not
    UTF-8 raises TraceFormatError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TraceFormatError(f"{source}:{line}: invalid UTF-8 byte 0x{data[exc.start]:02x} "
                               f"({exc.reason})") from None


def load_trace(path: PathLike) -> tuple[Population, list[TraceError]]:
    """Read a trace file: each malformed line is one ``TraceError`` in the
    returned list, as in parse_trace."""
    return parse_trace(decode_trace(Path(path).read_bytes(), source=str(path)))


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
