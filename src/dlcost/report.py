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

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
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


def _json_cell(value: Any):
    if isinstance(value, float):
        return round9(value) if math.isfinite(value) else None
    return value


def hardware_metadata(hw: HardwareProfile) -> dict[str, float]:
    return {
        "gpu_peak_flops": round9(hw.gpu_peak_flops),
        "gpu_mem_bandwidth": round9(hw.gpu_mem_bandwidth),
        "pcie_bandwidth": round9(hw.pcie_bandwidth),
        "ethernet_bandwidth": round9(hw.ethernet_bandwidth),
        "nvlink_bandwidth": round9(hw.nvlink_bandwidth),
        "gpu_mem_capacity": round9(hw.gpu_mem_capacity),
    }


def efficiency_metadata(eff: EfficiencyModel) -> dict[str, float]:
    return {
        "compute_eff": round9(eff.compute_eff),
        "mem_eff": round9(eff.mem_eff),
        "pcie_eff": round9(eff.pcie_eff),
        "ethernet_eff": round9(eff.ethernet_eff),
        "nvlink_eff": round9(eff.nvlink_eff),
    }


def input_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Report:
    kind: str
    columns: tuple[str, ...]
    rows: tuple[Mapping[str, Any], ...]
    metadata: Mapping[str, Any]

    def __post_init__(self) -> None:
        for row in self.rows:
            extra = set(row) - set(self.columns)
            if extra:
                raise ValueError(f"row carries unknown columns: {sorted(extra)}")


def build_report(kind: str, columns: Sequence[str], rows: Sequence[Mapping[str, Any]],
                 hw: HardwareProfile, eff: EfficiencyModel, overlap: OverlapMode,
                 source: str, digest: str,
                 extra_metadata: Mapping[str, Any] | None = None) -> Report:
    metadata: dict[str, Any] = {
        "kind": kind,
        "tool_version": __version__,
        "hardware": hardware_metadata(hw),
        "efficiency": efficiency_metadata(eff),
        "overlap": overlap.value,
        "input": {"source": source, "sha256": digest},
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return Report(kind=kind, columns=tuple(columns), rows=tuple(rows), metadata=metadata)


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
            buf.write(f"# {key}: {_csv_cell(value)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_csv_cell(row.get(col)) for col in report.columns])
        return buf.getvalue().encode("utf-8")
    if format == "json":
        payload = {
            "metadata": report.metadata,
            "columns": list(report.columns),
            "rows": [{col: _json_cell(row.get(col)) for col in report.columns}
                     for row in report.rows],
        }
        return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {format!r} (expected one of {FORMATS})")
