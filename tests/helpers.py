"""Shared fixtures-in-spirit: record factories and hypothesis strategies.

Strategy bounds keep per-step times within ~12 orders of magnitude of
each other so that float addition of distinct positive components is
strictly greater than their max (needed for exact overlap-bound checks).
"""

import json
import math
import re

import hypothesis.strategies as st

from dlcost.aggregate import cnode_level_mean, job_level_mean
from dlcost.core import (
    ArchitectureKind,
    EfficiencyModel,
    HardwareProfile,
    Population,
    WorkloadRecord,
)
from dlcost.engine import evaluate
from dlcost.ingest import case_study_testbed, pai_baseline
from dlcost.report import Fixed
from dlcost.sweep import SensitivityCell

PAI = pai_baseline()
TESTBED = case_study_testbed()
EFF = EfficiencyModel()

DISTRIBUTED = [a for a in ArchitectureKind if a is not ArchitectureKind.ONE_WORKER_ONE_GPU]


def make_record(job_id="job", arch=ArchitectureKind.PS_WORKER, num_cnodes=4,
                batch_size=64, flops=1e12, mem_access_bytes=1e10, input_bytes=1e6,
                weight_traffic_bytes=1e9, dense_weight_bytes=1e8,
                embedding_weight_bytes=0.0, **kwargs) -> WorkloadRecord:
    if arch is ArchitectureKind.ONE_WORKER_ONE_GPU:
        num_cnodes = 1
        weight_traffic_bytes = 0.0
    return WorkloadRecord(
        job_id=job_id, arch=arch, num_cnodes=num_cnodes, batch_size=batch_size,
        flops=flops, mem_access_bytes=mem_access_bytes, input_bytes=input_bytes,
        weight_traffic_bytes=weight_traffic_bytes,
        dense_weight_bytes=dense_weight_bytes,
        embedding_weight_bytes=embedding_weight_bytes, **kwargs)


def demand(lo=1.0, hi=1e12):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def workload_records(draw, archs=tuple(ArchitectureKind), allow_zero_demands=True):
    arch = draw(st.sampled_from(list(archs)))
    if arch is ArchitectureKind.ONE_WORKER_ONE_GPU:
        num_cnodes = 1
    elif arch in (ArchitectureKind.ONE_WORKER_N_GPU, ArchitectureKind.ALLREDUCE_LOCAL):
        num_cnodes = draw(st.integers(min_value=1, max_value=8))
    else:
        num_cnodes = draw(st.integers(min_value=1, max_value=256))
    zero_or = (lambda s: st.one_of(st.just(0.0), s)) if allow_zero_demands else (lambda s: s)
    weight = 0.0 if arch is ArchitectureKind.ONE_WORKER_ONE_GPU else draw(zero_or(demand()))
    return WorkloadRecord(
        job_id=draw(st.uuids()).hex,
        arch=arch,
        num_cnodes=num_cnodes,
        batch_size=draw(st.integers(min_value=1, max_value=8192)),
        flops=draw(zero_or(demand())),
        mem_access_bytes=draw(zero_or(demand())),
        input_bytes=draw(zero_or(demand())),
        weight_traffic_bytes=weight,
        dense_weight_bytes=draw(demand(hi=1e11)),
        embedding_weight_bytes=draw(zero_or(demand(hi=1e12))),
    )


@st.composite
def hardware_profiles(draw):
    bw = st.floats(min_value=1e6, max_value=1e15, allow_nan=False, allow_infinity=False)
    return HardwareProfile(
        gpu_peak_flops=draw(bw),
        gpu_mem_bandwidth=draw(bw),
        pcie_bandwidth=draw(bw),
        ethernet_bandwidth=draw(bw),
        nvlink_bandwidth=draw(bw),
        gpu_mem_capacity=draw(bw),
    )


@st.composite
def efficiency_models(draw):
    frac = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
    return EfficiencyModel(
        compute_eff=draw(frac), mem_eff=draw(frac), pcie_eff=draw(frac),
        ethernet_eff=draw(frac), nvlink_eff=draw(frac),
    )


#: The closed form's own model tables, written from the model's definition
#: as ``perfbench/oracle.py`` writes its own, not read from ``dlcost.engine``:
#: the GPUs of one server, the architectures that place every replica on
#: one server, and each architecture's weight path in transfer order.
SERVER_GPUS = 8
ONE_SERVER = frozenset({ArchitectureKind.ONE_WORKER_N_GPU, ArchitectureKind.ALLREDUCE_LOCAL})
WEIGHT_PATHS = {
    ArchitectureKind.ONE_WORKER_ONE_GPU: (),
    ArchitectureKind.ONE_WORKER_N_GPU: ("pcie",),
    ArchitectureKind.PS_WORKER: ("ethernet", "pcie"),
    ArchitectureKind.ALLREDUCE_LOCAL: ("nvlink",),
    ArchitectureKind.ALLREDUCE_CLUSTER: ("ethernet", "nvlink"),
    ArchitectureKind.PEARL: ("nvlink",),
}


def closed_form(rec, hw, eff) -> dict:
    """One job's step time from the model's formulas: the reference that
    ``breakdown`` and ``evaluate`` are both held to, within a relative
    1e-12, since its operation order is its own.

    The terms are keyed by ``Evaluation`` column, ``t_weight_on`` by medium
    label, ``t_total`` by overlap mode label and ``shares`` by component.
    """
    # Replicas on one server share its PCIe complex for input loading.
    contention = min(rec.num_cnodes, SERVER_GPUS) if rec.arch in ONE_SERVER else 1
    link_rates = {"ethernet": hw.ethernet_bandwidth * eff.ethernet_eff,
                  "pcie": hw.pcie_bandwidth * eff.pcie_eff,
                  "nvlink": hw.nvlink_bandwidth * eff.nvlink_eff}
    t_data = rec.input_bytes * contention / link_rates["pcie"]
    t_cb = rec.flops / (hw.gpu_peak_flops * eff.compute_eff)
    t_mb = rec.mem_access_bytes / (hw.gpu_mem_bandwidth * eff.mem_eff)
    # The weight volume crosses every medium on the path, one after another.
    on = {medium: rec.weight_traffic_bytes / rate if medium in WEIGHT_PATHS[rec.arch] else 0.0
          for medium, rate in link_rates.items()}
    t_weight = sum(on.values())
    total = t_data + t_cb + t_mb + t_weight
    parts = {"data": t_data, "compute_bound": t_cb, "memory_bound": t_mb, "weight": t_weight}
    return {
        "t_data": t_data, "t_compute_bound": t_cb, "t_memory_bound": t_mb,
        "t_compute": t_cb + t_mb, "t_weight_on": on, "t_weight": t_weight,
        "t_total": {"none": total, "ideal": max(t_data, t_cb + t_mb, t_weight)},
        "shares": {name: t / total if total > 0 else 0.0 for name, t in parts.items()},
    }


@st.composite
def record_lists_with_idle_job(draw, max_size=30):
    """Arbitrary valid records plus one all-zero record (no shares defined)
    at a drawn position."""
    records = draw(st.lists(workload_records(), max_size=max_size))
    idle = make_record(job_id="idle", arch=draw(st.sampled_from(list(ArchitectureKind))),
                       flops=0.0, mem_access_bytes=0.0, input_bytes=0.0,
                       weight_traffic_bytes=0.0)
    records.insert(draw(st.integers(min_value=0, max_value=len(records))), idle)
    return records


def float_bits(values) -> list[str]:
    """Exact bit patterns of floats, so that 0.0 and -0.0 compare unequal."""
    return [float.hex(float(v)) for v in values]


def reference_efficiency_sensitivity(pop, hw, compute_eff_grid, comm_eff_grid):
    """The efficiency grid with a whole ``evaluate`` per grid point: the
    reference that ``sweep.efficiency_sensitivity`` is held to, bit for bit."""
    pop = Population.of(pop)
    cells = []
    for comp in compute_eff_grid:
        for comm in comm_eff_grid:
            eff = EfficiencyModel(compute_eff=comp, mem_eff=comp,
                                  pcie_eff=comm, ethernet_eff=comm, nvlink_eff=comm)
            weight_shares = evaluate(pop, hw, eff).share("weight")
            cells.append(SensitivityCell(
                compute_eff=comp,
                comm_eff=comm,
                job_level_weight_share=job_level_mean(weight_shares),
                cnode_level_weight_share=cnode_level_mean(weight_shares, pop.num_cnodes),
            ))
    return cells


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}" if math.isfinite(value) else ""
    return str(value)


def _csv_field(value) -> str:
    if isinstance(value, str) and re.search(r'[,"\r\n]', value):
        return '"' + value.replace('"', '""') + '"'
    return _csv_cell(value)


def _json_cell(value):
    if isinstance(value, float):
        return float(f"{value:.9g}") if math.isfinite(value) else None
    return value


_JSON_ROW = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False)


def report_rows(report) -> list[tuple]:
    """A report's rows, block by block, each ``Fixed`` cell repeated in
    every row of its block."""
    rows = []
    for n_rows, columns in report.blocks:
        cells = [[c.value] * n_rows if isinstance(c, Fixed) else c for c in columns]
        rows += zip(*cells) if cells else [()] * n_rows
    return rows


def reference_emit(columns, rows, format) -> bytes:
    """A report with no metadata, formatted a cell at a time: the reference
    that ``report.emit`` is held to, byte for byte."""
    if format == "csv":
        lines = []
        for row in (columns, *rows):
            line = ",".join([_csv_field(value) for value in row])
            lines.append(f"{line}\n" if line or len(row) != 1 else '""\n')
        return "".join(lines).encode("utf-8")
    head = json.dumps({"metadata": {}, "columns": list(columns)}, indent=2)
    if columns:
        encoded = ["{\n      " + _JSON_ROW.encode({col: _json_cell(value)
                                                    for col, value in zip(columns, row)})[1:-1]
                   + "\n    }" for row in rows]
    else:
        encoded = ["{}"] * len(rows)
    body = "[\n    " + ",\n    ".join(encoded) + "\n  ]" if encoded else "[]"
    return f'{head[:-2]},\n  "rows": {body}\n}}\n'.encode("utf-8")
