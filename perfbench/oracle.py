"""Independent output check for the benchmark.

The expected rows come from this file's own closed-form roofline sum,
written from the documented model rather than imported from ``dlcost``:

  t_data   = input_bytes / (PCIe bandwidth x efficiency / contention),
             contention = min(cNodes, 8) for local multi-GPU architectures;
  t_cb     = flops / (GPU peak x compute efficiency);
  t_mb     = mem_access_bytes / (GPU memory bandwidth x memory efficiency);
  t_weight = sum over the architecture's weight path of
             weight_traffic_bytes / (medium bandwidth x medium efficiency);
  t_total  = t_data + t_cb + t_mb + t_weight (no overlap), or
             max(t_data, t_cb + t_mb, t_weight) (ideal overlap).

Reports carry 9 significant digits, so a float cell matches when it is
within half a unit of the 9th digit of the oracle's value (plus a few
ulps for a different operation order).  JSON is parsed strictly: a bare
``Infinity`` or ``NaN`` fails the check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

GPUS_PER_SERVER = 8
LOCAL_ARCHS = frozenset({"one_worker_n_gpu", "allreduce_local"})
WEIGHT_PATHS = {
    "one_worker_one_gpu": (),
    "one_worker_n_gpu": ("pcie",),
    "ps_worker": ("ethernet", "pcie"),
    "allreduce_local": ("nvlink",),
    "allreduce_cluster": ("ethernet", "nvlink"),
    "pearl": ("nvlink",),
}
ALLREDUCE_ARCHS = frozenset({"allreduce_local", "allreduce_cluster"})

#: The documented hardware presets, canonical units.
HARDWARE = {
    "pai-baseline": {
        "gpu_peak_flops": 11e12, "gpu_mem_bandwidth": 1e12, "pcie_bandwidth": 10e9,
        "ethernet_bandwidth": 25e9 / 8, "nvlink_bandwidth": 50e9, "gpu_mem_capacity": 16e9,
    },
    "case-study-testbed": {
        "gpu_peak_flops": 15e12, "gpu_mem_bandwidth": 1e12, "pcie_bandwidth": 10e9,
        "ethernet_bandwidth": 25e9 / 8, "nvlink_bandwidth": 50e9, "gpu_mem_capacity": 16e9,
    },
}
DEFAULT_EFF = {"compute_eff": 0.7, "mem_eff": 0.7, "pcie_eff": 0.7,
               "ethernet_eff": 0.7, "nvlink_eff": 0.7}

#: Standard sweep axes: Ethernet 10/25/100 Gbps, PCIe 10/50 GB/s,
#: GPU peak 8/16/32/64 TFLOPs, GPU memory 1/2/4 TB/s.
SWEEP_AXES = (
    ("ethernet", "ethernet_bandwidth", (1.25e9, 3.125e9, 1.25e10)),
    ("pcie", "pcie_bandwidth", (1e10, 5e10)),
    ("gpu_flops", "gpu_peak_flops", (8e12, 16e12, 32e12, 64e12)),
    ("gpu_mem_bandwidth", "gpu_mem_bandwidth", (1e12, 2e12, 4e12)),
)
EFFICIENCY_GRID = (0.25, 0.4, 0.55, 0.7, 0.85, 1.0)

#: Rows recomputed per report; small reports are checked in full.
SAMPLE_ROWS = 200
#: Efficiency-grid points recomputed (each costs one pass over the jobs).
SAMPLE_GRID_POINTS = 4

NONEMPTY = object()  # expected cell: any non-empty string


@dataclass(frozen=True)
class Model:
    hw_name: str = "pai-baseline"
    overlap: str = "none"
    eff: dict = field(default_factory=lambda: dict(DEFAULT_EFF))

    @property
    def hw(self) -> dict:
        return HARDWARE[self.hw_name]


# --- the closed-form model --------------------------------------------------

def step_time(job: dict, hw: dict, eff: dict, overlap: str,
              arch: str | None = None, cnodes: int | None = None) -> dict:
    """Per-step decomposition of ``job``, optionally re-placed on ``arch``."""
    arch = job["arch"] if arch is None else arch
    cnodes = job["num_cnodes"] if cnodes is None else cnodes
    contention = min(cnodes, GPUS_PER_SERVER) if arch in LOCAL_ARCHS else 1
    t_data = job["input_bytes"] / (hw["pcie_bandwidth"] * eff["pcie_eff"] / contention)
    t_cb = job["flops"] / (hw["gpu_peak_flops"] * eff["compute_eff"])
    t_mb = job["mem_access_bytes"] / (hw["gpu_mem_bandwidth"] * eff["mem_eff"])
    t_compute = t_cb + t_mb
    per_medium = {"ethernet": 0.0, "pcie": 0.0, "nvlink": 0.0}
    t_weight = 0.0
    for medium in WEIGHT_PATHS[arch]:
        t = job["weight_traffic_bytes"] / (hw[f"{medium}_bandwidth"] * eff[f"{medium}_eff"])
        per_medium[medium] = t
        t_weight += t
    total = t_data + t_compute + t_weight
    t_total = max(t_data, t_compute, t_weight) if overlap == "ideal" else total
    shares = ([t_data / total, t_cb / total, t_mb / total, t_weight / total]
              if total > 0 else [0.0] * 4)
    return {"t_data": t_data, "t_cb": t_cb, "t_mb": t_mb, "t_compute": t_compute,
            "per_medium": per_medium, "t_weight": t_weight, "t_total": t_total,
            "shares": shares, "defined": total > 0}


def _speedup(base: float, new: float) -> float:
    if new == 0:
        return 1.0 if base == 0 else math.inf
    return base / new


def projection(job: dict, target: str, model: Model) -> dict:
    """Expected projection-report cells for ``job`` moved to ``target``."""
    hw, eff = model.hw, model.eff
    src = step_time(job, hw, eff, model.overlap)
    n = job["num_cnodes"]
    if target == job["arch"]:
        tc = n
    elif target == "one_worker_one_gpu":
        tc = 1
    elif target in LOCAL_ARCHS:
        tc = min(n, GPUS_PER_SERVER)
    else:
        tc = n
    feasible = True
    if target != job["arch"]:
        if target in ALLREDUCE_ARCHS:
            model_bytes = job["dense_weight_bytes"] + job["embedding_weight_bytes"]
            feasible = model_bytes <= hw["gpu_mem_capacity"]
        elif target == "pearl":
            feasible = job["embedding_weight_bytes"] > 0
    row = {"job_id": job["job_id"], "source_arch": job["arch"], "target_arch": target,
           "source_cnodes": n, "target_cnodes": tc, "feasible": feasible,
           "reason": "" if feasible else NONEMPTY,
           "source_t_total": src["t_total"], "target_t_total": None,
           "step_speedup": None, "throughput_speedup": None,
           "_source": src, "_target": None}
    if feasible:
        dst = step_time(job, hw, eff, model.overlap, arch=target, cnodes=tc)
        step = _speedup(src["t_total"], dst["t_total"])
        row.update(target_t_total=dst["t_total"], step_speedup=step,
                   throughput_speedup=step * tc / n, _target=dst)
    return row


def job_mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def cnode_mean(values: list[float], cnodes: list[int]) -> float:
    total = sum(cnodes)
    return math.fsum((c / total) * v for v, c in zip(values, cnodes))


# --- expected reports -------------------------------------------------------

@dataclass
class Expected:
    """What one report must hold: its columns, row count, metadata, and a
    function giving the expected cells of row ``i``."""

    columns: tuple[str, ...]
    n_rows: int
    row: Callable[[int], dict]
    metadata: dict[str, Any]
    sample: int = SAMPLE_ROWS


def report_metadata(model: Model, trace_name: str, trace_bytes: bytes) -> dict:
    """Metadata every report on this trace and model must carry (flattened
    keys); each ``expect_*`` adds its report kind."""
    meta = {"overlap": model.overlap, "input.source": trace_name,
            "input.sha256": hashlib.sha256(trace_bytes).hexdigest()}
    meta.update({f"hardware.{k}": v for k, v in model.hw.items()})
    meta.update({f"efficiency.{k}": v for k, v in model.eff.items()})
    return meta


BREAKDOWN_COLUMNS = (
    "job_id", "arch", "num_cnodes", "batch_size",
    "t_data", "t_compute_bound", "t_memory_bound", "t_compute",
    "t_weight_ethernet", "t_weight_pcie", "t_weight_nvlink", "t_weight",
    "t_total", "share_data", "share_compute_bound", "share_memory_bound",
    "share_weight", "shares_defined", "throughput",
)


def expect_breakdown(jobs, model, meta) -> Expected:
    def row(i):
        job = jobs[i]
        bd = step_time(job, model.hw, model.eff, model.overlap)
        pm = bd["per_medium"]
        return dict(zip(BREAKDOWN_COLUMNS, (
            job["job_id"], job["arch"], job["num_cnodes"], job["batch_size"],
            bd["t_data"], bd["t_cb"], bd["t_mb"], bd["t_compute"],
            pm["ethernet"], pm["pcie"], pm["nvlink"], bd["t_weight"], bd["t_total"],
            *bd["shares"], bd["defined"],
            job["num_cnodes"] / bd["t_total"] * job["batch_size"] if bd["t_total"] > 0 else None,
        )))
    return Expected(BREAKDOWN_COLUMNS, len(jobs), row, dict(meta, kind="breakdown"))


PROJECT_COLUMNS = ("job_id", "source_arch", "target_arch", "source_cnodes", "target_cnodes",
                   "feasible", "reason", "source_t_total", "target_t_total",
                   "step_speedup", "throughput_speedup")


def _projection_summary(rows: list[dict]) -> dict:
    n = len(rows)
    feasible = [r for r in rows if r["feasible"]]
    return {
        "n_jobs": n,
        "fraction_infeasible": (n - len(feasible)) / n,
        "fraction_step_sped_up": sum(1 for r in feasible if r["step_speedup"] > 1) / n,
        "fraction_throughput_sped_up":
            sum(1 for r in feasible if r["throughput_speedup"] > 1) / n,
    }


def expect_project(jobs, model, meta, target) -> Expected:
    rows = [projection(job, target, model) for job in jobs]
    metadata = dict(meta, kind="projection")
    metadata["target"] = target
    metadata.update({f"summary.{k}": v for k, v in _projection_summary(rows).items()})
    return Expected(PROJECT_COLUMNS, len(jobs), lambda i: rows[i], metadata)


SHARE_COLUMNS = ("share_data", "share_compute_bound", "share_memory_bound", "share_weight")


def expect_shares(jobs, model, meta) -> Expected:
    shares = [step_time(j, model.hw, model.eff, model.overlap)["shares"] for j in jobs]
    cnodes = [j["num_cnodes"] for j in jobs]
    columns = [[s[k] for s in shares] for k in range(4)]
    rows = [dict(level="job", **{c: job_mean(v) for c, v in zip(SHARE_COLUMNS, columns)}),
            dict(level="cnode",
                 **{c: cnode_mean(v, cnodes) for c, v in zip(SHARE_COLUMNS, columns)})]
    metadata = dict(meta, kind="aggregate")
    metadata["stat"] = "shares"
    return Expected(("level",) + SHARE_COLUMNS, 2, lambda i: rows[i], metadata)


def expect_share_cdf(jobs, model, meta, level) -> Expected:
    values = [step_time(j, model.hw, model.eff, model.overlap)["shares"][3] for j in jobs]
    weights = [float(j["num_cnodes"]) if level == "cnode" else 1.0 for j in jobs]
    grouped: dict[float, list[float]] = {}
    for v, w in zip(values, weights):
        grouped.setdefault(v, []).append(w)
    xs = sorted(grouped)
    group_w = [math.fsum(grouped[x]) for x in xs]
    total = math.fsum(group_w)
    points, running = [], 0.0
    for x, w in zip(xs, group_w):
        running += w
        points.append({"share": x, "cumulative_fraction": running / total})
    metadata = dict(meta, kind="aggregate")
    metadata.update({"stat": "share-cdf", "component": "weight", "level": level})
    return Expected(("share", "cumulative_fraction"), len(points),
                    lambda i: points[i], metadata)


def expect_validate(jobs, model, meta) -> Expected:
    def row(i):
        job = jobs[i]
        predicted = step_time(job, model.hw, model.eff, model.overlap)["t_total"]
        measured = job.get("measured_step_seconds")
        return {"line": None, "job_id": job["job_id"], "status": "ok", "message": "",
                "predicted_step_seconds": predicted, "measured_step_seconds": measured,
                "gap": (predicted - measured) / measured if measured else None}
    metadata = dict(meta, kind="validate")
    metadata["n_errors"] = 0
    return Expected(("line", "job_id", "status", "message", "predicted_step_seconds",
                     "measured_step_seconds", "gap"), len(jobs), row, metadata)


def expect_sweep(jobs, model, meta) -> Expected:
    cells = [(name, field_name, c) for name, field_name, cands in SWEEP_AXES for c in cands]
    n = len(jobs)

    def row(i):
        name, field_name, candidate = cells[i // n]
        job = jobs[i % n]
        base = step_time(job, model.hw, model.eff, model.overlap)["t_total"]
        hw = dict(model.hw, **{field_name: candidate})
        new = step_time(job, hw, model.eff, model.overlap)["t_total"]
        return {"job_id": job["job_id"], "resource": name, "candidate": candidate,
                "normalized": candidate / model.hw[field_name],
                "speedup": _speedup(base, new)}
    return Expected(("job_id", "resource", "candidate", "normalized", "speedup"),
                    n * len(cells), row, dict(meta, kind="sweep"))


def expect_efficiency(jobs, model, meta) -> Expected:
    cnodes = [j["num_cnodes"] for j in jobs]

    def row(i):
        comp = EFFICIENCY_GRID[i // len(EFFICIENCY_GRID)]
        comm = EFFICIENCY_GRID[i % len(EFFICIENCY_GRID)]
        eff = {"compute_eff": comp, "mem_eff": comp, "pcie_eff": comm,
               "ethernet_eff": comm, "nvlink_eff": comm}
        ws = [step_time(j, model.hw, eff, model.overlap)["shares"][3] for j in jobs]
        return {"compute_eff": comp, "comm_eff": comm,
                "job_level_weight_share": job_mean(ws),
                "cnode_level_weight_share": cnode_mean(ws, cnodes)}
    metadata = dict(meta, kind="sensitivity")
    metadata["analysis"] = "efficiency"
    return Expected(("compute_eff", "comm_eff", "job_level_weight_share",
                     "cnode_level_weight_share"), len(EFFICIENCY_GRID) ** 2, row, metadata,
                    sample=SAMPLE_GRID_POINTS)


def _weight_bound(bd: dict) -> bool:
    return bd["t_weight"] > 0 and bd["t_weight"] >= bd["t_data"] \
        and bd["t_weight"] >= bd["t_compute"]


def expect_overlap(jobs, model, meta, target) -> Expected:
    cnodes = [j["num_cnodes"] for j in jobs]
    rows = []
    at_ratio = 0
    for overlap in ("none", "ideal"):
        mode = Model(model.hw_name, overlap, model.eff)
        projected = [projection(j, target, mode) for j in jobs]
        ws = [p["_source"]["shares"][3] for p in projected]
        summary = _projection_summary(projected)
        rows.append({"overlap": overlap, "job_level_weight_share": job_mean(ws),
                     "cnode_level_weight_share": cnode_mean(ws, cnodes),
                     **{k: v for k, v in summary.items() if k != "n_jobs"}})
        if overlap == "ideal":
            at_ratio = sum(1 for p in projected if p["feasible"]
                           and _weight_bound(p["_source"]) and _weight_bound(p["_target"]))
    metadata = dict(meta, kind="sensitivity")
    metadata.update({"analysis": "overlap", "target": target,
                     "fraction_at_weight_path_ratio": at_ratio / len(jobs)})
    return Expected(("overlap", "job_level_weight_share", "cnode_level_weight_share",
                     "fraction_infeasible", "fraction_step_sped_up",
                     "fraction_throughput_sped_up"), 2, lambda i: rows[i], metadata)


# --- parsing and comparison -------------------------------------------------

class Checker:
    """Counts checks attempted and failed, keeping the first few messages."""

    def __init__(self, keep: int = 20):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._keep = keep

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self._keep:
                self.messages.append(message)
        return ok


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _flatten(meta: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in meta.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def parse_report(data: bytes, fmt: str) -> tuple[dict, tuple[str, ...], list[list]]:
    """(flattened metadata, columns, rows as cell lists); raises ValueError."""
    text = data.decode("utf-8")
    if fmt == "json":
        payload = json.loads(text, parse_constant=_reject_constant)
        columns = tuple(payload["columns"])
        rows = []
        for obj in payload["rows"]:
            if tuple(obj) != columns:
                raise ValueError(f"row keys {list(obj)} differ from the columns")
            rows.append([obj[c] for c in columns])
        return _flatten(payload["metadata"]), columns, rows
    lines = text.splitlines(keepends=True)
    meta = {}
    start = 0
    while start < len(lines) and lines[start].startswith("# "):
        key, sep, value = lines[start][2:].rstrip("\n").partition(": ")
        if not sep:
            raise ValueError(f"malformed metadata line {lines[start]!r}")
        meta[key] = value
        start += 1
    reader = csv.reader(io.StringIO("".join(lines[start:])))
    header = next(reader, None)
    if header is None:
        raise ValueError("no header row")
    return meta, tuple(header), list(reader)


def _close(actual: float, expected: float) -> bool:
    if expected == 0 or not math.isfinite(expected):
        return actual == expected
    digit9 = 10.0 ** (math.floor(math.log10(abs(expected))) - 8)
    return abs(actual - expected) <= 0.5 * digit9 + 4e-15 * abs(expected)


def cell_matches(actual: Any, expected: Any, fmt: str) -> bool:
    """Whether one emitted cell (CSV text or parsed JSON value) shows ``expected``."""
    if fmt == "csv":
        if expected is None:
            return actual == ""
        if expected is NONEMPTY:
            return actual != ""
        if isinstance(expected, bool):
            return actual == ("true" if expected else "false")
        if isinstance(expected, int):
            return actual == str(expected)
        if isinstance(expected, float):
            try:
                return _close(float(actual), expected)
            except (TypeError, ValueError):
                return False
        return actual == expected
    if expected is None or isinstance(expected, bool):
        return actual is expected
    if expected is NONEMPTY:
        return isinstance(actual, str) and actual != ""
    if isinstance(expected, int):
        return type(actual) is int and actual == expected
    if isinstance(expected, float):
        return type(actual) in (int, float) and _close(float(actual), expected)
    return actual == expected


def check_report(data: bytes, fmt: str, expected: Expected, rng: random.Random,
                 chk: Checker, label: str) -> None:
    """Check one report: strict parse, columns, row count, metadata, and a
    seeded sample of recomputed rows."""
    try:
        meta, columns, rows = parse_report(data, fmt)
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        chk.check(False, f"{label}: unparseable {fmt}: {exc}")
        return
    if not chk.check(columns == expected.columns,
                     f"{label}: columns {columns} != {expected.columns}"):
        return
    chk.check(len(rows) == expected.n_rows,
              f"{label}: {len(rows)} rows, expected {expected.n_rows}")
    for key, value in expected.metadata.items():
        chk.check(key in meta and cell_matches(meta[key], value, fmt),
                  f"{label}: metadata {key} = {meta.get(key)!r}, expected {value!r}")
    n = min(len(rows), expected.n_rows)
    for i in sorted(rng.sample(range(n), min(expected.sample, n))):
        want = expected.row(i)
        bad = [c for c, cell in zip(columns, rows[i]) if not cell_matches(cell, want[c], fmt)]
        chk.check(not bad, f"{label}: row {i} differs in {bad}: "
                           f"{dict(zip(columns, rows[i]))} vs {want}")
