"""Architecture what-if projection.

Maps a workload from its recorded architecture onto a candidate one,
keeping every per-cNode demand fixed, and quantifies per-step and
whole-job throughput speedups.  cNode counts adjust to the target's
placement constraints: local architectures fit one server (at most 8
replicas), cluster architectures retain the original count.

Infeasibility (model too big for weight-replica AllReduce, or no sparse
embedding to partition) is a result state, not an error, so population
sweeps never abort.

``population_speedup_profile`` applies each rule once, over columns,
and ``project`` is its one-job view.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple, Optional

from .core import (
    ArchitectureKind,
    ColumnTable,
    EfficiencyModel,
    HardwareProfile,
    OverlapMode,
    WorkloadRecord,
    placed_cnodes,
    require_jobs,
)
from .engine import breakdown, speedup


def target_cnode_count(rec: WorkloadRecord, target: ArchitectureKind) -> int:
    """cNode count after projection; identity projections never change it."""
    return rec.num_cnodes if target is rec.arch else placed_cnodes(target, rec.num_cnodes)


class ProjectionResult(NamedTuple):
    """One job projected onto a target architecture.

    ``step_speedup`` is the source step time over the target's (>1: the
    target steps faster); ``throughput_speedup`` scales it by the cNode
    ratio, as per-cNode batch size is held constant.  ``weight_bound``:
    weight traffic dominates the step on both sides, so the ideal-overlap
    step speedup is the pure weight-path ratio of the two architectures
    (e.g. 21x for PS/Worker to AllReduce-Local).
    """

    source_arch: ArchitectureKind
    target_arch: ArchitectureKind
    source_cnodes: int
    target_cnodes: int
    source_t_total: float
    target_t_total: Optional[float]
    step_speedup: Optional[float]
    throughput_speedup: Optional[float]
    feasible: bool
    weight_bound: bool
    reason: str


def project(rec: WorkloadRecord, target: ArchitectureKind, hw: HardwareProfile,
            eff: EfficiencyModel,
            overlap: OverlapMode = OverlapMode.NO_OVERLAP) -> ProjectionResult:
    """Evaluate ``rec`` as if retrained under ``target``: row 0 of its
    one-job ``population_speedup_profile``."""
    return population_speedup_profile([rec], target, hw, eff, overlap)[0][0]


@dataclass(frozen=True)
class ProjectionSummary:
    """Population-level view of one projection target.

    Fractions are over all jobs; infeasible jobs count as not sped up.
    """

    n_jobs: int
    n_infeasible: int
    fraction_infeasible: float
    fraction_step_sped_up: float
    fraction_throughput_sped_up: float


class ProjectionTable(ColumnTable):
    """Every job's ``ProjectionResult`` as one list per field, in job order:
    ``table.step_speedup[i]`` is job ``i``'s.  Its ``len`` is the job
    count; iterating or indexing builds each result on demand."""

    __slots__ = ProjectionResult._fields
    ROW = ProjectionResult


def summarize(results: Iterable[ProjectionResult]) -> ProjectionSummary:
    """The summary of a ``ProjectionTable`` or of any iterable of results."""
    table = ProjectionTable.of(results)
    n = len(table)
    if n == 0:
        raise ValueError("no projection results to summarize")
    n_infeasible = n - sum(table.feasible)
    step_up = sum(s > 1 for s in compress(table.step_speedup, table.feasible))
    thr_up = sum(s > 1 for s in compress(table.throughput_speedup, table.feasible))
    return ProjectionSummary(
        n_jobs=n,
        n_infeasible=n_infeasible,
        fraction_infeasible=n_infeasible / n,
        fraction_step_sped_up=step_up / n,
        fraction_throughput_sped_up=thr_up / n,
    )


def population_speedup_profile(
        pop: Iterable[WorkloadRecord], target: ArchitectureKind, hw: HardwareProfile,
        eff: EfficiencyModel, overlap: OverlapMode = OverlapMode.NO_OVERLAP,
) -> tuple[ProjectionTable, ProjectionSummary]:
    """Project every job onto ``target`` and summarize the outcome.  The
    loop over jobs only makes the source ``breakdown`` and, for a feasible
    job, the target record and its ``breakdown``."""
    pop = require_jobs(pop)
    target_cnodes = [n if arch is target else placed_cnodes(target, n)
                     for arch, n in zip(pop.arch, pop.num_cnodes)]
    # An identity projection is always feasible.  AllReduce replicates all
    # weights per GPU, so the model must fit in GPU memory; PEARL partitions
    # a sparse embedding.
    cap = hw.gpu_mem_capacity
    if target in (ArchitectureKind.ALLREDUCE_LOCAL, ArchitectureKind.ALLREDUCE_CLUSTER):
        reason = [f"model weights ({m:.6g} B) exceed GPU memory capacity ({cap:.6g} B)"
                  if arch is not target and m > cap else ""
                  for arch, m in zip(pop.arch, pop.model_bytes)]
    elif target is ArchitectureKind.PEARL:
        reason = ["no sparse embedding" if arch is not target and e <= 0 else ""
                  for arch, e in zip(pop.arch, pop.embedding_weight_bytes)]
    else:
        reason = [""] * len(pop)
    feasible = [not r for r in reason]

    # Each job's source and then target (for an infeasible job, its source
    # again), held as doubles so that no part outlives its job.
    t_total, t_data, t_compute, t_weight = [], array("d"), array("d"), array("d")
    for rec, cnodes, ok in zip(pop, target_cnodes, feasible):
        source = projected = breakdown(rec, hw, eff, overlap)
        if ok:
            # Only arch and placement change; a 1w1g target has no weight
            # path, so the weight volume reaches no medium.  Positional
            # construction costs half of dataclasses.replace.
            projected = breakdown(WorkloadRecord(
                rec.job_id, target, cnodes, rec.batch_size, rec.flops, rec.mem_access_bytes,
                rec.input_bytes, rec.weight_traffic_bytes, rec.dense_weight_bytes,
                rec.embedding_weight_bytes, rec.measured_step_seconds, rec.notes),
                hw, eff, overlap)
        for bd in source, projected:
            t_total.append(bd.t_total)
            t_data.append(bd.t_data)
            t_compute.append(bd.t_compute_bound + bd.t_memory_bound)
            t_weight.append(bd.t_weight)

    # Weight-bound: weight traffic is the largest part of the step, and nonzero.
    bound = [0 < w and w >= d and w >= c for d, c, w in zip(t_data, t_compute, t_weight)]
    weight_bound = [ok and s and t for ok, s, t in zip(feasible, bound[::2], bound[1::2])]
    source_total = t_total[::2]
    target_total = [t if ok else None for t, ok in zip(t_total[1::2], feasible)]
    step = [speedup(s, t) if ok else None
            for s, t, ok in zip(source_total, target_total, feasible)]
    throughput = [x * c / n if ok else None
                  for x, c, n, ok in zip(step, target_cnodes, pop.num_cnodes, feasible)]
    # An infinite speedup is emitted as an empty cell; the reason says why.
    reason = ["target step time is zero" if x == math.inf else r for x, r in zip(step, reason)]
    table = ProjectionTable(pop.arch, [target] * len(pop), pop.num_cnodes, target_cnodes,
                            source_total, target_total, step, throughput, feasible,
                            weight_bound, reason)
    return table, summarize(table)
