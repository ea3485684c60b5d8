"""Architecture what-if projection.

Maps a workload from its recorded architecture onto a candidate one,
keeping every per-cNode demand fixed, and quantifies per-step and
whole-job throughput speedups.  cNode counts adjust to the target's
placement constraints: local architectures fit one server (at most 8
replicas), cluster architectures retain the original count.

Infeasibility (model too big for weight-replica AllReduce, or no sparse
embedding to partition) is a result state, not an error, so population
sweeps never abort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .core import (
    ArchitectureKind,
    EfficiencyModel,
    HardwareProfile,
    OverlapMode,
    TimeBreakdown,
    WorkloadRecord,
    placed_cnodes,
    require_jobs,
)
from .engine import breakdown, speedup

_ALLREDUCE_TARGETS = frozenset({ArchitectureKind.ALLREDUCE_LOCAL, ArchitectureKind.ALLREDUCE_CLUSTER})


def target_cnode_count(rec: WorkloadRecord, target: ArchitectureKind) -> int:
    """cNode count after projection; identity projections never change it."""
    return rec.num_cnodes if target is rec.arch else placed_cnodes(target, rec.num_cnodes)


def _weight_bound(bd: TimeBreakdown) -> bool:
    """Weight traffic dominates the step (is the max component, nonzero)."""
    t_compute = bd.t_compute_bound + bd.t_memory_bound
    return bd.t_weight > 0 and bd.t_weight >= bd.t_data and bd.t_weight >= t_compute


class ProjectionResult(NamedTuple):
    """One job projected onto a target architecture.

    ``weight_bound``: weight traffic dominates the step on both sides, so
    the ideal-overlap step speedup is the pure weight-path ratio of the
    two architectures (e.g. 21x for PS/Worker to AllReduce-Local).
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
    """Evaluate ``rec`` as if retrained under ``target``.

    step_speedup is the ratio of per-step totals (>1 means the target
    steps faster); throughput_speedup additionally scales by the cNode
    ratio since per-cNode batch size is held constant.
    """
    source_bd = breakdown(rec, hw, eff, overlap)
    target_cnodes = target_cnode_count(rec, target)

    reason = ""
    if target is not rec.arch:
        # AllReduce replicates all weights per GPU, so the model must fit
        # in GPU memory; PEARL partitions a sparse embedding.
        if target in _ALLREDUCE_TARGETS and rec.model_bytes > hw.gpu_mem_capacity:
            reason = (f"model weights ({rec.model_bytes:.6g} B) exceed GPU memory capacity "
                      f"({hw.gpu_mem_capacity:.6g} B)")
        elif target is ArchitectureKind.PEARL and rec.embedding_weight_bytes <= 0:
            reason = "no sparse embedding"
    if reason:
        return ProjectionResult(rec.arch, target, rec.num_cnodes, target_cnodes,
                                source_bd.t_total, None, None, None,
                                feasible=False, weight_bound=False, reason=reason)

    # Per-cNode demands are untouched; only arch and placement change.  A
    # 1w1g target simply has no weight path, so a nonzero weight volume in
    # the hypothetical record never reaches any medium.  Positional
    # construction costs half of dataclasses.replace, per feasible job.
    target_rec = WorkloadRecord(rec.job_id, target, target_cnodes, rec.batch_size, rec.flops,
                                rec.mem_access_bytes, rec.input_bytes, rec.weight_traffic_bytes,
                                rec.dense_weight_bytes, rec.embedding_weight_bytes,
                                rec.measured_step_seconds, rec.notes)
    target_bd = breakdown(target_rec, hw, eff, overlap)

    step_speedup = speedup(source_bd.t_total, target_bd.t_total)
    throughput_speedup = step_speedup * target_cnodes / rec.num_cnodes
    # An infinite speedup is emitted as an empty cell; the reason says why.
    reason = "target step time is zero" if step_speedup == math.inf else ""

    return ProjectionResult(rec.arch, target, rec.num_cnodes, target_cnodes,
                            source_bd.t_total, target_bd.t_total,
                            step_speedup, throughput_speedup, feasible=True,
                            weight_bound=_weight_bound(source_bd) and _weight_bound(target_bd),
                            reason=reason)


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


def summarize(results: list[ProjectionResult]) -> ProjectionSummary:
    n = len(results)
    if n == 0:
        raise ValueError("no projection results to summarize")
    feasible = [r for r in results if r.feasible]
    n_infeasible = n - len(feasible)
    step_up = sum(1 for r in feasible if r.step_speedup > 1)
    thr_up = sum(1 for r in feasible if r.throughput_speedup > 1)
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
) -> tuple[list[ProjectionResult], ProjectionSummary]:
    """Project every job onto ``target`` and summarize the outcome."""
    pop = require_jobs(pop)
    results = [project(rec, target, hw, eff, overlap) for rec in pop]
    return results, summarize(results)
