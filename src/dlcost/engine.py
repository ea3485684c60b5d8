"""The analytical step-time model.

One training step decomposes into three parts:

  * input data I/O      t_data    = input_bytes / attainable PCIe bandwidth,
                                    divided further when several replicas
                                    share one server's PCIe complex;
  * computation         t_compute = flops / attainable FLOPs
                                    + mem_access_bytes / attainable memory
                                    bandwidth (compute-bound + memory-bound);
  * weight movement     t_weight  = weight_traffic_bytes pushed serially
                                    through each medium on the
                                    architecture's path.

"Attainable" means peak capacity scaled by the efficiency model.  The
total is either the sum of the three parts (no overlap) or their
maximum (ideal overlap).  All functions are pure and deterministic.

The model is evaluated two ways.  ``breakdown`` decomposes one job into
a ``TimeBreakdown``; it serves per-job reports and projections and is
the reference the other path is tested against.  ``evaluate`` runs the
same arithmetic over a whole population held as ``Columns``, for the
analyses that re-evaluate every job at many model points (sweeps,
sensitivity grids, population shares).  Both perform the same float
operations in the same order, so their results are bit-identical.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .core import (
    GPUS_PER_SERVER,
    LOCAL_MULTI_GPU,
    ArchitectureKind,
    EfficiencyModel,
    HardwareProfile,
    Medium,
    OverlapMode,
    Shares,
    TimeBreakdown,
    WorkloadRecord,
    ZERO_SHARES,
)

#: Media traversed by weight/gradient traffic, in transfer order.
WEIGHT_MEDIUM_PATHS: dict[ArchitectureKind, tuple[Medium, ...]] = {
    ArchitectureKind.ONE_WORKER_ONE_GPU: (),
    ArchitectureKind.ONE_WORKER_N_GPU: (Medium.PCIE,),
    ArchitectureKind.PS_WORKER: (Medium.ETHERNET, Medium.PCIE),
    ArchitectureKind.ALLREDUCE_LOCAL: (Medium.NVLINK,),
    ArchitectureKind.ALLREDUCE_CLUSTER: (Medium.ETHERNET, Medium.NVLINK),
    ArchitectureKind.PEARL: (Medium.NVLINK,),
}


def pcie_contention(arch: ArchitectureKind, num_cnodes: int) -> int:
    """Replicas competing for one server's PCIe during input loading.

    Architectures co-locating replicas on one server feed input data to
    all of them simultaneously over the same PCIe complex; cluster
    architectures place one replica per server.
    """
    if arch in LOCAL_MULTI_GPU:
        return min(num_cnodes, GPUS_PER_SERVER)
    return 1


def data_io_time(rec: WorkloadRecord, hw: HardwareProfile, eff: EfficiencyModel) -> float:
    """Seconds to load one step's input samples from host to GPU."""
    contention = pcie_contention(rec.arch, rec.num_cnodes)
    return rec.input_bytes / (hw.pcie_bandwidth * eff.pcie_eff / contention)


def compute_time(rec: WorkloadRecord, hw: HardwareProfile,
                 eff: EfficiencyModel) -> tuple[float, float]:
    """(compute-bound, memory-bound) seconds of GPU computation."""
    t_cb = rec.flops / (hw.gpu_peak_flops * eff.compute_eff)
    t_mb = rec.mem_access_bytes / (hw.gpu_mem_bandwidth * eff.mem_eff)
    return t_cb, t_mb


def weight_time(rec: WorkloadRecord, hw: HardwareProfile,
                eff: EfficiencyModel) -> tuple[dict[Medium, float], float]:
    """Per-medium and total weight-movement seconds.

    The traffic volume crosses every medium on the architecture's path in
    sequence, so the total is the sum of per-medium times.
    """
    per_medium: dict[Medium, float] = {}
    total = 0.0
    for medium in WEIGHT_MEDIUM_PATHS[rec.arch]:
        t = rec.weight_traffic_bytes / (hw.bandwidth_for(medium) * eff.for_medium(medium))
        per_medium[medium] = t
        total += t
    return per_medium, total


def breakdown(rec: WorkloadRecord, hw: HardwareProfile, eff: EfficiencyModel,
              overlap: OverlapMode = OverlapMode.NO_OVERLAP) -> TimeBreakdown:
    """Full per-step time decomposition of ``rec`` on ``hw``.

    Shares always divide by the sum of components, so under ideal
    overlap they still partition unity even though ``t_total`` is the
    max.
    """
    t_data = data_io_time(rec, hw, eff)
    t_cb, t_mb = compute_time(rec, hw, eff)
    t_compute = t_cb + t_mb
    per_medium, t_weight = weight_time(rec, hw, eff)

    component_sum = t_data + t_compute + t_weight
    if overlap is OverlapMode.IDEAL_OVERLAP:
        t_total = max(t_data, t_compute, t_weight)
    else:
        t_total = component_sum

    shares_defined = component_sum > 0
    if shares_defined:
        shares = Shares(t_data / component_sum, t_cb / component_sum,
                        t_mb / component_sum, t_weight / component_sum)
    else:
        shares = ZERO_SHARES
    return TimeBreakdown(t_data, t_cb, t_mb, per_medium, t_weight, t_total, shares,
                         shares_defined)


class Columns(NamedTuple):
    """A population's model inputs as parallel per-job lists, in job order.

    ``weight_groups`` partitions the jobs by architecture: one
    ``(weight path, job indices, weight bytes)`` triple per architecture
    present, so each medium on a path divides a whole group at once.
    """

    flops: list[float]
    mem_access_bytes: list[float]
    input_bytes: list[float]
    pcie_contention: list[int]
    weight_groups: tuple[tuple[tuple[Medium, ...], list[int], list[float]], ...]
    num_cnodes: list[int]

    @classmethod
    def of(cls, records: Iterable[WorkloadRecord]) -> "Columns":
        records = tuple(records)
        groups: dict[ArchitectureKind, tuple[list[int], list[float]]] = {}
        for i, rec in enumerate(records):
            jobs, volumes = groups.setdefault(rec.arch, ([], []))
            jobs.append(i)
            volumes.append(rec.weight_traffic_bytes)
        return cls(
            flops=[rec.flops for rec in records],
            mem_access_bytes=[rec.mem_access_bytes for rec in records],
            input_bytes=[rec.input_bytes for rec in records],
            pcie_contention=[pcie_contention(rec.arch, rec.num_cnodes) for rec in records],
            weight_groups=tuple((WEIGHT_MEDIUM_PATHS[arch], jobs, volumes)
                                for arch, (jobs, volumes) in groups.items()),
            num_cnodes=[rec.num_cnodes for rec in records],
        )


_SHARE_TIMES = dict(zip(Shares.COMPONENTS,
                        ("t_data", "t_compute_bound", "t_memory_bound", "t_weight")))


class Evaluation(NamedTuple):
    """Per-job step times of a population at one model point, in job order.

    Each list holds, per job, the value of the ``TimeBreakdown`` field of
    the same name; ``component_sum`` is the denominator of the shares.
    """

    t_data: list[float]
    t_compute_bound: list[float]
    t_memory_bound: list[float]
    t_weight: list[float]
    t_total: list[float]
    component_sum: list[float]

    def share(self, component: str) -> list[float]:
        """Per-job share of one ``Shares`` component (0.0 for all-zero jobs)."""
        if component not in _SHARE_TIMES:
            raise ValueError(f"unknown share component {component!r} "
                             f"(known: {Shares.COMPONENTS})")
        times = getattr(self, _SHARE_TIMES[component])
        return [t / s if s > 0 else 0.0 for t, s in zip(times, self.component_sum)]


def evaluate(cols: Columns, hw: HardwareProfile, eff: EfficiencyModel,
             overlap: OverlapMode = OverlapMode.NO_OVERLAP) -> Evaluation:
    """``breakdown`` of every job in ``cols`` on ``hw``, as columns.

    Each attainable rate is computed once per call (PCIe once per
    contention level) and every per-job expression keeps the operation
    order of ``breakdown``, so each value equals the scalar result bit
    for bit.
    """
    pcie = hw.pcie_bandwidth * eff.pcie_eff
    data_rate = {c: pcie / c for c in set(cols.pcie_contention)}
    t_data = [b / data_rate[c] for b, c in zip(cols.input_bytes, cols.pcie_contention)]
    cb_rate = hw.gpu_peak_flops * eff.compute_eff
    t_cb = [f / cb_rate for f in cols.flops]
    mb_rate = hw.gpu_mem_bandwidth * eff.mem_eff
    t_mb = [m / mb_rate for m in cols.mem_access_bytes]

    medium_rate = {m: hw.bandwidth_for(m) * eff.for_medium(m) for m in Medium}
    t_weight = [0.0] * len(t_data)
    for path, jobs, volumes in cols.weight_groups:
        totals = [0.0] * len(jobs)
        for medium in path:
            rate = medium_rate[medium]
            totals = [t + v / rate for t, v in zip(totals, volumes)]
        for i, t in zip(jobs, totals):
            t_weight[i] = t

    sums = [d + (cb + mb) + w for d, cb, mb, w in zip(t_data, t_cb, t_mb, t_weight)]
    if overlap is OverlapMode.IDEAL_OVERLAP:
        t_total = [max(d, cb + mb, w) for d, cb, mb, w in zip(t_data, t_cb, t_mb, t_weight)]
    else:
        t_total = sums
    return Evaluation(t_data=t_data, t_compute_bound=t_cb, t_memory_bound=t_mb,
                      t_weight=t_weight, t_total=t_total, component_sum=sums)


def speedup(base_total: float, new_total: float) -> float:
    """``base_total / new_total``; a zero-time step is infinitely faster than
    a nonzero one and exactly as fast as another zero-time step."""
    if new_total == 0:
        return 1.0 if base_total == 0 else math.inf
    return base_total / new_total


def throughput(rec: WorkloadRecord, t_total: float) -> float:
    """Samples per second across all of the job's cNodes.

    (num_cnodes / t_total) steps per unit time, each consuming
    ``batch_size`` samples per cNode.
    """
    if t_total <= 0:
        raise ValueError(f"t_total must be positive, got {t_total!r}")
    return rec.num_cnodes / t_total * rec.batch_size


def validation_gap(predicted: float, measured: float) -> float:
    """Signed relative difference (predicted - measured) / measured."""
    if measured <= 0:
        raise ValueError(f"measured time must be positive, got {measured!r}")
    return (predicted - measured) / measured
