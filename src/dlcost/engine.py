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
a ``TimeBreakdown``; it serves the projection profile's two per-job
calls (source and target) and the one-job API.  Every other analysis
calls ``evaluate`` on a ``Population``: one loop over ``_RATE_FIELDS``,
the table of each term's hardware and efficiency fields, that divides
each term's per-job volumes by its attainable rate, and an
``Evaluation`` that combines the terms into step times and shares.
Both paths perform the same float operations in the same order
(``Medium`` order is every weight path's order), so their results are
bit-identical; the tests hold both to a closed form of their own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import fields
from functools import cached_property
from typing import Optional

from .core import (
    LOCAL_MULTI_GPU,
    ArchitectureKind,
    EfficiencyModel,
    HardwareProfile,
    Medium,
    OverlapMode,
    Population,
    Shares,
    TimeBreakdown,
    WorkloadRecord,
    ZERO_SHARES,
    placed_cnodes,
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

#: Each term's (``HardwareProfile`` peak, ``EfficiencyModel`` efficiency)
#: field names, whose product is its attainable rate, keyed by its
#: ``Evaluation`` column, or for a medium's part of ``t_weight`` by the
#: ``Medium`` (in ``Medium`` order) whose metadata the fields carry.
_RATE_FIELDS: dict[str | Medium, tuple[str, ...]] = {
    "t_data": ("pcie_bandwidth", "pcie_eff"),
    "t_compute_bound": ("gpu_peak_flops", "compute_eff"),
    "t_memory_bound": ("gpu_mem_bandwidth", "mem_eff"),
    **{medium: tuple(f.name for cls in (HardwareProfile, EfficiencyModel) for f in fields(cls)
                     if f.metadata["medium"] is medium)
       for medium in Medium},
}


def pcie_contention(arch: ArchitectureKind, num_cnodes: int) -> int:
    """Replicas competing for one server's PCIe during input loading.

    Architectures co-locating replicas on one server feed input data to
    all of them simultaneously over the same PCIe complex; cluster
    architectures place one replica per server.
    """
    return placed_cnodes(arch, num_cnodes) if arch in LOCAL_MULTI_GPU else 1


def breakdown(rec: WorkloadRecord, hw: HardwareProfile, eff: EfficiencyModel,
              overlap: OverlapMode = OverlapMode.NO_OVERLAP) -> TimeBreakdown:
    """Full per-step time decomposition of ``rec`` on ``hw``.

    Shares always divide by the sum of components, so under ideal
    overlap they still partition unity even though ``t_total`` is the
    max.
    """
    contention = pcie_contention(rec.arch, rec.num_cnodes)
    t_data = rec.input_bytes / (hw.pcie_bandwidth * eff.pcie_eff / contention)
    t_cb = rec.flops / (hw.gpu_peak_flops * eff.compute_eff)
    t_mb = rec.mem_access_bytes / (hw.gpu_mem_bandwidth * eff.mem_eff)
    t_compute = t_cb + t_mb
    # The weight volume crosses every medium on the path in sequence.
    t_weight = 0.0
    for medium in WEIGHT_MEDIUM_PATHS[rec.arch]:
        bandwidth, efficiency = _RATE_FIELDS[medium]
        t_weight += rec.weight_traffic_bytes / (getattr(hw, bandwidth) * getattr(eff, efficiency))

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
    return TimeBreakdown(t_data, t_cb, t_mb, t_weight, t_total, shares, shares_defined)


def share_of(times: list[float], t_data: list[float], t_compute: list[float],
             t_weight: list[float]) -> list[float]:
    """Per-job ``times`` over ``component_sum``, formed in the same pass
    (0.0 for all-zero jobs)."""
    return [t / s if (s := d + c + w) > 0 else 0.0
            for t, d, c, w in zip(times, t_data, t_compute, t_weight)]


_SHARE_TIMES = dict(zip(Shares.COMPONENTS,
                        ("t_data", "t_compute_bound", "t_memory_bound", "t_weight")))


class Evaluation:
    """Per-job step times of a population at one model point, in job order,
    as ``evaluate`` returns them.

    Each column holds the ``TimeBreakdown`` field of the same name, plus
    ``t_weight_on`` (each medium's part of ``t_weight``), ``t_compute`` and
    ``component_sum`` (the shares' denominator).  A combined column is
    built when first read, so a caller pays only for what it reads.
    """

    def __init__(self, pop: Population, contention: list[int],
                 volumes: dict[str | Medium, list[float]], rates: dict[str | Medium, float],
                 terms: dict[str | Medium, list[float]]) -> None:
        self._pop, self._contention, self._volumes = pop, contention, volumes
        self._rates, self._terms = rates, terms
        self.t_data = terms["t_data"]
        self.t_compute_bound = terms["t_compute_bound"]
        self.t_memory_bound = terms["t_memory_bound"]
        self.t_weight_on = {m: terms[m] for m in Medium}

    @cached_property
    def t_compute(self) -> list[float]:
        return [cb + mb for cb, mb in zip(self.t_compute_bound, self.t_memory_bound)]

    @cached_property
    def t_weight(self) -> list[float]:
        # Bit-identical to ``breakdown``'s sum from 0.0 in path order: every
        # path lists its media in ``Medium`` order, an off-path term is
        # exactly 0.0, and adding 0.0 to a sum that starts at 0.0 (never
        # -0.0) changes nothing.
        return [0.0 + e + p + n for e, p, n in zip(*self.t_weight_on.values())]

    @cached_property
    def component_sum(self) -> list[float]:
        return [d + c + w for d, c, w in zip(self.t_data, self.t_compute, self.t_weight)]

    def t_total(self, overlap: OverlapMode) -> list[float]:
        """Per-job step times: ``component_sum``, or each job's largest part
        under ideal overlap."""
        if overlap is OverlapMode.IDEAL_OVERLAP:
            return [max(d, c, w) for d, c, w in zip(self.t_data, self.t_compute, self.t_weight)]
        return self.component_sum

    def share(self, component: str) -> list[float]:
        """Per-job share of one ``Shares`` component (0.0 for all-zero jobs)."""
        if component not in _SHARE_TIMES:
            raise ValueError(f"unknown share component {component!r} "
                             f"(known: {Shares.COMPONENTS})")
        return [t / s if s > 0 else 0.0
                for t, s in zip(getattr(self, _SHARE_TIMES[component]), self.component_sum)]


def evaluate(pop: Population, hw: HardwareProfile, eff: EfficiencyModel,
             like: Optional[Evaluation] = None) -> Evaluation:
    """``breakdown`` of every job in ``pop`` on ``hw``, as columns.

    One loop over ``_RATE_FIELDS``: each term's attainable rate is
    computed once (PCIe data once per contention level) and divides the
    term's per-job volumes in ``breakdown``'s order, so each value equals
    the scalar result bit for bit.  Given ``like``, an evaluation of the
    same population at another point, a term whose rate is unchanged is
    reused, as are ``t_compute`` and ``t_weight`` when all of their terms
    are; each job's PCIe contention and the volumes are derived once per
    chain of evaluations.  A ``like`` of another population raises
    ValueError.
    """
    if like is None:
        # Each job's PCIe contention and per-term volumes: a medium's volume
        # is the job's weight bytes where it is on the job's path, else 0.0.
        contention = list(map(pcie_contention, pop.arch, pop.num_cnodes))
        paths = list(map(WEIGHT_MEDIUM_PATHS.__getitem__, pop.arch))
        volumes = {"t_data": pop.input_bytes, "t_compute_bound": pop.flops,
                   "t_memory_bound": pop.mem_access_bytes,
                   **{m: [w if m in path else 0.0
                          for w, path in zip(pop.weight_traffic_bytes, paths)]
                      for m in Medium}}
    elif like._pop is pop:
        contention, volumes = like._contention, like._volumes
    else:
        raise ValueError("like is an evaluation of another population")

    rates, terms = {}, {}
    for key, (peak, efficiency) in _RATE_FIELDS.items():
        rate = rates[key] = getattr(hw, peak) * getattr(eff, efficiency)
        if like is not None and like._rates[key] == rate:
            terms[key] = like._terms[key]
        elif key == "t_data":
            # The job's replicas share the PCIe rate: one rate per level.
            level_rate = {c: rate / c for c in set(contention)}
            terms[key] = [b / level_rate[c] for b, c in zip(volumes[key], contention)]
        else:
            terms[key] = [v / rate for v in volumes[key]]
    ev = Evaluation(pop, contention, volumes, rates, terms)
    if like is not None:
        if (ev.t_compute_bound is like.t_compute_bound
                and ev.t_memory_bound is like.t_memory_bound):
            ev.t_compute = like.t_compute
        if all(map(operator.is_, ev.t_weight_on.values(), like.t_weight_on.values())):
            ev.t_weight = like.t_weight
    return ev


def speedup(base_total: float, new_total: float) -> float:
    """``base_total / new_total``; a zero-time step is infinitely faster than
    a nonzero one and exactly as fast as another zero-time step."""
    if new_total == 0:
        return 1.0 if base_total == 0 else math.inf
    return base_total / new_total


def throughput(rec: WorkloadRecord, t_total: float) -> float:
    """Samples per second across all of the job's cNodes."""
    return samples_per_second(rec.num_cnodes, rec.batch_size, t_total)


def samples_per_second(num_cnodes: int, batch_size: int, t_total: float) -> float:
    """A job's throughput from its fields: (num_cnodes / t_total) steps per
    unit time, each consuming ``batch_size`` samples per cNode."""
    if t_total <= 0:
        raise ValueError(f"t_total must be positive, got {t_total!r}")
    return num_cnodes / t_total * batch_size


def validation_gap(predicted: float, measured: float) -> float:
    """Signed relative difference (predicted - measured) / measured."""
    if measured <= 0:
        raise ValueError(f"measured time must be positive, got {measured!r}")
    return (predicted - measured) / measured
