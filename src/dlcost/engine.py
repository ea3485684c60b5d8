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
a ``TimeBreakdown``; it serves projections and the one-job API and is
the reference the other path is tested against.  Every other analysis
runs on a population held as ``Columns``: ``terms`` divides out each
rate once, and ``Evaluation`` combines the terms into step times and
shares.  Both paths perform the same float operations in the same order
(``Medium`` order is every weight path's order), so their results are
bit-identical.
"""

from __future__ import annotations

import math
import operator
from dataclasses import fields
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional

from .core import (
    GPUS_PER_SERVER,
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

#: Each medium's (``HardwareProfile`` bandwidth, ``EfficiencyModel``
#: efficiency) field names, from the fields' ``medium`` metadata.
_MEDIUM_RATE_FIELDS: dict[Medium, tuple[str, ...]] = {
    medium: tuple(f.name for cls in (HardwareProfile, EfficiencyModel) for f in fields(cls)
                  if f.metadata["medium"] is medium)
    for medium in Medium}


def pcie_contention(arch: ArchitectureKind, num_cnodes: int) -> int:
    """Replicas competing for one server's PCIe during input loading.

    Architectures co-locating replicas on one server feed input data to
    all of them simultaneously over the same PCIe complex; cluster
    architectures place one replica per server.
    """
    if arch in LOCAL_MULTI_GPU:
        return min(num_cnodes, GPUS_PER_SERVER)
    return 1


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
        bandwidth, efficiency = _MEDIUM_RATE_FIELDS[medium]
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


class Columns(NamedTuple):
    """A population's model inputs as parallel per-job lists, in job order.

    ``weight_on`` holds one list per medium, in ``Medium`` order: a job's
    weight bytes where that medium is on its architecture's weight path,
    else 0.0.
    """

    flops: list[float]
    mem_access_bytes: list[float]
    input_bytes: list[float]
    pcie_contention: list[int]
    weight_on: dict[Medium, list[float]]
    num_cnodes: list[int]

    @classmethod
    def of(cls, records: Iterable[WorkloadRecord]) -> "Columns":
        """The model inputs of ``Population.of(records)``, sharing its
        flops, memory, input and cNode lists."""
        pop = Population.of(records)
        paths = list(map(WEIGHT_MEDIUM_PATHS.__getitem__, pop.arch))
        return cls(
            flops=pop.flops,
            mem_access_bytes=pop.mem_access_bytes,
            input_bytes=pop.input_bytes,
            pcie_contention=list(map(pcie_contention, pop.arch, pop.num_cnodes)),
            weight_on={m: [w if m in path else 0.0
                           for w, path in zip(pop.weight_traffic_bytes, paths)] for m in Medium},
            num_cnodes=pop.num_cnodes,
        )


class Term(NamedTuple):
    """One term's per-job times and the attainable rate they divide by."""

    rate: float
    times: list[float]


class Terms(NamedTuple):
    """A population's terms at one model point, ``weight_on`` in ``Medium`` order."""

    data: Term
    compute_bound: Term
    memory_bound: Term
    weight_on: dict[Medium, Term]


def terms(cols: Columns, hw: HardwareProfile, eff: EfficiencyModel,
          like: Optional[Terms] = None) -> Terms:
    """Every job's terms on ``hw``: each attainable rate is computed once
    (PCIe once per contention level) and divided out in ``breakdown``'s
    order, so each value equals the scalar result bit for bit.  A term of
    ``like`` (terms of the same ``cols``) whose rate is unchanged is reused."""
    def term(old: Optional[Term], rate: float, divide: Callable[[float], list[float]]) -> Term:
        return old if old is not None and old.rate == rate else Term(rate, divide(rate))

    def divided(volumes: list[float]) -> Callable[[float], list[float]]:
        return lambda rate: [v / rate for v in volumes]

    def data(pcie: float) -> list[float]:
        data_rate = {c: pcie / c for c in set(cols.pcie_contention)}
        return [b / data_rate[c] for b, c in zip(cols.input_bytes, cols.pcie_contention)]

    old = like or Terms(None, None, None, dict.fromkeys(Medium))
    return Terms(
        term(old.data, hw.pcie_bandwidth * eff.pcie_eff, data),
        term(old.compute_bound, hw.gpu_peak_flops * eff.compute_eff, divided(cols.flops)),
        term(old.memory_bound, hw.gpu_mem_bandwidth * eff.mem_eff,
             divided(cols.mem_access_bytes)),
        {m: term(old.weight_on[m], getattr(hw, bandwidth) * getattr(eff, efficiency),
                 divided(cols.weight_on[m]))
         for m, (bandwidth, efficiency) in _MEDIUM_RATE_FIELDS.items()},
    )


def share_of(times: list[float], t_data: list[float], t_compute: list[float],
             t_weight: list[float]) -> list[float]:
    """Per-job ``times`` over ``component_sum``, formed in the same pass
    (0.0 for all-zero jobs)."""
    return [t / s if (s := d + c + w) > 0 else 0.0
            for t, d, c, w in zip(times, t_data, t_compute, t_weight)]


_SHARE_TIMES = dict(zip(Shares.COMPONENTS,
                        ("t_data", "t_compute_bound", "t_memory_bound", "t_weight")))


class Evaluation:
    """The combine step: per-job step times at one model point, in job order.

    Each column holds the ``TimeBreakdown`` field of the same name, plus
    ``t_weight_on`` (each medium's part of ``t_weight``), ``t_compute`` and
    ``component_sum`` (the shares' denominator).  A combined column is
    built when first read, so a caller pays only for what it reads.  Given
    ``like`` (an evaluation of the same columns at another point),
    ``t_compute`` and ``t_weight`` are taken from it when their term lists
    are ``like``'s own.
    """

    def __init__(self, t: Terms, like: Optional["Evaluation"] = None) -> None:
        self.t_data = t.data.times
        self.t_compute_bound = t.compute_bound.times
        self.t_memory_bound = t.memory_bound.times
        self.t_weight_on = {m: term.times for m, term in t.weight_on.items()}
        if like is None:
            return
        if (self.t_compute_bound is like.t_compute_bound
                and self.t_memory_bound is like.t_memory_bound):
            self.t_compute = like.t_compute
        if all(map(operator.is_, self.t_weight_on.values(), like.t_weight_on.values())):
            self.t_weight = like.t_weight

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


def evaluate(cols: Columns, hw: HardwareProfile, eff: EfficiencyModel) -> Evaluation:
    """``breakdown`` of every job in ``cols`` on ``hw``, as columns."""
    return Evaluation(terms(cols, hw, eff))


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
