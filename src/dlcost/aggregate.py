"""Cluster-level statistics over populations of workloads.

Job-level statistics treat every job equally; cNode-level statistics
weight each job by its share of the population's computation nodes, so
big distributed jobs dominate the way they dominate cluster resources.

All reductions use exact summation (math.fsum), which makes every
statistic invariant under permutation of the population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence

from .core import (
    ArchitectureKind,
    EfficiencyModel,
    HardwareProfile,
    Shares,
    WorkloadRecord,
    require_jobs,
)
from .engine import evaluate
# Unused here, but perfbench's tracer patches ``dlcost.aggregate.breakdown``.
from .engine import breakdown  # noqa: F401


@dataclass(frozen=True)
class EmpiricalCDF:
    """Right-continuous empirical CDF: sorted (x, cumulative fraction) steps."""

    points: tuple[tuple[float, float], ...]

    @classmethod
    def from_samples(cls, values: Sequence[float],
                     weights: Optional[Sequence[float]] = None) -> "EmpiricalCDF":
        if not values:
            raise ValueError("cannot build a CDF from no samples")
        if weights is None:
            weights = [1.0] * len(values)
        if len(weights) != len(values):
            raise ValueError("values and weights differ in length")
        grouped: dict[float, list[float]] = {}
        for v, w in zip(values, weights):
            # + 0.0 keys a tie of 0.0 and -0.0 by 0.0, whichever comes first.
            grouped.setdefault(float(v) + 0.0, []).append(float(w))
        # fsum per tie group, then a fixed-order cumulative pass: the result
        # is independent of the input ordering.
        xs = sorted(grouped)
        group_w = [math.fsum(grouped[x]) for x in xs]
        total = math.fsum(group_w)
        if total <= 0:
            raise ValueError("total weight must be positive")
        points = []
        running = 0.0
        for x, w in zip(xs, group_w):
            running += w
            points.append((x, running / total))
        return cls(points=tuple(points))


@dataclass(frozen=True)
class ArchComposition:
    arch: ArchitectureKind
    job_count: int
    job_fraction: float
    cnode_count: int
    cnode_fraction: float


def composition(pop: Iterable[WorkloadRecord]) -> dict[ArchitectureKind, ArchComposition]:
    """Per-architecture job and cNode counts and fractions."""
    pop = require_jobs(pop)
    total_jobs = len(pop)
    total_cnodes = sum(pop.num_cnodes)
    jobs = dict.fromkeys(ArchitectureKind, 0)
    cnodes = dict.fromkeys(ArchitectureKind, 0)
    for arch, n in zip(pop.arch, pop.num_cnodes):
        jobs[arch] += 1
        cnodes[arch] += n
    return {arch: ArchComposition(
                arch=arch,
                job_count=jobs[arch],
                job_fraction=jobs[arch] / total_jobs,
                cnode_count=cnodes[arch],
                cnode_fraction=cnodes[arch] / total_cnodes,
            ) for arch in ArchitectureKind}


def job_level_mean(values: Sequence[float]) -> float:
    """Unweighted mean over jobs."""
    if not values:
        raise ValueError("no values to average")
    return math.fsum(values) / len(values)


def cnode_level_mean(values: Sequence[float], cnode_counts: Sequence[int]) -> float:
    """Mean weighted by each job's share of all cNodes."""
    if not values:
        raise ValueError("no values to average")
    if len(values) != len(cnode_counts):
        raise ValueError("values and cnode_counts differ in length")
    total = sum(cnode_counts)
    if total <= 0:
        raise ValueError("total cNode count must be positive")
    # A list, not a generator: fsum reads it faster.
    return math.fsum([(c / total) * v for v, c in zip(values, cnode_counts)])


@dataclass(frozen=True)
class BreakdownAverages:
    """Population-average shares at both aggregation levels."""

    job_level: Shares
    cnode_level: Shares


def weighted_breakdown(pop: Iterable[WorkloadRecord], hw: HardwareProfile,
                       eff: EfficiencyModel) -> BreakdownAverages:
    """Average shares per component, job-level and cNode-weighted."""
    pop = require_jobs(pop)
    ev = evaluate(pop, hw, eff)
    job = {}
    cnode = {}
    for name in Shares.COMPONENTS:
        values = ev.share(name)
        job[name] = job_level_mean(values)
        cnode[name] = cnode_level_mean(values, pop.num_cnodes)
    return BreakdownAverages(job_level=Shares(**job), cnode_level=Shares(**cnode))


def share_cdf(pop: Iterable[WorkloadRecord], component: str, hw: HardwareProfile,
              eff: EfficiencyModel, level: str = "job") -> EmpiricalCDF:
    """Empirical CDF of one share component across the population."""
    if level not in ("job", "cnode"):
        raise ValueError(f"level must be 'job' or 'cnode', got {level!r}")
    pop = require_jobs(pop)
    values = evaluate(pop, hw, eff).share(component)
    weights = [float(c) for c in pop.num_cnodes] if level == "cnode" else None
    return EmpiricalCDF.from_samples(values, weights)


@dataclass(frozen=True)
class ScaleDistribution:
    """CDFs of job scale within one architecture."""

    arch: ArchitectureKind
    cnodes: EmpiricalCDF
    model_bytes: EmpiricalCDF


def scale_distribution(
        pop: Iterable[WorkloadRecord]) -> dict[ArchitectureKind, ScaleDistribution]:
    """Per-architecture CDFs of cNode count and model weight size."""
    pop = require_jobs(pop)
    model_bytes = pop.model_bytes
    result = {}
    for arch in ArchitectureKind:
        jobs = [arch is a for a in pop.arch]
        if not any(jobs):
            continue
        result[arch] = ScaleDistribution(
            arch=arch,
            cnodes=EmpiricalCDF.from_samples([float(n) for n in compress(pop.num_cnodes, jobs)]),
            model_bytes=EmpiricalCDF.from_samples(list(compress(model_bytes, jobs))),
        )
    return result
