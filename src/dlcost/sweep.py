"""Hardware what-if sweeps and sensitivity analyses.

``hardware_sweep`` varies one resource at a time over candidate values
and reports per-job speedups against the baseline profile.
``efficiency_sensitivity`` maps how the weight-traffic share of step
time moves as compute and communication efficiencies drift from the
default.  ``overlap_comparison`` contrasts the no-overlap and
ideal-overlap readings of a projection.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

from .aggregate import EmpiricalCDF, JobPopulation, cnode_level_mean, job_level_mean
from .core import (
    ArchitectureKind,
    EfficiencyModel,
    HardwareProfile,
    OverlapMode,
    TimeBreakdown,
)
from .engine import Columns, evaluate, speedup
# Unused here, but perfbench's tracer patches ``dlcost.sweep.breakdown``.
from .engine import breakdown  # noqa: F401
from .projection import ProjectionResult, ProjectionSummary, population_speedup_profile


class SweepResource(Enum):
    """Hardware profile fields that sweeps may vary."""

    ETHERNET = "ethernet"
    PCIE = "pcie"
    GPU_FLOPS = "gpu_flops"
    GPU_MEM_BANDWIDTH = "gpu_mem_bandwidth"


_RESOURCE_FIELD = {
    SweepResource.ETHERNET: "ethernet_bandwidth",
    SweepResource.PCIE: "pcie_bandwidth",
    SweepResource.GPU_FLOPS: "gpu_peak_flops",
    SweepResource.GPU_MEM_BANDWIDTH: "gpu_mem_bandwidth",
}


@dataclass(frozen=True)
class SweepAxis:
    """Candidate values (canonical units) for one resource, plus the
    baseline used for reporting normalized candidates."""

    resource: SweepResource
    candidates: tuple[float, ...]
    baseline: float

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError(f"axis {self.resource.value}: no candidate values")
        for c in self.candidates:
            if not (math.isfinite(c) and c > 0):
                raise ValueError(f"axis {self.resource.value}: candidate {c!r} must be positive")
        if not (math.isfinite(self.baseline) and self.baseline > 0):
            raise ValueError(f"axis {self.resource.value}: baseline {self.baseline!r} must be positive")


#: Candidate grids for the standard what-if study, in canonical units:
#: Ethernet 10/25/100 Gbps, PCIe 10/50 GB/s, GPU peak 8/16/32/64 TFLOPs,
#: GPU memory bandwidth 1/2/4 TB/s.
STANDARD_CANDIDATES: dict[SweepResource, tuple[float, ...]] = {
    SweepResource.ETHERNET: (1.25e9, 3.125e9, 1.25e10),
    SweepResource.PCIE: (1e10, 5e10),
    SweepResource.GPU_FLOPS: (8e12, 16e12, 32e12, 64e12),
    SweepResource.GPU_MEM_BANDWIDTH: (1e12, 2e12, 4e12),
}


def standard_axes(base_hw: HardwareProfile,
                  resources: Optional[Sequence[SweepResource]] = None) -> tuple[SweepAxis, ...]:
    """Build the standard axes, normalizing against ``base_hw``'s values."""
    if resources is None:
        resources = tuple(SweepResource)
    return tuple(
        SweepAxis(resource=r, candidates=STANDARD_CANDIDATES[r],
                  baseline=getattr(base_hw, _RESOURCE_FIELD[r]))
        for r in resources
    )


def apply_axis(hw: HardwareProfile, resource: SweepResource, value: float) -> HardwareProfile:
    """Baseline profile with exactly one resource replaced."""
    return replace(hw, **{_RESOURCE_FIELD[resource]: value})


@dataclass(frozen=True)
class SweepCell:
    job_id: str
    resource: SweepResource
    candidate: float
    normalized: float  # candidate / axis baseline
    speedup: float     # t_total(baseline hw) / t_total(candidate hw)


def hardware_sweep(pop: JobPopulation, axes: Sequence[SweepAxis], base_hw: HardwareProfile,
                   eff: EfficiencyModel,
                   overlap: OverlapMode = OverlapMode.NO_OVERLAP) -> list[SweepCell]:
    """One-resource-at-a-time speedup table over jobs x axes x candidates."""
    pop.require_nonempty()
    if not axes:
        raise ValueError("no sweep axes given")
    cols = Columns.of(pop)
    base_totals = evaluate(cols, base_hw, eff, overlap).t_total
    job_ids = [rec.job_id for rec in pop]
    cells = []
    for axis in axes:
        for candidate in axis.candidates:
            hw = apply_axis(base_hw, axis.resource, candidate)
            new_totals = evaluate(cols, hw, eff, overlap).t_total
            normalized = candidate / axis.baseline
            cells.extend(
                SweepCell(job_id=job_id, resource=axis.resource, candidate=candidate,
                          normalized=normalized, speedup=speedup(base, new))
                for job_id, base, new in zip(job_ids, base_totals, new_totals))
    return cells


@dataclass(frozen=True)
class CartesianCell:
    job_id: str
    settings: tuple[tuple[SweepResource, float], ...]
    speedup: float


def cartesian_sweep(pop: JobPopulation, axes: Sequence[SweepAxis], base_hw: HardwareProfile,
                    eff: EfficiencyModel,
                    overlap: OverlapMode = OverlapMode.NO_OVERLAP,
                    size_warning_threshold: int = 100_000) -> list[CartesianCell]:
    """Full cross-product sweep over every axis combination.

    Emits a warning when the report would exceed ``size_warning_threshold``
    cells; prefer ``hardware_sweep`` for routine studies.
    """
    pop.require_nonempty()
    if not axes:
        raise ValueError("no sweep axes given")
    n_cells = len(pop)
    for axis in axes:
        n_cells *= len(axis.candidates)
    if n_cells > size_warning_threshold:
        warnings.warn(f"cartesian sweep emits {n_cells} cells", stacklevel=2)
    cols = Columns.of(pop)
    base_totals = evaluate(cols, base_hw, eff, overlap).t_total
    job_ids = [rec.job_id for rec in pop]
    cells = []
    for combo in itertools.product(*(axis.candidates for axis in axes)):
        settings = tuple((axis.resource, value) for axis, value in zip(axes, combo))
        hw = base_hw
        for resource, value in settings:
            hw = apply_axis(hw, resource, value)
        new_totals = evaluate(cols, hw, eff, overlap).t_total
        cells.extend(
            CartesianCell(job_id=job_id, settings=settings, speedup=speedup(base, new))
            for job_id, base, new in zip(job_ids, base_totals, new_totals))
    return cells


@dataclass(frozen=True)
class SensitivityCell:
    compute_eff: float
    comm_eff: float
    job_level_weight_share: float
    cnode_level_weight_share: float


def efficiency_sensitivity(pop: JobPopulation, hw: HardwareProfile,
                           compute_eff_grid: Sequence[float],
                           comm_eff_grid: Sequence[float],
                           overlap: OverlapMode = OverlapMode.NO_OVERLAP,
                           ) -> list[SensitivityCell]:
    """Weight-share surface over (compute efficiency, communication efficiency).

    Each grid point ties GPU compute and memory efficiency together and
    likewise all three transfer media, matching how the efficiencies are
    perturbed around the 0.7 default.
    """
    pop.require_nonempty()
    for grid, name in ((compute_eff_grid, "compute"), (comm_eff_grid, "communication")):
        if not grid:
            raise ValueError(f"empty {name} efficiency grid")
        for g in grid:
            if not (0 < g <= 1):
                raise ValueError(f"{name} efficiency {g!r} outside (0, 1]")
    cols = Columns.of(pop)
    cells = []
    for comp in compute_eff_grid:
        for comm in comm_eff_grid:
            eff = EfficiencyModel(compute_eff=comp, mem_eff=comp,
                                  pcie_eff=comm, ethernet_eff=comm, nvlink_eff=comm)
            weight_shares = evaluate(cols, hw, eff, overlap).share("weight")
            cells.append(SensitivityCell(
                compute_eff=comp,
                comm_eff=comm,
                job_level_weight_share=job_level_mean(weight_shares),
                cnode_level_weight_share=cnode_level_mean(weight_shares, cols.num_cnodes),
            ))
    return cells


def _weight_bound(bd: TimeBreakdown) -> bool:
    """Weight traffic dominates the step (is the max component, nonzero)."""
    return bd.t_weight > 0 and bd.t_weight >= bd.t_data and bd.t_weight >= bd.t_compute


def weight_bound_before_and_after(result: ProjectionResult) -> bool:
    """Whether a projected job is weight-traffic-bound on both sides.

    Such jobs' ideal-overlap step speedup equals the pure weight-path
    ratio between the two architectures (e.g. 21x for PS/Worker to
    AllReduce-Local on the baseline profile).
    """
    if not result.feasible or result.target_breakdown is None:
        return False
    return _weight_bound(result.source_breakdown) and _weight_bound(result.target_breakdown)


@dataclass(frozen=True)
class OverlapModeStats:
    overlap: OverlapMode
    job_level_weight_share: float
    cnode_level_weight_share: float
    weight_share_cdf: EmpiricalCDF
    summary: ProjectionSummary


@dataclass(frozen=True)
class OverlapComparison:
    target: ArchitectureKind
    no_overlap: OverlapModeStats
    ideal_overlap: OverlapModeStats
    #: Fraction of all jobs weight-bound before and after projection
    #: (under ideal overlap these achieve exactly the weight-path ratio).
    fraction_at_weight_path_ratio: float


def overlap_comparison(pop: JobPopulation, hw: HardwareProfile, eff: EfficiencyModel,
                       target: ArchitectureKind) -> OverlapComparison:
    """Paired no-overlap / ideal-overlap summaries for one projection target."""
    pop.require_nonempty()
    cnodes = [rec.num_cnodes for rec in pop]

    def stats(overlap: OverlapMode) -> tuple[OverlapModeStats, list[ProjectionResult]]:
        results, summary = population_speedup_profile(pop, target, hw, eff, overlap)
        weight_shares = [r.source_breakdown.shares.weight for r in results]
        return OverlapModeStats(
            overlap=overlap,
            job_level_weight_share=job_level_mean(weight_shares),
            cnode_level_weight_share=cnode_level_mean(weight_shares, cnodes),
            weight_share_cdf=EmpiricalCDF.from_samples(weight_shares),
            summary=summary,
        ), results

    none_stats, _ = stats(OverlapMode.NO_OVERLAP)
    ideal_stats, ideal_results = stats(OverlapMode.IDEAL_OVERLAP)
    at_ratio = sum(1 for r in ideal_results if weight_bound_before_and_after(r))
    return OverlapComparison(
        target=target,
        no_overlap=none_stats,
        ideal_overlap=ideal_stats,
        fraction_at_weight_path_ratio=at_ratio / len(pop),
    )
