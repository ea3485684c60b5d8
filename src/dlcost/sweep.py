"""Hardware what-if sweeps and sensitivity analyses.

``hardware_sweep`` varies one resource at a time over candidate values
and ``cartesian_sweep`` every combination of them; both report per-job
speedups against the baseline profile through one evaluation loop.
``efficiency_sensitivity`` maps how the weight-traffic share of step
time moves as compute and communication efficiencies drift from the
default.  ``overlap_comparison`` contrasts the no-overlap and
ideal-overlap readings of a projection.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import Field, dataclass, fields, replace
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .aggregate import cnode_level_mean, job_level_mean
from .core import (
    ArchitectureKind,
    EfficiencyModel,
    HardwareProfile,
    OverlapMode,
    WorkloadRecord,
    require_jobs,
)
from .engine import Columns, evaluate, speedup
# Unused here, but perfbench's tracer patches ``dlcost.sweep.breakdown``.
from .engine import breakdown  # noqa: F401
from .projection import ProjectionResult, ProjectionSummary, population_speedup_profile


_AXIS_FIELDS = {f.metadata["axis"]: f for f in fields(HardwareProfile) if f.metadata["axis"]}


class SweepResource(Enum):
    """Hardware profile fields that sweeps may vary."""

    ETHERNET = "ethernet"
    PCIE = "pcie"
    GPU_FLOPS = "gpu_flops"
    GPU_MEM_BANDWIDTH = "gpu_mem_bandwidth"

    @property
    def field(self) -> Field:
        """The ``HardwareProfile`` field whose ``axis`` metadata names this resource."""
        return _AXIS_FIELDS[self.value]


@dataclass(frozen=True)
class SweepAxis:
    """Candidate values (canonical units) for one resource."""

    resource: SweepResource
    candidates: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError(f"axis {self.resource.value}: no candidate values")
        for c in self.candidates:
            if not (math.isfinite(c) and c > 0):
                raise ValueError(f"axis {self.resource.value}: candidate {c!r} must be positive")
            if self.candidates.count(c) > 1:
                raise ValueError(
                    f"axis {self.resource.value}: candidate {c!r} given more than once")


#: Candidate grids for the standard what-if study, in canonical units:
#: Ethernet 10/25/100 Gbps, PCIe 10/50 GB/s, GPU peak 8/16/32/64 TFLOPs,
#: GPU memory bandwidth 1/2/4 TB/s.
STANDARD_CANDIDATES: dict[SweepResource, tuple[float, ...]] = {
    SweepResource.ETHERNET: (1.25e9, 3.125e9, 1.25e10),
    SweepResource.PCIE: (1e10, 5e10),
    SweepResource.GPU_FLOPS: (8e12, 16e12, 32e12, 64e12),
    SweepResource.GPU_MEM_BANDWIDTH: (1e12, 2e12, 4e12),
}

#: Report size above which ``cartesian_sweep`` warns.
CARTESIAN_WARNING_CELLS = 100_000


def standard_axes(resources: Optional[Sequence[SweepResource]] = None) -> tuple[SweepAxis, ...]:
    """The standard candidate grid of each resource (default: all four)."""
    if resources is None:
        resources = tuple(SweepResource)
    return tuple(SweepAxis(resource=r, candidates=STANDARD_CANDIDATES[r]) for r in resources)


#: The (resource, value) pairs that replace fields of the base profile.
Setting = tuple[tuple[SweepResource, float], ...]


class SweepCell(NamedTuple):
    job_id: str
    settings: Setting
    speedup: float  # t_total(base hw) / t_total(base hw with the settings)


def _sweep(pop: tuple[WorkloadRecord, ...], axes: Sequence[SweepAxis],
           settings: Sequence[Setting], base_hw: HardwareProfile, eff: EfficiencyModel,
           overlap: OverlapMode) -> list[SweepCell]:
    """Per-job speedup of each setting over ``base_hw``, setting-major."""
    if not axes:
        raise ValueError("no sweep axes given")
    cols = Columns.of(pop)
    base_totals = evaluate(cols, base_hw, eff, overlap).t_total
    job_ids = [rec.job_id for rec in pop]
    cells = []
    for setting in settings:
        hw = replace(base_hw, **{resource.field.name: value for resource, value in setting})
        new_totals = evaluate(cols, hw, eff, overlap).t_total
        cells.extend(SweepCell(job_id, setting, speedup(base, new))
                     for job_id, base, new in zip(job_ids, base_totals, new_totals))
    return cells


def per_setting(settings: Iterable[Setting], value: Callable[[Setting], object]) -> list:
    """One cell per sweep cell, ``value(setting)``, computed once per run of
    cells that share a setting (a sweep is setting-major)."""
    column = []
    for setting, cells in itertools.groupby(settings):
        column += [value(setting)] * len(tuple(cells))
    return column


def hardware_sweep(pop: Iterable[WorkloadRecord], axes: Sequence[SweepAxis],
                   base_hw: HardwareProfile, eff: EfficiencyModel,
                   overlap: OverlapMode = OverlapMode.NO_OVERLAP) -> list[SweepCell]:
    """One-resource-at-a-time speedup table over axes x candidates x jobs."""
    pop = require_jobs(pop)
    settings = [((axis.resource, c),) for axis in axes for c in axis.candidates]
    return _sweep(pop, axes, settings, base_hw, eff, overlap)


def cartesian_sweep(pop: Iterable[WorkloadRecord], axes: Sequence[SweepAxis],
                    base_hw: HardwareProfile, eff: EfficiencyModel,
                    overlap: OverlapMode = OverlapMode.NO_OVERLAP) -> list[SweepCell]:
    """Full cross-product sweep over every axis combination.

    Emits a warning when the report would exceed ``CARTESIAN_WARNING_CELLS``
    cells; prefer ``hardware_sweep`` for routine studies.
    """
    pop = require_jobs(pop)
    n_cells = len(pop) * math.prod(len(axis.candidates) for axis in axes)
    if n_cells > CARTESIAN_WARNING_CELLS:
        warnings.warn(f"cartesian sweep emits {n_cells} cells", stacklevel=2)
    resources = [axis.resource for axis in axes]
    settings = [tuple(zip(resources, combo))
                for combo in itertools.product(*(axis.candidates for axis in axes))]
    return _sweep(pop, axes, settings, base_hw, eff, overlap)


@dataclass(frozen=True)
class SensitivityCell:
    compute_eff: float
    comm_eff: float
    job_level_weight_share: float
    cnode_level_weight_share: float


def efficiency_sensitivity(pop: Iterable[WorkloadRecord], hw: HardwareProfile,
                           compute_eff_grid: Sequence[float],
                           comm_eff_grid: Sequence[float],
                           overlap: OverlapMode = OverlapMode.NO_OVERLAP,
                           ) -> list[SensitivityCell]:
    """Weight-share surface over (compute efficiency, communication efficiency).

    Each grid point ties GPU compute and memory efficiency together and
    likewise all three transfer media, matching how the efficiencies are
    perturbed around the 0.7 default.
    """
    pop = require_jobs(pop)
    for grid, name in ((compute_eff_grid, "compute"), (comm_eff_grid, "communication")):
        if not grid:
            raise ValueError(f"empty {name} efficiency grid")
        for g in grid:
            if not (0 < g <= 1):
                raise ValueError(f"{name} efficiency {g!r} outside (0, 1]")
            if grid.count(g) > 1:
                raise ValueError(f"{name} efficiency {g!r} given more than once")
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


@dataclass(frozen=True)
class OverlapModeStats:
    overlap: OverlapMode
    job_level_weight_share: float
    cnode_level_weight_share: float
    summary: ProjectionSummary


@dataclass(frozen=True)
class OverlapComparison:
    no_overlap: OverlapModeStats
    ideal_overlap: OverlapModeStats
    #: Fraction of all jobs weight-bound before and after projection
    #: (under ideal overlap these achieve exactly the weight-path ratio).
    fraction_at_weight_path_ratio: float


def overlap_comparison(pop: Iterable[WorkloadRecord], hw: HardwareProfile,
                       eff: EfficiencyModel, target: ArchitectureKind) -> OverlapComparison:
    """Paired no-overlap / ideal-overlap summaries for one projection target."""
    pop = require_jobs(pop)
    # Shares divide by the component sum, so they are the same under both
    # overlap modes.
    cols = Columns.of(pop)
    weight_shares = evaluate(cols, hw, eff).share("weight")
    job_share = job_level_mean(weight_shares)
    cnode_share = cnode_level_mean(weight_shares, cols.num_cnodes)

    def stats(overlap: OverlapMode) -> tuple[OverlapModeStats, list[ProjectionResult]]:
        results, summary = population_speedup_profile(pop, target, hw, eff, overlap)
        return OverlapModeStats(overlap, job_share, cnode_share, summary), results

    none_stats, _ = stats(OverlapMode.NO_OVERLAP)
    ideal_stats, ideal_results = stats(OverlapMode.IDEAL_OVERLAP)
    at_ratio = sum(1 for r in ideal_results if r.weight_bound)
    return OverlapComparison(
        no_overlap=none_stats,
        ideal_overlap=ideal_stats,
        fraction_at_weight_path_ratio=at_ratio / len(pop),
    )
