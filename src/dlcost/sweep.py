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
from typing import Iterable, Optional, Sequence

from .aggregate import cnode_level_mean, job_level_mean
from .core import (
    ArchitectureKind,
    EfficiencyModel,
    HardwareProfile,
    OverlapMode,
    Population,
    WorkloadRecord,
    require_jobs,
)
from .engine import evaluate, share_of, speedup
# Unused here, but perfbench's tracer patches ``dlcost.sweep.breakdown``.
from .engine import breakdown  # noqa: F401
from .projection import ProjectionSummary, population_speedup_profile


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
                raise ValueError(
                    f"axis {self.resource.value}: candidate {c!r} must be finite and positive")
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


@dataclass(frozen=True)
class SweepTable:
    """Per-job speedups, one list per setting: ``speedups[i][j]`` is job
    ``job_ids[j]``'s t_total(base hw) / t_total(base hw with ``settings[i]``)."""

    job_ids: list[str]
    settings: tuple[Setting, ...]
    speedups: list[list[float]]

    def __len__(self) -> int:
        """The number of cells: one per job per setting."""
        return len(self.job_ids) * len(self.settings)


def _check_axes(axes: Sequence[SweepAxis]) -> None:
    """Refuse an empty list of axes, or two axes of one resource."""
    if not axes:
        raise ValueError("no sweep axes given")
    resources = [axis.resource for axis in axes]
    for resource in resources:
        if resources.count(resource) > 1:  # one setting would hold two values of it
            raise ValueError(f"axis {resource.value} given more than once")


def _sweep(pop: Population, settings: Sequence[Setting], base_hw: HardwareProfile,
           eff: EfficiencyModel, overlap: OverlapMode) -> SweepTable:
    """Per-job speedup of each setting over ``base_hw``."""
    base = evaluate(pop, base_hw, eff)
    base_totals = base.t_total(overlap)
    speedups = []
    for setting in settings:
        hw = replace(base_hw, **{resource.field.name: value for resource, value in setting})
        # Only the terms whose rate the setting moves are divided again, and
        # only the combined columns they enter are summed again.
        new = evaluate(pop, hw, eff, like=base)
        speedups.append(list(map(speedup, base_totals, new.t_total(overlap))))
    return SweepTable(pop.job_id, tuple(settings), speedups)


def hardware_sweep(pop: Iterable[WorkloadRecord], axes: Sequence[SweepAxis],
                   base_hw: HardwareProfile, eff: EfficiencyModel,
                   overlap: OverlapMode = OverlapMode.NO_OVERLAP) -> SweepTable:
    """One-resource-at-a-time speedup table over axes x candidates x jobs."""
    _check_axes(axes)
    pop = require_jobs(pop)
    settings = [((axis.resource, c),) for axis in axes for c in axis.candidates]
    return _sweep(pop, settings, base_hw, eff, overlap)


def cartesian_sweep(pop: Iterable[WorkloadRecord], axes: Sequence[SweepAxis],
                    base_hw: HardwareProfile, eff: EfficiencyModel,
                    overlap: OverlapMode = OverlapMode.NO_OVERLAP) -> SweepTable:
    """Full cross-product sweep over every axis combination.

    Emits a warning when the report would exceed ``CARTESIAN_WARNING_CELLS``
    cells; prefer ``hardware_sweep`` for routine studies.
    """
    _check_axes(axes)
    pop = require_jobs(pop)
    n_cells = len(pop) * math.prod(len(axis.candidates) for axis in axes)
    if n_cells > CARTESIAN_WARNING_CELLS:
        warnings.warn(f"cartesian sweep emits {n_cells} cells", stacklevel=2)
    resources = [axis.resource for axis in axes]
    settings = [tuple(zip(resources, combo))
                for combo in itertools.product(*(axis.candidates for axis in axes))]
    return _sweep(pop, settings, base_hw, eff, overlap)


@dataclass(frozen=True)
class SensitivityCell:
    compute_eff: float
    comm_eff: float
    job_level_weight_share: float
    cnode_level_weight_share: float


def efficiency_grid(grid: Sequence[float], name: str) -> None:
    """Refuse a ``name`` efficiency grid that is empty, or holds a value
    outside (0, 1] or one value twice."""
    if not grid:
        raise ValueError(f"empty {name} efficiency grid")
    for g in grid:
        if not (0 < g <= 1):
            raise ValueError(f"{name} efficiency {g!r} outside (0, 1]")
        if grid.count(g) > 1:
            raise ValueError(f"{name} efficiency {g!r} given more than once")


def efficiency_sensitivity(pop: Iterable[WorkloadRecord], hw: HardwareProfile,
                           compute_eff_grid: Sequence[float],
                           comm_eff_grid: Sequence[float]) -> list[SensitivityCell]:
    """Weight-share surface over (compute efficiency, communication efficiency).

    Each grid point ties GPU compute and memory efficiency together and
    likewise all three transfer media, matching how the efficiencies are
    perturbed around the 0.7 default.
    """
    pop = require_jobs(pop)
    efficiency_grid(compute_eff_grid, "compute")
    efficiency_grid(comm_eff_grid, "communication")
    # The compute efficiency moves only the compute terms and the
    # communication efficiency only the data and weight terms, so each
    # is divided and summed once per grid value, not once per point.  One
    # t_compute is held per compute value; each communication value's
    # (t_data, t_weight) pair is held until the next is formed from it.
    eff, ev, per_comp = EfficiencyModel(), None, []
    for comp in compute_eff_grid:
        eff = replace(eff, compute_eff=comp, mem_eff=comp)
        ev = evaluate(pop, hw, eff, like=ev)
        per_comp.append(ev.t_compute)
    means = [[] for _ in compute_eff_grid]
    for comm in comm_eff_grid:
        ev = evaluate(pop, hw, replace(eff, pcie_eff=comm, ethernet_eff=comm, nvlink_eff=comm),
                      like=ev)
        for t_compute, row in zip(per_comp, means):
            weight_shares = share_of(ev.t_weight, ev.t_data, t_compute, ev.t_weight)
            row.append((job_level_mean(weight_shares),
                        cnode_level_mean(weight_shares, pop.num_cnodes)))
        del weight_shares  # freed before the next pair is formed
    # Cells in compute-major order, as the grid is given.
    return [SensitivityCell(comp, comm, *point)
            for comp, row in zip(compute_eff_grid, means)
            for comm, point in zip(comm_eff_grid, row)]


@dataclass(frozen=True)
class OverlapComparison:
    job_level_weight_share: float
    cnode_level_weight_share: float
    no_overlap: ProjectionSummary
    ideal_overlap: ProjectionSummary
    #: Fraction of all jobs weight-bound before and after projection
    #: (under ideal overlap these achieve exactly the weight-path ratio).
    fraction_at_weight_path_ratio: float


def overlap_comparison(pop: Iterable[WorkloadRecord], hw: HardwareProfile,
                       eff: EfficiencyModel, target: ArchitectureKind) -> OverlapComparison:
    """Paired no-overlap / ideal-overlap summaries for one projection target."""
    pop = require_jobs(pop)
    weight_shares = evaluate(pop, hw, eff).share("weight")
    none_summary = population_speedup_profile(pop, target, hw, eff, OverlapMode.NO_OVERLAP)[1]
    ideal_table, ideal_summary = population_speedup_profile(pop, target, hw, eff,
                                                            OverlapMode.IDEAL_OVERLAP)
    return OverlapComparison(
        job_level_weight_share=job_level_mean(weight_shares),
        cnode_level_weight_share=cnode_level_mean(weight_shares, pop.num_cnodes),
        no_overlap=none_summary,
        ideal_overlap=ideal_summary,
        fraction_at_weight_path_ratio=sum(ideal_table.weight_bound) / len(pop),
    )
