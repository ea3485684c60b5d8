"""Analytical cost model for deep-learning training workloads.

Per-step time breakdowns (input I/O, compute, weight traffic),
architecture what-if projection, hardware-configuration sweeps, and
cluster-level statistical aggregation, driven by a small set of
workload features.
"""

__version__ = "0.1.0"

from .core import (
    ArchitectureKind,
    EfficiencyModel,
    HardwareProfile,
    Medium,
    OverlapMode,
    Shares,
    TimeBreakdown,
    ValidationError,
    WorkloadRecord,
    record_errors,
    validate_record,
)
from .engine import breakdown, throughput, validation_gap
from .aggregate import (
    EmpiricalCDF,
    JobPopulation,
    composition,
    scale_distribution,
    share_cdf,
    weighted_breakdown,
)
from .projection import (
    ProjectionResult,
    ProjectionSummary,
    population_speedup_profile,
    project,
)
from .sweep import (
    SweepAxis,
    SweepResource,
    efficiency_sensitivity,
    hardware_sweep,
    overlap_comparison,
    standard_axes,
)
from .corpus import SynthSpec, builtin_corpus, measured_efficiency, synth_population
from .ingest import (
    case_study_testbed,
    load_efficiency_model,
    load_hardware_profile,
    load_trace,
    pai_baseline,
    write_trace,
)
from .units import format_quantity, parse_quantity

__all__ = [
    "ArchitectureKind",
    "EfficiencyModel",
    "EmpiricalCDF",
    "HardwareProfile",
    "JobPopulation",
    "Medium",
    "OverlapMode",
    "ProjectionResult",
    "ProjectionSummary",
    "Shares",
    "SweepAxis",
    "SweepResource",
    "SynthSpec",
    "TimeBreakdown",
    "ValidationError",
    "WorkloadRecord",
    "breakdown",
    "builtin_corpus",
    "case_study_testbed",
    "composition",
    "efficiency_sensitivity",
    "format_quantity",
    "hardware_sweep",
    "load_efficiency_model",
    "load_hardware_profile",
    "load_trace",
    "measured_efficiency",
    "overlap_comparison",
    "pai_baseline",
    "parse_quantity",
    "population_speedup_profile",
    "project",
    "record_errors",
    "scale_distribution",
    "share_cdf",
    "standard_axes",
    "synth_population",
    "throughput",
    "validate_record",
    "validation_gap",
    "weighted_breakdown",
    "write_trace",
]
