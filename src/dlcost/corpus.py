"""Built-in case-study corpus and synthetic population generation.

The corpus holds six production models spanning CV, translation, QA,
speech and recommendation, with their per-step demands and model-scale
figures, plus the per-workload measured hardware efficiencies.  The
speech model trains 1w1g and therefore has no modeled weight path; its
reported 728 MB of network traffic is preserved under ``notes`` rather
than fed to the cost model.

The synthetic generator produces seeded, reproducible populations for
cluster-scale statistics where no real trace is available.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Mapping

from .core import (
    ArchitectureKind,
    EfficiencyModel,
    WorkloadRecord,
    placed_cnodes,
    validate_record,
)

#: Measured compute-bound seconds per step for the ResNet50 case study on
#: the testbed (the model predicts 0.149 s for the same part).
RESNET50_MEASURED_COMPUTE_BOUND_S = 0.126


def builtin_corpus() -> tuple[WorkloadRecord, ...]:
    """The six case-study workloads with canonical-unit demand figures.

    cNode counts are representative testbed placements (the workload
    tables do not fix them): local AllReduce and PEARL jobs occupy one
    8-GPU server, the PS/Worker recommender runs at 32 workers, speech
    is single-GPU.
    """
    records = [
        WorkloadRecord(
            job_id="multi_interests", arch=ArchitectureKind.PS_WORKER,
            num_cnodes=32, batch_size=2048,
            flops=105.8e9, mem_access_bytes=100.4e9,
            input_bytes=261e6, weight_traffic_bytes=122e6,
            dense_weight_bytes=1.19e6, embedding_weight_bytes=239.45e9,
        ),
        WorkloadRecord(
            job_id="resnet50", arch=ArchitectureKind.ALLREDUCE_LOCAL,
            num_cnodes=8, batch_size=64,
            flops=1.56e12, mem_access_bytes=31.9e9,
            input_bytes=38e6, weight_traffic_bytes=357e6,
            dense_weight_bytes=204e6, embedding_weight_bytes=0.0,
        ),
        WorkloadRecord(
            job_id="nmt", arch=ArchitectureKind.ALLREDUCE_LOCAL,
            num_cnodes=8, batch_size=6144,
            flops=2.5e12, mem_access_bytes=101.6e9,
            input_bytes=22e3, weight_traffic_bytes=1.33e9,
            dense_weight_bytes=706e6, embedding_weight_bytes=819e6,
        ),
        WorkloadRecord(
            job_id="bert", arch=ArchitectureKind.ALLREDUCE_LOCAL,
            num_cnodes=8, batch_size=12,
            flops=2.1e12, mem_access_bytes=107.3e9,
            input_bytes=46e3, weight_traffic_bytes=1.5e9,
            dense_weight_bytes=1e9, embedding_weight_bytes=284e6,
        ),
        WorkloadRecord(
            job_id="speech", arch=ArchitectureKind.ONE_WORKER_ONE_GPU,
            num_cnodes=1, batch_size=32,
            flops=7.9e12, mem_access_bytes=20.4e9,
            input_bytes=804e6, weight_traffic_bytes=0.0,
            dense_weight_bytes=416e6, embedding_weight_bytes=0.0,
            notes={"reported_network_traffic_bytes": 728e6},
        ),
        WorkloadRecord(
            job_id="gcn", arch=ArchitectureKind.PEARL,
            num_cnodes=8, batch_size=512,
            flops=330.7e9, mem_access_bytes=25.79e9,
            input_bytes=1.2e6, weight_traffic_bytes=3e9,
            dense_weight_bytes=207e6, embedding_weight_bytes=54e9,
        ),
    ]
    return tuple(validate_record(rec) for rec in records)


def corpus_record(job_id: str) -> WorkloadRecord:
    for rec in builtin_corpus():
        if rec.job_id == job_id:
            return rec
    raise KeyError(f"no corpus record named {job_id!r}")


def measured_efficiency() -> dict[str, EfficiencyModel]:
    """Measured per-workload hardware efficiencies on the testbed.

    The network column covers Ethernet and NVLink alike.  These serve as
    optional overrides for the uniform 0.7 assumption.
    """
    rows = {
        "multi_interests": (0.3271, 0.95, 0.8647, 0.6921),
        "resnet50": (0.8255, 0.789, 0.351, 0.494),
        "nmt": (0.828, 0.791, 0.001, 0.352),
        "bert": (0.816, 0.95, 0.0042, 0.471),
        "speech": (0.6086, 0.031, 0.7773, 0.405),
        "gcn": (0.882, 0.699, 0.862, 0.2735),
    }
    return {
        name: EfficiencyModel(compute_eff=comp, mem_eff=mem, pcie_eff=pcie,
                              ethernet_eff=net, nvlink_eff=net)
        for name, (comp, mem, pcie, net) in rows.items()
    }


DEFAULT_MIX: Mapping[ArchitectureKind, float] = {
    ArchitectureKind.ONE_WORKER_ONE_GPU: 0.42,
    ArchitectureKind.ONE_WORKER_N_GPU: 0.21,
    ArchitectureKind.PS_WORKER: 0.29,
    ArchitectureKind.ALLREDUCE_LOCAL: 0.05,
    ArchitectureKind.ALLREDUCE_CLUSTER: 0.02,
    ArchitectureKind.PEARL: 0.01,
}

# Log-uniform sampling bounds of the synthetic jobs, spans bracketing the
# case-study corpus.
CNODE_RANGE = (1, 256)
BATCH_RANGE = (1, 8192)
FLOPS_RANGE = (1e9, 1e13)
MEM_ACCESS_RANGE = (1e9, 2e11)
INPUT_RANGE = (1e4, 1e9)
WEIGHT_TRAFFIC_RANGE = (1e6, 1e10)
DENSE_WEIGHT_RANGE = (1e6, 2e9)
EMBEDDING_WEIGHT_RANGE = (1e8, 3e11)
#: Chance that a job of an architecture other than PEARL has a sparse
#: embedding; every PEARL job has one.
EMBEDDING_PROBABILITY = 0.3


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a reproducible synthetic population.

    ``seed`` is mandatory: identical specs always yield identical
    populations.
    """

    size: int
    seed: int
    mix: Mapping[ArchitectureKind, float] = field(default_factory=lambda: dict(DEFAULT_MIX))

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"population size must be positive, got {self.size!r}")
        if not self.mix:
            raise ValueError("architecture mix is empty")
        for arch, frac in self.mix.items():
            if not isinstance(arch, ArchitectureKind):
                raise ValueError(f"mix key {arch!r} is not an ArchitectureKind")
            if not (math.isfinite(frac) and frac >= 0):
                raise ValueError(f"mix fraction for {arch.value} must be finite and "
                                 f"non-negative, got {frac!r}")
        try:
            total = math.fsum(self.mix.values())
        except OverflowError:  # fractions that add past the largest float
            total = math.inf
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"mix fractions must sum to 1, got {total!r}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _sample_cnodes(arch: ArchitectureKind, rng: random.Random) -> int:
    if arch is ArchitectureKind.ONE_WORKER_ONE_GPU:
        return 1
    return placed_cnodes(arch, max(1, round(_log_uniform(rng, *CNODE_RANGE))))


def synth_population(spec: SynthSpec) -> tuple[WorkloadRecord, ...]:
    """Generate a validated population deterministically from ``spec``."""
    rng = random.Random(spec.seed)
    archs = [a for a in ArchitectureKind if spec.mix.get(a, 0) > 0]
    weights = [spec.mix[a] for a in archs]
    records = []
    for i in range(spec.size):
        arch = rng.choices(archs, weights=weights)[0]
        num_cnodes = _sample_cnodes(arch, rng)
        weight_traffic = (0.0 if arch is ArchitectureKind.ONE_WORKER_ONE_GPU
                          else _log_uniform(rng, *WEIGHT_TRAFFIC_RANGE))
        if arch is ArchitectureKind.PEARL or rng.random() < EMBEDDING_PROBABILITY:
            embedding = _log_uniform(rng, *EMBEDDING_WEIGHT_RANGE)
        else:
            embedding = 0.0
        rec = WorkloadRecord(
            job_id=f"synth-{i:06d}",
            arch=arch,
            num_cnodes=num_cnodes,
            batch_size=max(1, round(_log_uniform(rng, *BATCH_RANGE))),
            flops=_log_uniform(rng, *FLOPS_RANGE),
            mem_access_bytes=_log_uniform(rng, *MEM_ACCESS_RANGE),
            input_bytes=_log_uniform(rng, *INPUT_RANGE),
            weight_traffic_bytes=weight_traffic,
            dense_weight_bytes=_log_uniform(rng, *DENSE_WEIGHT_RANGE),
            embedding_weight_bytes=embedding,
        )
        records.append(validate_record(rec))
    return tuple(records)
