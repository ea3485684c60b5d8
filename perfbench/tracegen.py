"""Seeded trace generator for the benchmark.

Jobs are drawn with the standard library's ``random`` from ranges that
bracket the built-in case-study corpus, independently of
``dlcost.corpus``, so a change to the program cannot change the inputs
it is measured on.  Every record follows the documented trace format:
unique ``job_id``s, documented keys only, local architectures at no more
than 8 cNodes, single-GPU jobs at 1 cNode with zero weight traffic.

Each job is kept as a dict of canonical values (bytes, FLOPs, seconds);
the oracle evaluates those dicts, never the program's parse of the text.
"""

from __future__ import annotations

import json
import math
import random

#: Architecture mix of the production cluster the paper characterises.
ARCH_MIX = (
    ("one_worker_one_gpu", 0.42),
    ("one_worker_n_gpu", 0.21),
    ("ps_worker", 0.29),
    ("allreduce_local", 0.05),
    ("allreduce_cluster", 0.02),
    ("pearl", 0.01),
)
LOCAL_ARCHS = frozenset({"one_worker_n_gpu", "allreduce_local"})
GPUS_PER_SERVER = 8
MAX_CLUSTER_CNODES = 256
MAX_BATCH = 8192

#: Log-uniform demand ranges; each brackets the corpus's six models.
DEMAND_RANGES = {
    "flops": (1e9, 1e13),
    "mem_access_bytes": (1e9, 2e11),
    "input_bytes": (1e4, 1e9),
    "weight_traffic_bytes": (1e6, 1e10),
    "dense_weight_bytes": (1e6, 2e9),
    "embedding_weight_bytes": (1e8, 3e11),
}
EMBEDDING_PROBABILITY = 0.3

BYTE_FIELDS = ("mem_access_bytes", "input_bytes", "weight_traffic_bytes",
               "dense_weight_bytes", "embedding_weight_bytes")

#: Decimal SI prefixes, as the trace format documents them.
PREFIXES = (("", 1.0), ("k", 1e3), ("M", 1e6), ("G", 1e9), ("T", 1e12))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def make_jobs(seed: int, n: int) -> list[dict]:
    """``n`` jobs in canonical units, a pure function of ``seed`` and ``n``."""
    rng = random.Random(seed)
    archs = [a for a, _ in ARCH_MIX]
    weights = [w for _, w in ARCH_MIX]
    jobs = []
    for i in range(n):
        arch = rng.choices(archs, weights)[0]
        if arch == "one_worker_one_gpu":
            cnodes = 1
        elif arch in LOCAL_ARCHS:
            cnodes = rng.randint(1, GPUS_PER_SERVER)
        else:
            cnodes = round(_log_uniform(rng, 2, MAX_CLUSTER_CNODES))
        job = {
            "job_id": f"job-{i:06d}",
            "arch": arch,
            "num_cnodes": cnodes,
            "batch_size": max(1, round(_log_uniform(rng, 1, MAX_BATCH))),
        }
        for name in ("flops", "mem_access_bytes", "input_bytes"):
            job[name] = _log_uniform(rng, *DEMAND_RANGES[name])
        job["weight_traffic_bytes"] = (
            0.0 if arch == "one_worker_one_gpu"
            else _log_uniform(rng, *DEMAND_RANGES["weight_traffic_bytes"]))
        job["dense_weight_bytes"] = _log_uniform(rng, *DEMAND_RANGES["dense_weight_bytes"])
        has_embedding = arch == "pearl" or rng.random() < EMBEDDING_PROBABILITY
        job["embedding_weight_bytes"] = (
            _log_uniform(rng, *DEMAND_RANGES["embedding_weight_bytes"])
            if has_embedding else 0.0)
        jobs.append(job)
    return jobs


def numeric_trace(jobs: list[dict]) -> bytes:
    """One JSON object per line, every quantity a plain number."""
    return "".join(json.dumps(job) + "\n" for job in jobs).encode("utf-8")


def _unit_string(rng: random.Random, value: float, unit: str) -> tuple[str, float]:
    """``value`` as a 6-significant-digit unit string, and the value it denotes."""
    if value == 0:
        return "0" + unit, 0.0
    options = [(p, scale) for p, scale in PREFIXES
               if 1 <= value / scale < 1e5 and (p or unit)]
    prefix, scale = rng.choice(options)
    mantissa = f"{value / scale:.6g}"
    return mantissa + prefix + unit, float(mantissa) * scale


def unit_string_trace(jobs: list[dict], seed: int) -> tuple[list[dict], bytes]:
    """Rewrite ``jobs`` with unit-string quantities, a measured step time and
    numeric notes on every line.

    Returns the jobs as the strings denote them, and the trace text.
    """
    rng = random.Random(f"unit-strings:{seed}")
    denoted = []
    lines = []
    for job in jobs:
        obj = {k: job[k] for k in ("job_id", "arch", "num_cnodes", "batch_size")}
        exact = dict(obj)
        obj["flops"], exact["flops"] = _unit_string(rng, job["flops"], "")
        for name in BYTE_FIELDS:
            obj[name], exact[name] = _unit_string(rng, job[name], "B")
        obj["measured_step_seconds"] = exact["measured_step_seconds"] = \
            _log_uniform(rng, 1e-3, 1e2)
        obj["notes"] = exact["notes"] = {
            "reported_network_traffic_bytes": _log_uniform(rng, 1e6, 1e10),
            "queue_seconds": _log_uniform(rng, 1.0, 1e4),
        }
        denoted.append(exact)
        lines.append(json.dumps(obj) + "\n")
    return denoted, "".join(lines).encode("utf-8")
