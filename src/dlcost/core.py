"""Canonical domain types shared by every analysis module.

All types are immutable value objects; operations elsewhere in the
package are pure functions over them, so records, profiles and
breakdowns can be shared freely between threads or processes.

Quantities are per training step and, for workload demands, per
computation node (cNode): one GPU holding one model replica.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from collections.abc import Sequence
from dataclasses import Field, dataclass, field, fields
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union


class ArchitectureKind(Enum):
    """The six supported training architectures.

    * one_worker_one_gpu (1w1g): single replica, no weight movement.
    * one_worker_n_gpu (1wng): centralized within one server, weights
      synchronized over PCIe.
    * ps_worker: parameter servers across the cluster; gradients travel
      Ethernet then PCIe.
    * allreduce_local: decentralized within one NVLink server.
    * allreduce_cluster: decentralized across servers, Ethernet plus
      NVLink.
    * pearl: hybrid partitioned-embedding strategy; collective traffic
      stays on NVLink.
    """

    ONE_WORKER_ONE_GPU = "one_worker_one_gpu"
    ONE_WORKER_N_GPU = "one_worker_n_gpu"
    PS_WORKER = "ps_worker"
    ALLREDUCE_LOCAL = "allreduce_local"
    ALLREDUCE_CLUSTER = "allreduce_cluster"
    PEARL = "pearl"

    # Members are singletons compared by identity; ``Enum.__hash__`` hashes
    # the name in Python on every dict and set lookup.
    __hash__ = object.__hash__

    @classmethod
    def from_label(cls, label: str) -> "ArchitectureKind":
        try:
            return cls(label)
        except ValueError:
            known = ", ".join(a.value for a in cls)
            raise ValueError(f"unknown architecture {label!r} (known: {known})") from None


#: Architectures whose replicas share one server, hence one PCIe complex.
LOCAL_MULTI_GPU = frozenset({ArchitectureKind.ONE_WORKER_N_GPU, ArchitectureKind.ALLREDUCE_LOCAL})

#: GPUs per server; local architectures cannot exceed this replica count.
GPUS_PER_SERVER = 8


def placed_cnodes(arch: ArchitectureKind, num_cnodes: int) -> int:
    """cNodes that ``arch`` can place for a job of ``num_cnodes`` replicas:
    one for 1w1g, at most one server's GPUs for a local architecture, and
    every replica (one per server) for a cluster architecture."""
    if arch is ArchitectureKind.ONE_WORKER_ONE_GPU:
        return 1
    if arch in LOCAL_MULTI_GPU:
        return min(num_cnodes, GPUS_PER_SERVER)
    return num_cnodes


class Medium(Enum):
    """Interconnect media that weight/gradient traffic can traverse, declared
    in the order every weight path crosses them."""

    ETHERNET = "ethernet"
    PCIE = "pcie"
    NVLINK = "nvlink"

    __hash__ = object.__hash__  # identity hashing, as for ``ArchitectureKind``


class OverlapMode(Enum):
    """How per-step components combine into a total.

    NO_OVERLAP sums input I/O, compute, and weight traffic; IDEAL_OVERLAP
    takes their maximum (fully hidden transfers).
    """

    NO_OVERLAP = "none"
    IDEAL_OVERLAP = "ideal"


def quantity(kind: str, *aliases: str, axis: Optional[str] = None,
             medium: Optional[Medium] = None, **kwargs: Any) -> Any:
    """A dataclass field holding a number, declared with what reads and varies it.

    ``kind`` is the grammar of the field's text form: a ``units`` quantity
    kind (``bytes``, ``bandwidth``, ``flops_rate``), ``count`` for an
    operation count, or ``fraction`` for a plain number.  ``aliases`` are
    further keys that name the field in a config file, ``axis`` is the
    value of the ``sweep.SweepResource`` that varies it, and ``medium`` is
    the interconnect whose weight-traffic rate it scales.  ``kwargs`` go
    to ``dataclasses.field`` (e.g. ``default``).
    """
    return field(metadata={"kind": kind, "aliases": aliases, "axis": axis, "medium": medium},
                 **kwargs)


def check_range(f: Field, value: float) -> None:
    """Raise ValueError unless ``value`` lies in the range of the hardware or
    efficiency field ``f``: (0, 1] for an efficiency, else finite and > 0."""
    if f.metadata["kind"] == "fraction":
        if not 0 < value <= 1:
            raise ValueError(f"{f.name} must lie in (0, 1], got {value!r}")
    elif not (math.isfinite(value) and value > 0):
        raise ValueError(f"{f.name} must be finite and strictly positive, got {value!r}")


@dataclass(frozen=True)
class HardwareProfile:
    """Peak capacities of one server class, in canonical units.

    ``gpu_mem_capacity`` bounds which models can be trained weight-replica
    style (AllReduce); it defaults to 16 GB (Tesla V100 class).
    """

    gpu_peak_flops: float = quantity("flops_rate", "gpu", axis="gpu_flops")
    gpu_mem_bandwidth: float = quantity("bandwidth", "memory", axis="gpu_mem_bandwidth")
    pcie_bandwidth: float = quantity("bandwidth", "pcie", "pci", axis="pcie", medium=Medium.PCIE)
    ethernet_bandwidth: float = quantity("bandwidth", "ethernet", axis="ethernet",
                                         medium=Medium.ETHERNET)
    nvlink_bandwidth: float = quantity("bandwidth", "nvlink", medium=Medium.NVLINK)
    gpu_mem_capacity: float = quantity("bytes", default=16e9)

    def __post_init__(self) -> None:
        for f in fields(self):
            check_range(f, getattr(self, f.name))


@dataclass(frozen=True)
class EfficiencyModel:
    """Attainable fraction of each peak capacity, per resource.

    The default assumes 70% of every peak is usable.
    """

    compute_eff: float = quantity("fraction", default=0.7)
    mem_eff: float = quantity("fraction", default=0.7)
    pcie_eff: float = quantity("fraction", medium=Medium.PCIE, default=0.7)
    ethernet_eff: float = quantity("fraction", medium=Medium.ETHERNET, default=0.7)
    nvlink_eff: float = quantity("fraction", medium=Medium.NVLINK, default=0.7)

    def __post_init__(self) -> None:
        for f in fields(self):
            check_range(f, getattr(self, f.name))


@dataclass(frozen=True, slots=True)
class WorkloadRecord:
    """One job's per-cNode per-step resource demands plus metadata.

    ``flops``, ``mem_access_bytes``, ``input_bytes`` and
    ``weight_traffic_bytes`` are what a single replica consumes in one
    step; ``dense_weight_bytes``/``embedding_weight_bytes`` are the
    model-resident parameter sizes (trainable plus optimizer state).
    ``notes`` carries auxiliary reported numbers that the model does not
    consume (e.g. network traffic reported for a job with no modeled
    weight path).
    """

    job_id: str
    arch: ArchitectureKind
    num_cnodes: int
    batch_size: int
    flops: float = quantity("count")
    mem_access_bytes: float = quantity("bytes")
    input_bytes: float = quantity("bytes")
    weight_traffic_bytes: float = quantity("bytes")
    dense_weight_bytes: float = quantity("bytes")
    embedding_weight_bytes: float = quantity("bytes")
    measured_step_seconds: Optional[float] = None
    notes: Optional[Mapping[str, float]] = None

    @property
    def model_bytes(self) -> float:
        """Total model-resident weight size (dense plus embedding)."""
        return self.dense_weight_bytes + self.embedding_weight_bytes


#: The WorkloadRecord fields holding quantities: per-step demands and
#: model sizes, all non-negative.
RECORD_QUANTITIES: tuple[Field, ...] = tuple(
    f for f in fields(WorkloadRecord) if "kind" in f.metadata)

#: Every WorkloadRecord field name, in declaration (positional) order.
RECORD_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(WorkloadRecord))


class ColumnTable(Sequence):
    """A read-only sequence of rows held as one column per field of the row
    type ``ROW``, the fields named by the subclass's ``__slots__`` in
    ``ROW``'s positional order: ``table.<field>[i]`` is row ``i``'s field.
    A column is a list unless the subclass says otherwise.  Indexing or
    iterating builds each row on demand, equal to the row the fields came
    from; a slice is a table of the same kind.  Two tables of one kind are
    equal when their columns are.
    """

    __slots__ = ()
    ROW: Callable[..., Any]

    def __init__(self, *columns: Sequence) -> None:
        """One column per field, in ``__slots__`` order, all of one length."""
        for name, column in zip(self.__slots__, columns, strict=True):
            setattr(self, name, column)

    @classmethod
    def of(cls, rows: Iterable[Any]) -> "ColumnTable":
        """``rows`` as a table (a table of this kind is returned as it is)."""
        if isinstance(rows, cls):
            return rows
        rows = list(map(operator.attrgetter(*cls.__slots__), rows))
        return cls(*map(list, zip(*rows))) if rows else cls(*([] for _ in cls.__slots__))

    def _columns(self) -> list[Sequence]:
        return [getattr(self, name) for name in self.__slots__]

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __iter__(self) -> Iterator[Any]:
        return map(self.ROW, *self._columns())

    def __getitem__(self, index: Union[int, slice]) -> Any:
        columns = [column[index] for column in self._columns()]
        return type(self)(*columns) if isinstance(index, slice) else self.ROW(*columns)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._columns() == other._columns()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} rows>"


class Population(ColumnTable):
    """A trace's records as a ``ColumnTable`` of ``WorkloadRecord``, in job
    order: ``pop.flops[i]`` is job ``i``'s flops.  Analyses read the
    columns.  Each ``RECORD_QUANTITIES`` column is an ``array('d')``, 8
    bytes a value against a list's 32 (the pointer and the float); an int
    quantity of a record reads back as a float equal to it.  The other
    columns are lists.
    """

    __slots__ = RECORD_FIELDS
    ROW = WorkloadRecord

    def __init__(self, *columns: Sequence) -> None:
        """As ``ColumnTable``; each quantity column that is not already an
        ``array('d')`` is converted to one."""
        super().__init__(*columns)
        for f in RECORD_QUANTITIES:
            column = getattr(self, f.name)
            if not (type(column) is array and column.typecode == "d"):
                setattr(self, f.name, array("d", column))

    @property
    def model_bytes(self) -> list[float]:
        """Each record's ``model_bytes``."""
        return list(map(operator.add, self.dense_weight_bytes, self.embedding_weight_bytes))


class ValidationError(ValueError):
    """A record violated one or more invariants; ``errors`` names each."""

    def __init__(self, job_id: str, errors: list[str]):
        self.job_id = job_id
        self.errors = errors
        super().__init__(f"invalid record {job_id!r}: " + "; ".join(errors))


def _finite_number(value) -> bool:
    """An int or a finite float, but not a bool (ints are always finite)."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def record_errors(rec: WorkloadRecord) -> list[str]:
    """Return every invariant violated by ``rec`` (empty list if valid)."""
    errors: list[str] = []
    if isinstance(rec.job_id, str) and not rec.job_id.isascii():
        try:
            rec.job_id.encode("utf-8")
        except UnicodeEncodeError:
            errors.append(f"job_id {rec.job_id!r} holds a lone surrogate, "
                          f"which UTF-8 cannot encode")
    for name in ("num_cnodes", "batch_size"):
        value = getattr(rec, name)
        if not isinstance(value, int) or value < 1:
            errors.append(f"{name} must be a positive integer, got {value!r}")
        elif value > sys.float_info.max:
            errors.append(f"{name} is too large for a float")
    for f in RECORD_QUANTITIES:
        value = getattr(rec, f.name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"non-finite {f.name}")
        elif value < 0:
            errors.append(f"negative {f.name}")
    if rec.arch is ArchitectureKind.ONE_WORKER_ONE_GPU:
        if isinstance(rec.num_cnodes, int) and rec.num_cnodes != 1:
            errors.append("cnodes must be 1 for 1w1g")
        if isinstance(rec.weight_traffic_bytes, (int, float)) and rec.weight_traffic_bytes != 0:
            errors.append("nonzero weight traffic on 1w1g")
    if (isinstance(rec.num_cnodes, int) and rec.num_cnodes > GPUS_PER_SERVER
            and rec.arch in LOCAL_MULTI_GPU):
        errors.append(f"{rec.arch.value} runs on one server: num_cnodes must be at most "
                      f"{GPUS_PER_SERVER}, got {rec.num_cnodes}")
    if rec.measured_step_seconds is not None:
        m = rec.measured_step_seconds
        if not _finite_number(m) or m <= 0:
            errors.append(f"measured_step_seconds must be positive, got {m!r}")
    if rec.notes:
        for key, value in rec.notes.items():
            if not _finite_number(value):
                errors.append(f"note {key!r} must be a finite number, got {value!r}")
    return errors


def validate_record(rec: WorkloadRecord) -> WorkloadRecord:
    """Return ``rec`` unchanged, or raise ValidationError naming every violation."""
    errors = record_errors(rec)
    if errors:
        raise ValidationError(rec.job_id, errors)
    return rec


def require_jobs(records: Iterable[WorkloadRecord]) -> Population:
    """``Population.of(records)``; raises ValueError when there are none."""
    pop = Population.of(records)
    if not pop:
        raise ValueError("population is empty")
    return pop


class Shares(NamedTuple):
    """Fractions of the (non-overlapped) step time, a partition of unity."""

    data: float
    compute_bound: float
    memory_bound: float
    weight: float

    COMPONENTS = ("data", "compute_bound", "memory_bound", "weight")


ZERO_SHARES = Shares(0.0, 0.0, 0.0, 0.0)


class TimeBreakdown(NamedTuple):
    """Per-step time decomposition of one workload on one hardware profile.

    ``t_total`` follows the breakdown's overlap mode (sum or max of the
    three components); ``shares`` always divide by the component sum so
    they remain a partition of unity.  ``shares_defined`` is False only
    for the degenerate all-zero record, in which case shares are zeros.
    """

    t_data: float
    t_compute_bound: float
    t_memory_bound: float
    t_weight: float
    t_total: float
    shares: Shares
    shares_defined: bool
