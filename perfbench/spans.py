"""In-process tracing of ``dlcost.cli.run`` from outside the program.

The tracer replaces each public function of a layer, in every module
that imported it, with a wrapper that times the call.  Coarse calls
(ingest, sweeps, aggregation, report building) become spans: name,
start, end and parent, one list per traced command.  Hot per-record
calls (``breakdown``, the unit parsers, per-grid-cell means) are folded
into a call count and summed time instead of a span each.

A layer's self time is the time inside its calls minus the time inside
calls they made to other traced functions, so the self times of all
layers plus ``cli`` add up to the traced wall time of each command.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

#: Per-result counters, each mapping a traced call's result to (name, amount).
_COUNTERS: dict[str, Callable] = {
    "ingest.parse_trace": lambda r: (("ingest.records", len(r[0])),
                                     ("ingest.rejected", len(r[1]))),
    "projection.population_speedup_profile":
        lambda r: (("projection.infeasible", r[1].n_infeasible),),
    "sweep.hardware_sweep": lambda r: (("sweep.cells", len(r)),),
    "sweep.cartesian_sweep": lambda r: (("sweep.cells", len(r)),),
    "sweep.efficiency_sensitivity": lambda r: (("sweep.grid_points", len(r)),),
    "aggregate.from_samples": lambda r: (("aggregate.cdf_points", len(r.points)),),
    "report.build_report": lambda r: (("report.rows", len(r.rows)),),
    "report.emit": lambda r: (("report.bytes", len(r)),),
}

#: (module importing the name, attribute, layer, folded).  A function
#: bound in several modules is patched in each of them.
PATCH_POINTS = (
    ("cli", "parse_trace", "ingest", False),
    ("cli", "input_digest", "ingest", False),
    ("ingest", "parse_quantity", "units", True),
    ("ingest", "parse_count", "units", True),
    ("cli", "breakdown", "engine", True),
    ("sweep", "breakdown", "engine", True),
    ("aggregate", "breakdown", "engine", True),
    ("projection", "breakdown", "engine", True),
    ("cli", "population_speedup_profile", "projection", False),
    ("sweep", "population_speedup_profile", "projection", False),
    ("cli", "standard_axes", "sweep", False),
    ("cli", "hardware_sweep", "sweep", False),
    ("cli", "cartesian_sweep", "sweep", False),
    ("cli", "efficiency_sensitivity", "sweep", False),
    ("cli", "overlap_comparison", "sweep", False),
    ("cli", "weighted_breakdown", "aggregate", False),
    ("cli", "share_cdf", "aggregate", False),
    ("cli", "composition", "aggregate", False),
    ("cli", "scale_distribution", "aggregate", False),
    ("sweep", "job_level_mean", "aggregate", True),
    ("sweep", "cnode_level_mean", "aggregate", True),
    ("cli", "build_report", "report", False),
    ("cli", "emit", "report", False),
)

class Tracer:
    """Spans, per-layer self time, per-function totals and counters."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []  # (name, start, end, parent index)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.patched = 0
        # One frame per active traced call: [seconds in traced children,
        # index of the nearest enclosing span].
        self._stack: list[list] = []

    def wrap(self, layer: str, name: str, fn: Callable, folded: bool) -> Callable:
        stack, spans = self._stack, self.spans
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if folded:
                frame = [0.0, parent[1] if parent else -1]
            else:
                frame = [0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self_s[layer] += elapsed - frame[0]
                total_s[name] += elapsed
                calls[name] += 1
                if parent is not None:
                    parent[0] += elapsed
                if not folded:
                    spans[frame[1]] = (name, start, end, parent[1] if parent else -1)
            if counter is not None:
                try:
                    counted = counter(result)
                except (TypeError, AttributeError, IndexError):
                    counted = ()  # the program changed this result's shape
                for key, amount in counted:
                    self.counts[key] += amount
            return result

        return traced

    def run_command(self, run: Callable[[list[str]], int], argv: list[str]) -> int:
        """One traced ``cli.run(argv)``; its root span is ``cli.run``."""
        return self.wrap("cli", "cli.run", run, folded=False)(argv)


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Install the tracer's wrappers; every original is restored on exit.

    A patch point whose name the program no longer binds is skipped, so the
    time it covered shows up as its caller's self time.
    """
    restore = []
    try:
        for module_name, attr, layer, folded in PATCH_POINTS:
            try:
                module = importlib.import_module(f"dlcost.{module_name}")
            except ModuleNotFoundError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            restore.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(layer, f"{layer}.{attr}", fn, folded))
            tracer.patched += 1
        cdf_class = getattr(sys.modules.get("dlcost.aggregate"), "EmpiricalCDF", None)
        if cdf_class is not None and "from_samples" in vars(cdf_class):
            restore.append((cdf_class, "from_samples", vars(cdf_class)["from_samples"]))
            cdf_class.from_samples = staticmethod(tracer.wrap(
                "aggregate", "aggregate.from_samples", cdf_class.from_samples, False))
            tracer.patched += 1
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
