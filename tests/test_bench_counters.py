"""The benchmark's tracer counts what the CLI emits.

``perfbench/spans.py`` derives ``report.rows``, ``report.bytes`` and
``sweep.cells`` from the results of the calls it traces, and counts 0
where a result no longer has the shape it reads.  These tests run
commands in-process under the tracer, as ``perfbench/run.py --trace 1``
does, and check each counter against the output, so a changed result
shape fails here rather than zeroing a benchmark metric.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from dlcost.cli import EX_OK, run

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def traced(tmp_path, *command):
    """The tracer's counts, the report's bytes and its number of data rows."""
    out = tmp_path / "out"
    tracer = spans.Tracer()
    with spans.patched(tracer):
        assert run([*command, "--corpus", "--out", str(out)]) == EX_OK
    data = out.read_bytes()
    if "json" in command:
        n_rows = len(json.loads(data)["rows"])
    else:
        n_rows = len([line for line in data.decode().splitlines() if not line.startswith("# ")]) - 1
    return tracer.counts, data, n_rows


@pytest.mark.parametrize("command", [
    *([name] for name in ("breakdown", "sweep", "validate")),
    *([name, "--format", "json"] for name in ("breakdown", "sweep", "validate")),
])
def test_report_counters_match_the_output(tmp_path, command):
    counts, data, n_rows = traced(tmp_path, *command)
    assert counts["report.rows"] == n_rows > 0
    assert counts["report.bytes"] == len(data)


@pytest.mark.parametrize("command", [["sweep"], ["sweep", "--cartesian"]])
def test_sweep_cells_counter_matches_the_rows(tmp_path, command):
    counts, _, n_rows = traced(tmp_path, *command)
    assert counts["sweep.cells"] == n_rows > 0
