"""The benchmark's tracer counts what the CLI reads and emits.

``perfbench/spans.py`` derives ``ingest.records``, ``ingest.rejected``,
``report.rows``, ``report.bytes`` and ``sweep.cells`` from the results of
the calls it traces, and counts 0 where a result no longer has the shape
it reads; ``units.calls`` counts the calls of the per-value unit
parsers.  These tests run commands in-process under the tracer, as
``perfbench/run.py --trace 1`` does, and check each counter against the
output, so a changed result shape fails here rather than zeroing a
benchmark metric.
"""

import csv
import importlib.util
import io
import json
from pathlib import Path

import pytest

import dlcost.report
from dlcost.cli import EX_DATA, EX_OK, run
from dlcost.core import RECORD_QUANTITIES
from dlcost.corpus import SynthSpec, builtin_corpus, synth_population
from dlcost.ingest import dump_trace, parse_trace, record_to_dict

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def traced(tmp_path, *command, source=("--corpus",), code=EX_OK):
    """The tracer's counts, the report's bytes and its number of data rows."""
    counts, _, data = traced_run(tmp_path, *command, source=source, code=code)
    if "json" in command:
        n_rows = len(json.loads(data)["rows"])
    else:
        n_rows = len(csv_rows(data))
    return counts, data, n_rows


def traced_run(tmp_path, *command, source=("--corpus",), code=EX_OK):
    """The tracer's counts and calls, and the report's bytes."""
    out = tmp_path / "out"
    tracer = spans.Tracer()
    with spans.patched(tracer):
        assert run([*command, *source, "--out", str(out)]) == code
    return tracer.counts, tracer.calls, out.read_bytes()


def csv_rows(data):
    lines = [line for line in data.decode().splitlines() if not line.startswith("# ")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


@pytest.mark.parametrize("command", [
    *([name] for name in ("breakdown", "sweep", "validate")),
    *([name, "--format", "json"] for name in ("breakdown", "sweep", "validate")),
    *(["project", "--target", "allreduce_local", "--format", format] for format in ("csv", "json")),
])
def test_report_counters_match_the_output(tmp_path, command):
    counts, data, n_rows = traced(tmp_path, *command)
    assert counts["report.rows"] == n_rows > 0
    assert counts["report.bytes"] == len(data)


@pytest.mark.parametrize("command", [["breakdown"], ["sweep", "--format", "json"],
                                     ["validate", "--format", "json"]])
def test_report_counters_match_an_output_written_over_several_emit_calls(
        tmp_path, monkeypatch, command):
    monkeypatch.setattr(dlcost.report, "EMIT_CHUNK_ROWS", 2)
    counts, calls, data = traced_run(tmp_path, *command)
    assert calls["report.emit"] > 1
    assert counts["report.bytes"] == len(data)
    assert counts["report.rows"] == len(json.loads(data)["rows"] if "json" in command
                                         else csv_rows(data))


@pytest.mark.parametrize("command", [["sweep"], ["sweep", "--cartesian"]])
def test_sweep_cells_counter_matches_the_rows(tmp_path, command):
    counts, _, n_rows = traced(tmp_path, *command)
    assert counts["sweep.cells"] == n_rows > 0


def test_ingest_counters_match_the_validate_report(tmp_path):
    lines = dump_trace(builtin_corpus()).splitlines()
    lines.insert(2, "{broken")
    lines.append(lines[0])  # a duplicate job_id
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    counts, _, data = traced_run(tmp_path, "validate", source=("--trace", str(trace)),
                                 code=EX_DATA)
    statuses = [row["status"] for row in csv_rows(data)]
    assert counts["ingest.records"] == statuses.count("ok") == len(builtin_corpus())
    assert counts["ingest.rejected"] == statuses.count("error") == 2


UNIT = {"count": "FLOPs", "bytes": "B"}


def spelled(obj, space=""):
    """A trace object with every quantity a unit string, ``space`` between
    its number and its unit."""
    return obj | {f.name: f"{obj[f.name]!r}{space}{UNIT[f.metadata['kind']]}"
                  for f in RECORD_QUANTITIES}


COMMANDS = [["validate"], ["aggregate", "--stat", "shares"],
            ["project", "--target", "allreduce_local"]]


def unit_string_run(tmp_path, command, space):
    """A 100-job synthetic population, and the tracer's calls for ``command``
    on it written as unit strings."""
    records = synth_population(SynthSpec(size=100, seed=5))
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(spelled(record_to_dict(rec), space)) + "\n"
                             for rec in records))
    counts, calls, _ = traced_run(tmp_path, *command, source=("--trace", str(trace)))
    assert counts["ingest.records"] == len(records)
    return records, trace, calls["units.parse_quantity"] + calls["units.parse_count"]


@pytest.mark.parametrize("command", COMMANDS)
def test_plain_unit_string_columns_call_no_per_value_parser(tmp_path, command):
    records, trace, unit_calls = unit_string_run(tmp_path, command, space="")
    assert unit_calls == 0
    assert list(parse_trace(trace.read_text())[0]) == list(parse_trace(dump_trace(records))[0])


@pytest.mark.parametrize("command", COMMANDS)
def test_spaced_unit_strings_call_the_parsers_once_per_quantity(tmp_path, command):
    records, _, unit_calls = unit_string_run(tmp_path, command, space=" ")
    assert unit_calls == 6 * len(records)
