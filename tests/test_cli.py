import csv
import errno
import hashlib
import io
import json
import math
import os
import stat
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

import dlcost.cli
import dlcost.report
import dlcost.sweep
from dlcost.cli import EX_CANTCREAT, EX_DATA, EX_NOINPUT, EX_OK, EX_USAGE, run
from dlcost.core import ArchitectureKind, OverlapMode
from dlcost.ingest import write_trace
from dlcost.report import EMIT_CHUNK_ROWS, FORMATS, Block, Fixed, Report, build_report, emit

from helpers import EFF, PAI, make_record, reference_emit, report_rows


ROOT = Path(__file__).resolve().parent.parent


def run_to_file(tmp_path, *argv, name="out"):
    out = tmp_path / name
    code = run([*argv, "--out", str(out)])
    return code, out.read_bytes()


def parse_csv(data: bytes):
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    return rows


def csv_metadata(data: bytes):
    meta = {}
    for ln in data.decode().splitlines():
        if ln.startswith("# "):
            key, _, value = ln[2:].partition(": ")
            meta[key] = value
    return meta


class TestBreakdownCommand:
    def test_corpus_breakdown(self, tmp_path):
        code, data = run_to_file(tmp_path, "breakdown", "--corpus",
                                 "--hw", "case-study-testbed", "--format", "csv")
        assert code == EX_OK
        rows = parse_csv(data)
        assert len(rows) == 6
        for row in rows:
            total = sum(float(row[c]) for c in ("share_data", "share_compute_bound",
                                                "share_memory_bound", "share_weight"))
            assert abs(total - 1.0) <= 1e-9
        resnet = next(r for r in rows if r["job_id"] == "resnet50")
        assert float(resnet["t_compute_bound"]) == pytest.approx(0.148571429, rel=1e-6)

    def test_metadata_embeds_rerun_inputs(self, tmp_path):
        code, data = run_to_file(tmp_path, "breakdown", "--corpus")
        meta = csv_metadata(data)
        assert meta["kind"] == "breakdown"
        assert meta["hardware.gpu_peak_flops"] == "1.1e+13"
        assert meta["efficiency.compute_eff"] == "0.7"
        assert meta["overlap"] == "none"
        assert meta["input.source"] == "builtin-corpus"
        assert len(meta["input.sha256"]) == 64

    def test_input_digest_is_the_sha256_of_the_file_bytes(self, tmp_path):
        job = {"job_id": "c", "arch": "ps_worker", "num_cnodes": 4, "batch_size": 64,
               "flops": 1e12, "mem_access_bytes": 1e10, "input_bytes": 1e6,
               "weight_traffic_bytes": 1e9, "dense_weight_bytes": 1e8,
               "embedding_weight_bytes": 0}
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(json.dumps(job).encode() + b"\r\n")
        code, data = run_to_file(tmp_path, "breakdown", "--trace", str(trace))
        assert code == EX_OK
        assert csv_metadata(data)["input.sha256"] == hashlib.sha256(
            trace.read_bytes()).hexdigest()

    def test_byte_identical_reruns(self, tmp_path):
        _, first = run_to_file(tmp_path, "breakdown", "--corpus", name="a")
        _, second = run_to_file(tmp_path, "breakdown", "--corpus", name="b")
        assert first == second

    def test_formats_agree_after_parsing(self, tmp_path):
        _, as_csv = run_to_file(tmp_path, "breakdown", "--corpus", name="a.csv")
        code, as_json = run_to_file(tmp_path, "breakdown", "--corpus",
                                    "--format", "json", name="a.json")
        assert code == EX_OK
        csv_rows = parse_csv(as_csv)
        json_rows = json.loads(as_json)["rows"]
        assert len(csv_rows) == len(json_rows)
        for c_row, j_row in zip(csv_rows, json_rows):
            for key, j_val in j_row.items():
                if isinstance(j_val, float):
                    assert float(c_row[key]) == j_val
                elif isinstance(j_val, bool):
                    assert c_row[key] == ("true" if j_val else "false")
                elif j_val is None:
                    assert c_row[key] == ""

    def test_overlap_flag(self, tmp_path):
        _, none_data = run_to_file(tmp_path, "breakdown", "--corpus", name="a")
        _, ideal_data = run_to_file(tmp_path, "breakdown", "--corpus",
                                    "--overlap", "ideal", name="b")
        t_none = [float(r["t_total"]) for r in parse_csv(none_data)]
        t_ideal = [float(r["t_total"]) for r in parse_csv(ideal_data)]
        assert all(i <= n for i, n in zip(t_ideal, t_none))


class TestProjectCommand:
    def test_multi_interests_infeasible_for_allreduce(self, tmp_path):
        code, data = run_to_file(tmp_path, "project", "--corpus",
                                 "--target", "allreduce_local", "--hw", "pai-baseline")
        assert code == EX_OK
        rows = {r["job_id"]: r for r in parse_csv(data)}
        assert rows["multi_interests"]["feasible"] == "false"
        assert rows["multi_interests"]["step_speedup"] == ""
        assert rows["resnet50"]["feasible"] == "true"

    def test_requires_target(self):
        assert run(["project", "--corpus"]) == EX_USAGE

    def test_infinite_speedup_is_a_missing_value_in_both_formats(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps({
            "job_id": "w", "arch": "ps_worker", "num_cnodes": 4, "batch_size": 32,
            "flops": 0, "mem_access_bytes": 0, "input_bytes": 0,
            "weight_traffic_bytes": 1e9, "dense_weight_bytes": 0,
            "embedding_weight_bytes": 0}) + "\n")
        argv = ("project", "--trace", str(trace), "--target", "one_worker_one_gpu")
        _, as_csv = run_to_file(tmp_path, *argv, name="a.csv")
        code, as_json = run_to_file(tmp_path, *argv, "--format", "json", name="a.json")
        assert code == EX_OK

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(as_json, parse_constant=reject)
        [j_row] = payload["rows"]
        [c_row] = parse_csv(as_csv)
        for key, j_val in j_row.items():
            if j_val is None:
                assert c_row[key] == ""
            elif isinstance(j_val, bool):
                assert c_row[key] == ("true" if j_val else "false")
            elif isinstance(j_val, (int, float)):
                assert float(c_row[key]) == j_val
            else:
                assert c_row[key] == j_val
        assert j_row["step_speedup"] is None and j_row["throughput_speedup"] is None
        assert j_row["reason"] == "target step time is zero"
        assert j_row["target_t_total"] == 0.0
        assert payload["metadata"]["summary"]["fraction_step_sped_up"] == 1.0
        assert csv_metadata(as_csv)["summary.fraction_step_sped_up"] == "1"


class TestSweepCommand:
    def test_baseline_candidate_speedup_is_one(self, tmp_path):
        code, data = run_to_file(tmp_path, "sweep", "--corpus", "--hw", "pai-baseline",
                                 "--axes", "ethernet",
                                 "--candidates", "10Gbps,25Gbps,100Gbps")
        assert code == EX_OK
        rows = parse_csv(data)
        assert len(rows) == 18  # 6 jobs x 3 candidates
        assert [r["normalized"] for r in rows[::6]] == ["0.4", "1", "4"]
        at_baseline = [r for r in rows if r["normalized"] == "1"]
        assert len(at_baseline) == 6
        assert all(float(r["speedup"]) == 1.0 for r in at_baseline)

    def test_cartesian_flag(self, tmp_path):
        code, data = run_to_file(tmp_path, "sweep", "--corpus",
                                 "--axes", "ethernet,pcie", "--cartesian")
        assert code == EX_OK
        rows = parse_csv(data)
        assert len(rows) == 6 * 3 * 2
        assert "settings" in rows[0]

    def test_a_huge_cartesian_sweep_warns_on_stderr(self, tmp_path, capsys, monkeypatch):
        # A diagnostic line even where Python warnings are errors.
        monkeypatch.setattr(dlcost.sweep, "CARTESIAN_WARNING_CELLS", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, data = run_to_file(tmp_path, "sweep", "--corpus",
                                     "--axes", "ethernet,pcie", "--cartesian")
        assert code == EX_OK
        assert capsys.readouterr().err == "dlcost: warning: cartesian sweep emits 36 cells\n"
        assert len(parse_csv(data)) == 6 * 3 * 2

    @pytest.mark.parametrize("cartesian", [[], ["--cartesian"]])
    def test_an_infinite_speedup_is_a_missing_value(self, tmp_path, cartesian):
        # The tiny job's step underflows to zero time on the fastest GPU:
        # infinitely faster, written as an empty CSV cell and JSON null.
        trace = tmp_path / "tiny.jsonl"
        write_trace([make_record(job_id="idle", flops=0.0, mem_access_bytes=0.0,
                                 input_bytes=0.0, weight_traffic_bytes=0.0),
                     make_record(job_id="tiny", arch=ArchitectureKind.ONE_WORKER_ONE_GPU,
                                 flops=1e-300, mem_access_bytes=0.0, input_bytes=0.0)], trace)
        argv = ["sweep", "--trace", str(trace), "--axes", "gpu_flops",
                "--candidates", f"{PAI.gpu_peak_flops!r},1e300", *cartesian]
        code, data = run_to_file(tmp_path, *argv)
        assert code == EX_OK
        assert [r["speedup"] for r in parse_csv(data)] == ["1", "1", "1", ""]
        code, data = run_to_file(tmp_path, *argv, "--format", "json")
        assert code == EX_OK
        assert [r["speedup"] for r in json.loads(data)["rows"]] == [1.0, 1.0, 1.0, None]

    def test_unknown_axis(self):
        assert run(["sweep", "--corpus", "--axes", "infiniband"]) == EX_USAGE

    @pytest.mark.parametrize("cartesian", [[], ["--cartesian"]])
    def test_repeated_axis_is_a_usage_error(self, tmp_path, capsys, cartesian):
        out = tmp_path / "out"
        assert run(["sweep", "--corpus", "--axes", "ethernet,pcie, ethernet", *cartesian,
                    "--out", str(out)]) == EX_USAGE
        assert capsys.readouterr().err == "dlcost: --axes gives ethernet more than once\n"
        assert not out.exists()

    def test_candidates_need_single_axis(self):
        assert run(["sweep", "--corpus", "--axes", "ethernet,pcie",
                    "--candidates", "10Gbps"]) == EX_USAGE

    @pytest.mark.parametrize("candidates, shown", [("0", "0.0"), ("nan", "nan"),
                                                   ("-1", "-1.0"), ("10Gbps,0", "0.0"),
                                                   ("1e400", "inf")])
    def test_out_of_range_candidate_is_a_usage_error(self, capsys, candidates, shown):
        assert run(["sweep", "--corpus", "--axes", "ethernet",
                    "--candidates", candidates]) == EX_USAGE
        assert capsys.readouterr().err == (
            f"dlcost: axis ethernet: candidate {shown} must be finite and positive\n")

    def test_malformed_candidate_is_a_usage_error(self, capsys):
        assert run(["sweep", "--corpus", "--axes", "ethernet",
                    "--candidates", "10XB"]) == EX_USAGE
        assert capsys.readouterr().err == (
            "dlcost: --candidates: malformed bandwidth '10XB' "
            "(expected e.g. '25Gbps' or '10GB/s')\n")

    @pytest.mark.parametrize("candidates, shown", [("10Gbps,1.25e9", "1250000000.0"),
                                                   ("5e9,25Gbps,5e9", "5000000000.0")])
    def test_repeated_candidate_is_a_usage_error(self, capsys, candidates, shown):
        assert run(["sweep", "--corpus", "--axes", "ethernet",
                    "--candidates", candidates]) == EX_USAGE
        assert capsys.readouterr().err == (
            f"dlcost: axis ethernet: candidate {shown} given more than once\n")


class TestAggregateCommand:
    @pytest.mark.parametrize("stat", ["shares", "composition", "share-cdf", "scale-cdf"])
    def test_stats_emit(self, tmp_path, stat):
        code, data = run_to_file(tmp_path, "aggregate", "--corpus", "--stat", stat)
        assert code == EX_OK
        assert len(parse_csv(data)) > 0

    def test_share_cdf_levels(self, tmp_path):
        code, data = run_to_file(tmp_path, "aggregate", "--corpus", "--stat", "share-cdf",
                                 "--component", "weight", "--level", "cnode")
        assert code == EX_OK
        rows = parse_csv(data)
        assert float(rows[-1]["cumulative_fraction"]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("stat", [["share-cdf", "--component", "memory_bound"],
                                      ["scale-cdf"]], ids=["share-cdf", "scale-cdf"])
    @pytest.mark.parametrize("format", FORMATS)
    def test_signed_zero_rows_do_not_depend_on_line_order(self, tmp_path, stat, format):
        # -0.0 passes the >= 0 checks; it ties with 0.0 in both statistics.
        jobs = [make_record(job_id=f"j{i}", mem_access_bytes=z, dense_weight_bytes=z,
                            embedding_weight_bytes=z) for i, z in enumerate((-0.0, 0.0))]
        rows = []
        for order in (jobs, jobs[::-1]):
            trace = tmp_path / "trace.jsonl"
            write_trace(order, trace)
            code, data = run_to_file(tmp_path, "aggregate", "--trace", str(trace),
                                     "--stat", *stat, "--format", format)
            assert code == EX_OK
            # The metadata holds the trace's digest, which differs by order.
            if format == "csv":
                rows.append([ln for ln in data.splitlines() if not ln.startswith(b"#")])
            else:
                rows.append(data.split(b'\n  "columns": ', 1)[1])
        assert rows[0] == rows[1]


class TestSensitivityCommand:
    def test_efficiency_grid(self, tmp_path):
        code, data = run_to_file(tmp_path, "sensitivity", "--corpus",
                                 "--comp-grid", "0.25,0.7", "--comm-grid", "0.7")
        assert code == EX_OK
        rows = parse_csv(data)
        assert len(rows) == 2
        shares = {r["compute_eff"]: float(r["job_level_weight_share"]) for r in rows}
        assert shares["0.25"] < shares["0.7"]  # weaker compute dilutes the weight share

    @pytest.mark.parametrize("flag, grid, message", [
        ("--comp-grid", "1.5", "compute efficiency 1.5 outside (0, 1]"),
        ("--comp-grid", "nan", "compute efficiency nan outside (0, 1]"),
        ("--comm-grid", "0", "communication efficiency 0.0 outside (0, 1]"),
        ("--comm-grid", ",", "--comm-grid must be comma-separated numbers, got ','"),
        ("--comp-grid", "0.5,,0.5", "--comp-grid must be comma-separated numbers, got '0.5,,0.5'"),
        ("--comp-grid", "0.5,,0.7", "--comp-grid must be comma-separated numbers, got '0.5,,0.7'"),
        ("--comm-grid", "0.5,", "--comm-grid must be comma-separated numbers, got '0.5,'"),
        ("--comm-grid", "0.7,0.70", "communication efficiency 0.7 given more than once"),
    ])
    def test_out_of_range_grid_is_a_usage_error(self, capsys, flag, grid, message):
        assert run(["sensitivity", "--corpus", flag, grid]) == EX_USAGE
        assert capsys.readouterr().err == f"dlcost: {message}\n"

    def test_overlap_analysis(self, tmp_path):
        code, data = run_to_file(tmp_path, "sensitivity", "--corpus",
                                 "--analysis", "overlap", "--target", "allreduce_local")
        assert code == EX_OK
        rows = parse_csv(data)
        assert [r["overlap"] for r in rows] == ["none", "ideal"]
        meta = csv_metadata(data)
        assert "fraction_at_weight_path_ratio" in meta


@pytest.fixture(scope="module")
def synth_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("synth") / "jobs.jsonl"
    assert run(["synth", "--size", "1000", "--seed", "7", "--out", str(trace)]) == EX_OK
    return trace


class TestOverlapFreeReports:
    """Shares divide by the component sum, so the overlap mode reaches these
    reports only through the metadata entry that records it."""

    @pytest.mark.parametrize("analysis", [
        ["aggregate", "--stat", "shares"],
        ["aggregate", "--stat", "share-cdf", "--level", "cnode"],
        ["sensitivity", "--analysis", "efficiency"],
    ], ids=["shares", "share-cdf", "efficiency"])
    @pytest.mark.parametrize("source", ["corpus", "synth"])
    @pytest.mark.parametrize("format", FORMATS)
    def test_reports_differ_only_in_the_overlap_entry(self, tmp_path, synth_trace, analysis,
                                                      source, format):
        population = ["--corpus"] if source == "corpus" else ["--trace", str(synth_trace)]
        lines = {}
        for overlap in ("none", "ideal"):
            code, data = run_to_file(tmp_path, *analysis, *population, "--format", format,
                                     "--overlap", overlap)
            assert code == EX_OK
            lines[overlap] = data.decode().splitlines()
        assert len(lines["none"]) == len(lines["ideal"])
        differ = [(a, b) for a, b in zip(lines["none"], lines["ideal"]) if a != b]
        entry = {"csv": "# overlap: {}", "json": '    "overlap": "{}",'}[format]
        assert differ == [(entry.format("none"), entry.format("ideal"))]


class TestSynthAndCorpusCommands:
    def test_synth_is_deterministic_and_loadable(self, tmp_path):
        code, a = run_to_file(tmp_path, "synth", "--size", "25", "--seed", "9", name="a")
        assert code == EX_OK
        _, b = run_to_file(tmp_path, "synth", "--size", "25", "--seed", "9", name="b")
        assert a == b
        trace = tmp_path / "a"
        assert run(["breakdown", "--trace", str(trace), "--out",
                    str(tmp_path / "bd.csv")]) == EX_OK

    def test_synth_mix_flag(self, tmp_path):
        code, data = run_to_file(tmp_path, "synth", "--size", "10", "--seed", "1",
                                 "--mix", "one_worker_one_gpu=1.0")
        assert code == EX_OK
        for line in data.decode().splitlines():
            assert json.loads(line)["arch"] == "one_worker_one_gpu"

    def test_synth_bad_mix(self):
        assert run(["synth", "--size", "10", "--seed", "1",
                    "--mix", "ps_worker=0.4"]) == EX_USAGE

    @pytest.mark.parametrize("mix, message", [
        ("ps_worker=nan,pearl=0.5",
         "mix fraction for ps_worker must be finite and non-negative, got nan"),
        ("ps_worker=nan", "mix fraction for ps_worker must be finite and non-negative, got nan"),
        ("ps_worker=inf", "mix fraction for ps_worker must be finite and non-negative, got inf"),
        ("ps_worker=1,ps_worker=1", "--mix gives ps_worker more than once"),
        ("ps_worker=0.5,pearl=0.5,ps_worker=0", "--mix gives ps_worker more than once"),
        ("", "--mix entries must look like arch=fraction, got ''"),
        (",", "--mix entries must look like arch=fraction, got ''"),
        ("ps_worker=1,,", "--mix entries must look like arch=fraction, got ''"),
        ("ps_worker=abc", "--mix entries must look like arch=fraction, got 'ps_worker=abc'"),
        ("ps_worker=1e308,pearl=1e308", "mix fractions must sum to 1, got inf"),
    ])
    def test_synth_mix_fraction_errors_are_usage_errors(self, tmp_path, capsys, mix, message):
        out = tmp_path / "out"
        assert run(["synth", "--size", "5", "--seed", "1", "--mix", mix,
                    "--out", str(out)]) == EX_USAGE
        assert capsys.readouterr().err == f"dlcost: {message}\n"
        assert not out.exists()

    def test_corpus_dump_round_trips(self, tmp_path):
        code, data = run_to_file(tmp_path, "corpus")
        assert code == EX_OK
        assert len(data.decode().splitlines()) == 6
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(data)
        assert run(["validate", "--trace", str(path),
                    "--out", str(tmp_path / "v.csv")]) == EX_OK


class TestValidateCommand:
    def test_reports_gaps_for_measured_records(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"job_id":"m","arch":"ps_worker","num_cnodes":4,"batch_size":64,'
            '"flops":1e12,"mem_access_bytes":1e10,"input_bytes":1e6,'
            '"weight_traffic_bytes":1e9,"dense_weight_bytes":1e8,'
            '"embedding_weight_bytes":0,"measured_step_seconds":0.5}\n')
        code, data = run_to_file(tmp_path, "validate", "--trace", str(trace))
        assert code == EX_OK
        [row] = parse_csv(data)
        predicted = float(row["predicted_step_seconds"])
        gap = float(row["gap"])
        assert gap == pytest.approx((predicted - 0.5) / 0.5, rel=1e-6)

    @pytest.mark.parametrize("changes,message", [
        ({"measured_step_secs": 0.5}, "unknown field 'measured_step_secs'"),
        ({"notes": {"x": "hello"}}, "note 'x' must be a finite number, got 'hello'"),
        ({"arch": "allreduce_local", "num_cnodes": 64},
         "allreduce_local runs on one server: num_cnodes must be at most 8, got 64"),
        ({"job_id": "c"}, "duplicate job_id 'c' (first on line 1)"),
        ({"job_id": "\ud800"},
         "job_id '\\ud800' holds a lone surrogate, which UTF-8 cannot encode"),
        ({"job_id": None}, "job_id must be a string, got None"),
        ({"job_id": 5}, "job_id must be a string, got 5"),
        ({"job_id": [1]}, "job_id must be a string, got [1]"),
    ])
    def test_rejected_inputs_exit_2(self, tmp_path, capsys, changes, message):
        job = {"job_id": "c", "arch": "ps_worker", "num_cnodes": 4, "batch_size": 64,
               "flops": 1e12, "mem_access_bytes": 1e10, "input_bytes": 1e6,
               "weight_traffic_bytes": 1e9, "dense_weight_bytes": 1e8,
               "embedding_weight_bytes": 0}
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps(job) + "\n" + json.dumps(job | {"job_id": "d"} | changes))
        code, data = run_to_file(tmp_path, "validate", "--trace", str(trace))
        assert code == EX_DATA
        assert [(row["line"], row["status"]) for row in parse_csv(data)] == [
            ("2", "error"), ("", "ok")]
        assert capsys.readouterr().err == f"{trace}:2: {message}\n"

    @staticmethod
    def corpus_repeating_a_key(tmp_path, repeat):
        """The corpus trace with ``repeat`` appended to its first object."""
        code, data = run_to_file(tmp_path, "corpus", name="corpus.jsonl")
        assert code == EX_OK
        first, rest = data.decode().split("\n", 1)
        trace = tmp_path / "dup.jsonl"
        trace.write_text(f"{first[:-1]}{repeat}}}\n{rest}")
        return trace

    @pytest.mark.parametrize("repeat, key", [(', "flops": 1', "flops"),
                                             (', "notes": {"q": 1, "q": 1}', "q")])
    @pytest.mark.parametrize("command", [["validate"], ["breakdown"],
                                         ["project", "--target", "allreduce_local"],
                                         ["aggregate"]])
    def test_a_repeated_key_exits_2_naming_its_line(self, tmp_path, capsys, repeat, key,
                                                      command):
        trace = self.corpus_repeating_a_key(tmp_path, repeat)
        code = run([*command, "--trace", str(trace), "--out", str(tmp_path / "out")])
        assert code == EX_DATA
        assert capsys.readouterr().err == f"{trace}:1: repeated key '{key}'\n"

    def test_validate_writes_an_error_row_for_a_repeated_key(self, tmp_path):
        trace = self.corpus_repeating_a_key(tmp_path, ', "flops": 1')
        code, data = run_to_file(tmp_path, "validate", "--trace", str(trace))
        assert code == EX_DATA
        rows = [(row["line"], row["status"], row["message"]) for row in parse_csv(data)]
        assert rows == [("1", "error", "repeated key 'flops'"), *[("", "ok", "")] * 5]

    def test_a_line_feed_inside_a_unit_string_splits_no_column(self, tmp_path, capsys):
        job = {"job_id": "c", "arch": "ps_worker", "num_cnodes": 4, "batch_size": 64,
               "flops": "1T", "mem_access_bytes": "10GB", "input_bytes": "5MB\n7MB",
               "weight_traffic_bytes": "1GB", "dense_weight_bytes": "100MB",
               "embedding_weight_bytes": "0B"}
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps(job) + "\n"
                         + json.dumps(job | {"job_id": "d", "input_bytes": "junk"}) + "\n")
        code, data = run_to_file(tmp_path, "validate", "--trace", str(trace))
        assert code == EX_DATA
        assert capsys.readouterr().err == (
            f"{trace}:1: malformed byte size '5MB\\n7MB' (expected e.g. '204MB')\n"
            f"{trace}:2: malformed byte size 'junk' (expected e.g. '204MB')\n")

    @pytest.mark.parametrize("field", ["num_cnodes", "batch_size"])
    @pytest.mark.parametrize("command", [["validate"], ["breakdown"],
                                         ["project", "--target", "allreduce_local"],
                                         ["aggregate"]])
    def test_count_too_large_for_a_float_exit_2(self, tmp_path, capsys, field, command):
        job = {"job_id": "c", "arch": "ps_worker", "num_cnodes": 4, "batch_size": 64,
               "flops": 1e12, "mem_access_bytes": 1e10, "input_bytes": 1e6,
               "weight_traffic_bytes": 1e9, "dense_weight_bytes": 1e8,
               "embedding_weight_bytes": 0, field: 10 ** 400}
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps(job) + "\n")
        code = run([*command, "--trace", str(trace), "--out", str(tmp_path / "out")])
        assert code == EX_DATA
        assert capsys.readouterr().err == f"{trace}:1: {field} is too large for a float\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_lone_surrogate_job_id_exit_2_before_any_report(self, tmp_path, capsys, fmt):
        job = {"job_id": "\ud800", "arch": "ps_worker", "num_cnodes": 4, "batch_size": 64,
               "flops": 1e12, "mem_access_bytes": 1e10, "input_bytes": 1e6,
               "weight_traffic_bytes": 1e9, "dense_weight_bytes": 1e8,
               "embedding_weight_bytes": 0}
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps(job) + "\n")
        out = tmp_path / "out"
        code = run(["breakdown", "--trace", str(trace), "--format", fmt, "--out", str(out)])
        assert code == EX_DATA and not out.exists()
        assert capsys.readouterr().err == (
            f"{trace}:1: job_id '\\ud800' holds a lone surrogate, which UTF-8 cannot encode\n")

    def test_empty_trace_gives_the_header_and_no_rows(self, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        columns = ["line", "job_id", "status", "message", "predicted_step_seconds",
                   "measured_step_seconds", "gap"]
        code, data = run_to_file(tmp_path, "validate", "--trace", str(trace))
        assert code == EX_OK
        lines = data.decode().splitlines()
        assert [line for line in lines if not line.startswith("# ")] == [",".join(columns)]
        assert csv_metadata(data)["n_errors"] == "0"
        code, data = run_to_file(tmp_path, "validate", "--trace", str(trace), "--format", "json")
        assert code == EX_OK
        payload = json.loads(data)
        assert payload["columns"] == columns and payload["rows"] == []

    def test_malformed_lines_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"job_id": "x"}\n')
        code, data = run_to_file(tmp_path, "validate", "--trace", str(trace))
        assert code == EX_DATA
        [row] = parse_csv(data)
        assert row["status"] == "error"
        assert row["line"] == "1"
        assert "missing field" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == EX_USAGE

    def test_unknown_flag(self):
        assert run(["breakdown", "--corpus", "--frobnicate"]) == EX_USAGE

    def test_no_command(self):
        assert run([]) == EX_USAGE

    def test_missing_trace_file(self):
        assert run(["breakdown", "--trace", "/no/such/file"]) == EX_NOINPUT

    def test_unknown_hw_preset(self):
        assert run(["breakdown", "--corpus", "--hw", "dgx-9000"]) == EX_NOINPUT

    def test_report_out_is_a_directory(self, tmp_path, capsys):
        assert run(["breakdown", "--corpus", "--out", str(tmp_path)]) == EX_CANTCREAT
        assert capsys.readouterr().err == (
            f"dlcost: {tmp_path}: cannot write output: Is a directory\n")

    def test_report_out_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "out.csv"
        assert run(["breakdown", "--corpus", "--out", str(out)]) == EX_CANTCREAT
        assert capsys.readouterr().err == (
            f"dlcost: {out}: cannot write output: No such file or directory\n")

    def test_synth_out_is_a_directory(self, tmp_path, capsys):
        assert run(["synth", "--size", "2", "--seed", "1", "--out", str(tmp_path)]) == EX_CANTCREAT
        assert capsys.readouterr().err == (
            f"dlcost: {tmp_path}: cannot write output: Is a directory\n")

    def test_corpus_out_is_a_directory(self, tmp_path, capsys):
        assert run(["corpus", "--out", str(tmp_path)]) == EX_CANTCREAT
        assert capsys.readouterr().err == (
            f"dlcost: {tmp_path}: cannot write output: Is a directory\n")

    def test_trace_that_is_a_directory_stays_an_input_error(self, tmp_path):
        assert run(["breakdown", "--trace", str(tmp_path)]) == EX_NOINPUT

    def test_hw_field_set_twice_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "lab.hw"
        cfg.write_text("gpu = 11TFLOPs\nmemory = 1TB/s\npcie = 10GB/s\npci = 20GB/s\n"
                       "ethernet = 25Gbps\nnvlink = 50GB/s\n")
        assert run(["breakdown", "--corpus", "--hw", str(cfg)]) == EX_DATA
        assert capsys.readouterr().err == (
            f"dlcost: {cfg}:4: pcie_bandwidth already set on line 3\n")

    def test_eff_value_that_is_not_a_number_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "lab.eff"
        cfg.write_text("compute_eff = abc\n")
        assert run(["breakdown", "--corpus", "--eff", str(cfg)]) == EX_DATA
        assert capsys.readouterr().err == f"dlcost: {cfg}:1: compute_eff: not a number: 'abc'\n"

    def test_unknown_eff_spec_is_an_input_error(self, capsys):
        assert run(["breakdown", "--corpus", "--eff", "nope"]) == EX_NOINPUT
        assert capsys.readouterr().err == (
            "dlcost: unknown efficiency spec 'nope' "
            "(expected 'default', 'measured:<corpus job>', or a config file path)\n")

    def test_malformed_trace_is_data_error(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text("{broken\n")
        assert run(["breakdown", "--trace", str(trace)]) == EX_DATA
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["validate"], ["aggregate"]])
    def test_invalid_utf8_is_a_line_numbered_data_error(self, tmp_path, capsys, command):
        trace = tmp_path / "bad.jsonl"
        trace.write_bytes(b'{"job_id": "a"}\n{"job_id": "\xff"}\n')
        out = tmp_path / "out"
        assert run([*command, "--trace", str(trace), "--out", str(out)]) == EX_DATA
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"dlcost: {trace}:2: invalid UTF-8 byte 0xff (invalid start byte)\n")

    def test_empty_trace_is_data_error(self, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert run(["breakdown", "--trace", str(trace)]) == EX_DATA

    @pytest.mark.parametrize("trace_text, argv, message", [
        ("{broken\n", ["sweep", "--axes", "bogus"],
         "unknown sweep axis 'bogus' (known: ethernet, pcie, gpu_flops, gpu_mem_bandwidth)"),
        ("", ["sensitivity", "--comp-grid", "2"], "compute efficiency 2.0 outside (0, 1]"),
        (None, ["sweep", "--axes", "pcie", "--candidates", "0"],
         "axis pcie: candidate 0.0 must be finite and positive"),
    ], ids=["malformed-trace", "empty-trace", "missing-trace"])
    def test_a_bad_flag_is_a_usage_error_before_any_input_is_read(
            self, tmp_path, capsys, trace_text, argv, message):
        trace = tmp_path / "t.jsonl"
        if trace_text is not None:
            trace.write_text(trace_text)
        out = tmp_path / "out"
        assert run([*argv, "--trace", str(trace), "--out", str(out)]) == EX_USAGE
        assert not out.exists()
        assert capsys.readouterr().err == f"dlcost: {message}\n"

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == EX_OK
        assert "COMMAND" in capsys.readouterr().out

    def test_trace_under_a_regular_file_is_an_input_error(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text("")
        path = trace / "x"
        assert run(["breakdown", "--trace", str(path)]) == EX_NOINPUT
        assert capsys.readouterr().err == (
            f"dlcost: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{path}'\n")

    @pytest.mark.parametrize("flag", ["--trace", "--hw", "--eff"])
    def test_a_file_name_too_long_is_an_input_error(self, capsys, flag):
        name = "a" * 300
        source = [] if flag == "--trace" else ["--corpus"]
        assert run(["breakdown", *source, flag, name]) == EX_NOINPUT
        assert capsys.readouterr().err == (
            f"dlcost: [Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: '{name}'\n")

    def test_trace_that_is_a_symlink_loop_is_an_input_error(self, tmp_path, capsys):
        loop = tmp_path / "loop.jsonl"
        os.symlink(loop, loop)
        assert run(["breakdown", "--trace", str(loop)]) == EX_NOINPUT
        assert capsys.readouterr().err == (
            f"dlcost: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: '{loop}'\n")

    @pytest.mark.parametrize("argv", [["breakdown", "--corpus"], ["corpus"]])
    def test_a_failed_stdout_write_is_an_output_error(self, capsys, monkeypatch, argv):
        class FullDisk(io.BytesIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        # capsys is requested first, so it is torn down last: monkeypatch puts
        # back capsys's stream, then capsys puts back the real stdout.
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(FullDisk()))
        assert run(argv) == EX_CANTCREAT
        assert capsys.readouterr().err == (
            f"dlcost: <stdout>: cannot write output: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_a_full_stdout_exits_73_from_the_entry_point(self, unbuffered):
        # Buffered, the corpus fits the stdout buffer, so the write fails at
        # the flush; the interpreter's own flush at exit must not fail again.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-c", "from dlcost.cli import main; main()", "corpus"],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
        assert (proc.returncode, proc.stderr.decode()) == (
            EX_CANTCREAT, f"dlcost: <stdout>: cannot write output: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("argv", [["breakdown", "--corpus"],
                                      ["breakdown", "--corpus", "--format", "json"], ["corpus"]])
    def test_a_stdout_that_fills_up_partway_is_an_output_error(self, capsys, monkeypatch, argv):
        class FillsUp(io.BytesIO):
            def write(self, data):
                if self.tell():  # the second write
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data)

        monkeypatch.setattr(dlcost.report, "EMIT_CHUNK_ROWS", 2)  # three ranges of the corpus
        stdout = FillsUp()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(stdout))  # after capsys, as above
        assert run(argv) == EX_CANTCREAT
        assert stdout.getvalue()
        assert capsys.readouterr().err == (
            f"dlcost: <stdout>: cannot write output: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["breakdown", "--corpus"],
                                      ["breakdown", "--corpus", "--format", "json"], ["corpus"]])
    def test_an_out_that_fills_up_is_an_output_error(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(dlcost.report, "EMIT_CHUNK_ROWS", 2)
        assert run([*argv, "--out", "/dev/full"]) == EX_CANTCREAT
        assert capsys.readouterr().err == (
            f"dlcost: /dev/full: cannot write output: {os.strerror(errno.ENOSPC)}\n")
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)  # not replaced by a file


class TestOutputMemory:
    def test_a_report_is_written_holding_a_fraction_of_its_bytes(self, tmp_path, monkeypatch):
        # Each range's bytes are written before the next range is formatted,
        # so from the first ``emit`` call on, the run holds about one range of
        # the report beyond what it held before.  Measured: 0.14 times the
        # output's length on Python 3.11 and 0.15 on 3.10, against 2.02 times
        # when one call formatted the whole report and joined its parts.
        trace = tmp_path / "jobs.jsonl"
        assert run(["synth", "--size", "2000", "--seed", "7", "--out", str(trace)]) == EX_OK
        monkeypatch.setattr(dlcost.report, "EMIT_CHUNK_ROWS", 64)
        emit_range, held = dlcost.cli.emit, []

        def emit_from_a_reset_peak(*args):
            if not held:
                held.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            return emit_range(*args)

        monkeypatch.setattr(dlcost.cli, "emit", emit_from_a_reset_peak)
        out = tmp_path / "out.json"
        tracemalloc.start()
        try:
            assert run(["project", "--target", "allreduce_local", "--format", "json",
                        "--trace", str(trace), "--out", str(out)]) == EX_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held[0] < out.stat().st_size / 2


def one_block(columns, rows, metadata):
    """A report of one block, given its rows, in which every cell varies."""
    cells = tuple(map(list, zip(*rows))) if rows else tuple([] for _ in columns)
    return Report(columns=columns, blocks=(Block(len(rows), cells),), metadata=metadata)


class Text(str):
    """A str subclass: text to both formats, as a str is."""


class TestBuildReport:
    def test_columns_of_different_lengths_are_rejected(self):
        # zip would otherwise drop the rows past the shortest column.
        with pytest.raises(ValueError, match="report columns differ in length"):
            build_report("k", [{"a": [1, 2], "b": [1]}], PAI, EFF, OverlapMode.NO_OVERLAP,
                         "src", "0" * 64)

    def test_blocks_of_different_columns_are_rejected(self):
        with pytest.raises(ValueError, match="report blocks differ in columns"):
            build_report("k", [{"a": [1], "b": [2]}, {"b": [2], "a": [1]}], PAI, EFF,
                         OverlapMode.NO_OVERLAP, "src", "0" * 64)

    def test_a_block_of_only_fixed_cells_is_rejected(self):
        # It has no per-row column to give its row count.
        with pytest.raises(ValueError, match="report block has no per-row column"):
            build_report("k", [{"a": Fixed(1), "b": Fixed("x")}], PAI, EFF,
                         OverlapMode.NO_OVERLAP, "src", "0" * 64)

    def test_rows_are_the_blocks_with_their_fixed_cells_filled_in(self):
        b = [1, 2]
        report = build_report("k", [
            {"a": Fixed(None), "b": b, "c": Fixed("x,y")},
            {"a": [3.5], "b": Fixed(math.inf), "c": ["z"]},
            {"a": Fixed(0), "b": [], "c": []},
        ], PAI, EFF, OverlapMode.NO_OVERLAP, "src", "0" * 64)
        assert report.columns == ("a", "b", "c")
        assert report.blocks[0] == Block(2, (Fixed(None), [1, 2], Fixed("x,y")))
        assert report.blocks[0].columns[1] is b  # held as it is, not copied
        assert report.rows == range(3)
        assert report_rows(report) == [(None, 1, "x,y"), (None, 2, "x,y"), (3.5, math.inf, "z")]


#: One type of cell each; a column draws its cells from one or two of them.
CELL_KINDS = {
    "none": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0])),
    "str": st.one_of(st.text(), st.sampled_from(["", "-", "#", "{}", "{0}", "\u00e9"])),
}

#: Fixed cells that each take a path of their own: quoted CSV text, a
#: non-finite float (an empty CSV cell, JSON null) and a missing value.
ODD_FIXED_CELLS = ["a,b", 'say "hi"', "two\nlines", math.inf, -math.inf, math.nan, None]


@st.composite
def chunked_reports(draw):
    """An emission chunk size and a report of one to three blocks, each up to
    past two chunks long.  In each block a column is either fixed, one drawn
    cell for all of the block's rows, or draws each row's cell from a few
    values of one or two types; a text column may hold a string that needs
    quoting in a later chunk only."""
    chunk = draw(st.sampled_from([1, 2, 3, 5, EMIT_CHUNK_ROWS]))
    names = draw(st.lists(st.text(), max_size=4, unique=True))
    rnd = draw(st.randoms(use_true_random=False))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        n_rows = max(0, chunk * draw(st.integers(0, 2)) + draw(st.integers(-1, 1)))
        columns = []
        for _ in names:
            kinds = draw(st.lists(st.sampled_from(sorted(CELL_KINDS)), min_size=1, max_size=2,
                                  unique=True))
            cells = st.one_of(*(CELL_KINDS[k] for k in kinds))
            if draw(st.booleans()):
                columns.append(Fixed(draw(st.one_of(cells, st.sampled_from(ODD_FIXED_CELLS)))))
                continue
            pool = draw(st.lists(cells, min_size=1, max_size=4))
            column = [rnd.choice(pool) for _ in range(n_rows)]
            if "str" in kinds and n_rows > chunk and draw(st.booleans()):
                quoted = draw(st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\r"]))
                column[rnd.randrange(chunk, n_rows)] = quoted
            columns.append(column)
        blocks.append(Block(n_rows, tuple(columns)))
    return chunk, Report(columns=tuple(names), blocks=tuple(blocks), metadata={})


#: Text cells that each need CSV quoting.
QUOTED_TEXTS = ["a,b", 'say "hi"', "two\nlines", "cr\r"]


@st.composite
def shared_column_reports(draw):
    """An emission chunk size and two reports of the same cells: in the
    first, two or more blocks hold one per-row list (the same object), as
    a sweep's blocks hold its job ids; in the second, every block holds a
    copy of its own.  The shared list's cells may need CSV quoting in any
    chunk, and a block may hold the list twice or a list of its own."""
    chunk = draw(st.sampled_from([1, 2, 3, 5]))
    n_rows = max(0, chunk * draw(st.integers(0, 3)) + draw(st.integers(-1, 1)))
    cells = draw(st.sampled_from([st.one_of(CELL_KINDS["str"], st.sampled_from(QUOTED_TEXTS)),
                                  st.one_of(*CELL_KINDS.values())]))
    rows = st.lists(cells, min_size=n_rows, max_size=n_rows)
    shared = draw(rows)
    blocks = []
    for i in range(draw(st.integers(2, 4))):
        own = i > 1 and draw(st.booleans())
        ids = draw(rows) if own else shared
        last = shared if draw(st.booleans()) else draw(rows)
        fixed = Fixed(draw(st.one_of(cells, st.sampled_from(ODD_FIXED_CELLS))))
        blocks.append((ids, fixed, last))
    def report(copy):
        return Report(("id", "setting", "value"),
                      tuple(Block(n_rows, tuple(map(copy, block))) for block in blocks), {})

    return chunk, report(lambda c: c), report(lambda c: c if isinstance(c, Fixed) else list(c))


class TestEmit:
    def test_empty_rows_give_header_only_csv(self):
        report = one_block(("a", "b"), (), {"kind": "breakdown"})
        data = emit(report, "csv").decode()
        lines = [ln for ln in data.splitlines() if not ln.startswith("#")]
        assert lines == ["a,b"]

    def test_nine_significant_digits(self):
        report = one_block(("x",), ((math.pi,),), {})
        assert "3.14159265" in emit(report, "csv").decode()
        assert json.loads(emit(report, "json"))["rows"][0]["x"] == 3.14159265

    def test_unknown_format_rejected(self):
        report = one_block((), (), {})
        with pytest.raises(ValueError):
            emit(report, "yaml")

    @given(st.lists(st.from_regex(r"[a-z_][a-z0-9_]*", fullmatch=True),
                    min_size=1, max_size=4, unique=True).flatmap(
        lambda columns: st.tuples(st.just(tuple(columns)), st.lists(st.tuples(*(st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
            st.sampled_from(['a,b', 'say "hi"', "two\nlines", "cr\r", "", "-", "#"]),
        ) for _ in columns)), max_size=5))))
    def test_csv_and_json_parse_to_identical_values(self, table):
        columns, rows = table
        report = one_block(columns, tuple(rows), {"kind": "k"})

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(emit(report, "json"), parse_constant=reject)
        text = emit(report, "csv").decode("utf-8")
        # Python 3.10's csv reader refuses a NUL anywhere in its input.
        assume(sys.version_info >= (3, 11) or "\0" not in text)
        # One '# kind: k' metadata line, then the table.
        meta, body = text.split("\n", 1)
        assert meta == "# kind: k"
        header, *csv_rows = csv.reader(io.StringIO(body, newline=""))
        assert tuple(header) == columns == tuple(payload["columns"])
        assert len(csv_rows) == len(payload["rows"]) == len(rows)
        for row, c_row, j_row in zip(rows, csv_rows, payload["rows"]):
            assert list(j_row) == list(columns)
            for value, c_val, j_val in zip(row, c_row, j_row.values()):
                if isinstance(value, float):  # emitted to 9 digits, or missing
                    value = float(f"{value:.9g}") if math.isfinite(value) else None
                assert type(j_val) is type(value) and repr(j_val) == repr(value)
                if j_val is None:
                    assert c_val == ""
                elif isinstance(j_val, bool):
                    assert c_val == ("true" if j_val else "false")
                elif isinstance(j_val, int):
                    assert int(c_val) == j_val
                elif isinstance(j_val, float):
                    assert float(c_val).hex() == j_val.hex()
                else:
                    assert c_val == j_val

    @given(st.lists(st.text(), max_size=4, unique=True).flatmap(
        lambda columns: st.tuples(st.just(tuple(columns)), st.lists(st.tuples(*(st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
            st.sampled_from(['say "hi"', "back\\slash", "\x00\x1f\t\n\r", "\u00e9\u2028",
                             "\ud800", "\U0001f600"]),
        ) for _ in columns)), max_size=4))),
        st.dictionaries(st.text(), st.recursive(
            st.one_of(st.none(), st.booleans(), st.integers(), st.text(),
                      st.floats(allow_nan=False, allow_infinity=False)),
            lambda children: st.one_of(st.lists(children, max_size=3),
                                       st.dictionaries(st.text(), children, max_size=3)),
            max_leaves=8), max_size=4))
    def test_json_is_json_dumps_with_indent(self, table, metadata):
        columns, rows = table
        report = one_block(columns, tuple(rows), metadata)

        def cell(value):  # floats are emitted to 9 digits, or as null
            if isinstance(value, float):
                return float(f"{value:.9g}") if math.isfinite(value) else None
            return value

        payload = {"metadata": metadata, "columns": list(columns),
                   "rows": [{c: cell(v) for c, v in zip(columns, row)} for row in rows]}
        expected = (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode()
        assert emit(report, "json") == expected

    @settings(deadline=None)
    @given(chunked_reports())
    @example((EMIT_CHUNK_ROWS, one_block(("a",), (("",),) * (EMIT_CHUNK_ROWS + 1), {})))
    @example((2, one_block(("f", "b", "n", "s"), (
        (None, True, 1, "a"), (1.5, 2, 2.5, "b"),
        (-0.0, False, math.inf, "c,d"), (math.nan, 0, 3, "e")), {})))
    @example((2, Report(columns=("f", "s", "n"), blocks=(
        Block(3, ([1.5, 2.5, 3.5], Fixed('say "hi"'), Fixed(None))),
        Block(3, (Fixed(math.nan), Fixed(""), Fixed(-math.inf))),
        Block(2, (Fixed("x"), [None, "b,c"], ["a", 1]))), metadata={})))
    # Float-or-missing columns across a chunk boundary, each chunk of one
    # column with a different mix.
    @example((2, one_block(("f", "g"), (
        (1.5, None), (0.25, math.inf), (None, -math.inf), (math.nan, 2.5), (-0.0, None)), {})))
    # A fixed cell of every type.
    @example((2, Report(columns=("n", "b", "i", "f", "s", "v"), blocks=(
        Block(3, (Fixed(None), Fixed(False), Fixed(-7), Fixed(0.1), Fixed("a,b"),
                  [1.5, 2.5, 3.5])),),
        metadata={})))
    # A str subclass holding a comma, and a bool among ints.
    @example((2, one_block(("m",), ((1,), (Text("x,y"),), (True,), (2,), (False,)), {})))
    # Column names that a %- or a str.format template would read as fields.
    @example((2, one_block(("%s", "100%", "{0}", "{}"), (
        (1.5, "%d", None, "{}"), (2.0, "a", True, 3), (-0.0, "%%", False, "}{")), {})))
    # Missing, non-finite, subnormal, 1e9 to 1e16 and integral floats in one
    # column, across chunk boundaries.
    @example((3, one_block(("f",), tuple((v,) for v in (
        None, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072009e-308, 1e9,
        1234567890.0, 999999999.5, 1e15, 9.9999999995e15, 1e16, 123.0, -123.0, 0.0,
        -0.0, 1e-05, 1.5)), {})))
    def test_emit_equals_the_per_cell_reference(self, case):
        chunk, report = case
        with mock.patch.object(dlcost.report, "EMIT_CHUNK_ROWS", chunk):
            for format in FORMATS:
                assert emit(report, format) == reference_emit(report.columns, report_rows(report), format)

    @settings(deadline=None)
    @given(chunked_reports(), st.sampled_from([1, 2, 7, None]))
    # A one-row block, an empty block and a block that ranges of two straddle.
    @example((2, Report(columns=("i", "s"), blocks=(
        Block(1, ([0], Fixed("a,b"))), Block(0, ([], Fixed(None))),
        Block(3, ([1, 2, 3], ["x", None, 1.5]))), metadata={})), 2)
    @example((3, one_block(("a",), (), {})), 1)
    def test_a_report_emitted_range_by_range_is_the_whole_report(self, case, size):
        # ``size`` None is one range of more rows than the report has.
        chunk, report = case
        n_rows = len(report.rows)
        size = size or n_rows + 1
        with mock.patch.object(dlcost.report, "EMIT_CHUNK_ROWS", chunk):
            for format in FORMATS:
                ranges = [emit(report, format, start, start + size)
                          for start in range(0, max(n_rows, 1), size)]
                assert b"".join(ranges) == emit(report, format) == reference_emit(
                    report.columns, report_rows(report), format)

    @given(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        # Raw 64-bit patterns: every exponent, subnormals included, by its share.
        st.integers(0, 2**64 - 1).map(
            lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]).filter(math.isfinite)))
    @example(5e-324)
    @example(2.2250738585072014e-308)
    @example(math.nextafter(2.2250738585072014e-308, 0))
    @example(0.0)
    @example(-0.0)
    @example(123.0)
    @example(-123.0)
    @example(1e-4)
    @example(9.9999999995e-05)
    @example(1e-05)
    @example(999999999.5)
    @example(1e9)
    @example(1234567890.0)
    @example(1e15)
    @example(9.9999999995e15)
    @example(1e16)
    @example(1.7976931348623157e308)
    def test_json_float_text_is_repr_of_its_nine_digit_value(self, value):
        # The rule fixes up the 9-digit text's layout instead of parsing it,
        # which gives repr's text only where repr writes shortest round trips.
        assert sys.float_repr_style == "short"
        texts = dlcost.report._JSON_RULES[float]([value])
        assert list(texts) == [repr(float(f"{value:.9g}"))]

    @settings(deadline=None)
    @given(shared_column_reports())
    def test_a_list_shared_by_blocks_emits_as_copies_of_it_do(self, case):
        chunk, shared, copied = case
        assert shared.blocks[0].columns[0] is shared.blocks[1].columns[0]
        assert shared.blocks[0].columns[0] is not copied.blocks[0].columns[0]
        with mock.patch.object(dlcost.report, "EMIT_CHUNK_ROWS", chunk):
            for format in FORMATS:
                assert emit(shared, format) == emit(copied, format) == reference_emit(
                    copied.columns, report_rows(copied), format)

    @given(st.text(alphabet=st.characters(blacklist_categories=())))
    def test_csv_metadata_value_stays_on_one_encodable_line(self, value):
        report = one_block(("a",), (), {"v": value})
        line, header = emit(report, "csv").decode("utf-8").splitlines()
        assert header == "a" and line.startswith("# v: ")
        shown = line[len("# v: "):]
        try:
            value.encode("utf-8")
            unchanged = len(f"{value}x".splitlines()) == 1
        except UnicodeEncodeError:
            unchanged = False
        # A value without a line break or a lone surrogate is written as it is.
        assert shown == value if unchanged else json.loads(shown) == value


class TestCsvMetadata:
    @pytest.mark.parametrize("name", ["a\nb.jsonl", "\udcff.jsonl"],
                             ids=["newline", "non-utf-8"])
    def test_trace_path_is_one_encodable_comment_line(self, tmp_path, name):
        trace = tmp_path / name
        assert run(["corpus", "--out", str(trace)]) == EX_OK
        code, data = run_to_file(tmp_path, "aggregate", "--trace", str(trace))
        assert code == EX_OK
        lines = data.decode("utf-8").splitlines()
        n_meta = sum(1 for line in lines if line.startswith("# "))
        assert lines[n_meta] == "level,share_data,share_compute_bound,share_memory_bound,share_weight"
        assert all(line.startswith("# ") for line in lines[:n_meta])
        assert json.loads(csv_metadata(data)["input.source"]) == str(trace)
        code, data = run_to_file(tmp_path, "aggregate", "--trace", str(trace), "--format", "json")
        assert code == EX_OK
        assert json.loads(data)["metadata"]["input"]["source"] == str(trace)
