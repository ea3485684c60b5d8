import csv
import hashlib
import io
import json
import math
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

import dlcost.report
from dlcost.cli import EX_DATA, EX_NOINPUT, EX_OK, EX_USAGE, run
from dlcost.core import OverlapMode
from dlcost.report import EMIT_CHUNK_ROWS, FORMATS, Report, build_report, emit

from helpers import EFF, PAI, reference_emit


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
                                                   ("-1", "-1.0"), ("10Gbps,0", "0.0")])
    def test_out_of_range_candidate_is_a_usage_error(self, capsys, candidates, shown):
        assert run(["sweep", "--corpus", "--axes", "ethernet",
                    "--candidates", candidates]) == EX_USAGE
        assert capsys.readouterr().err == (
            f"dlcost: axis ethernet: candidate {shown} must be positive\n")

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

    def test_hw_field_set_twice_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "lab.hw"
        cfg.write_text("gpu = 11TFLOPs\nmemory = 1TB/s\npcie = 10GB/s\npci = 20GB/s\n"
                       "ethernet = 25Gbps\nnvlink = 50GB/s\n")
        assert run(["breakdown", "--corpus", "--hw", str(cfg)]) == EX_DATA
        assert capsys.readouterr().err == (
            f"dlcost: {cfg}:4: pcie_bandwidth already set on line 3\n")

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

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == EX_OK
        assert "COMMAND" in capsys.readouterr().out


class TestBuildReport:
    def test_columns_of_different_lengths_are_rejected(self):
        # zip would otherwise drop the rows past the shortest column.
        with pytest.raises(ValueError, match="report columns differ in length"):
            build_report("k", {"a": [1, 2], "b": [1]}, PAI, EFF, OverlapMode.NO_OVERLAP,
                         "src", "0" * 64)


#: One type of cell each; a column draws its cells from one or two of them.
CELL_KINDS = {
    "none": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0])),
    "str": st.one_of(st.text(), st.sampled_from(["", "-", "#", "{}", "{0}", "\u00e9"])),
}


@st.composite
def chunked_reports(draw):
    """An emission chunk size and a report up to past two chunks long.  Each
    column's cells come from a few drawn values of one or two types; a text
    column may hold a string that needs quoting in a later chunk only."""
    chunk = draw(st.sampled_from([1, 2, 3, 5, EMIT_CHUNK_ROWS]))
    n_rows = max(0, chunk * draw(st.integers(0, 2)) + draw(st.integers(-1, 1)))
    names = draw(st.lists(st.text(), max_size=4, unique=True))
    rnd = draw(st.randoms(use_true_random=False))
    columns = []
    for _ in names:
        kinds = draw(st.lists(st.sampled_from(sorted(CELL_KINDS)), min_size=1, max_size=2,
                              unique=True))
        pool = draw(st.lists(st.one_of(*(CELL_KINDS[k] for k in kinds)), min_size=1, max_size=4))
        column = [rnd.choice(pool) for _ in range(n_rows)]
        if "str" in kinds and n_rows > chunk and draw(st.booleans()):
            quoted = draw(st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\r"]))
            column[rnd.randrange(chunk, n_rows)] = quoted
        columns.append(column)
    rows = tuple(zip(*columns)) if names else ((),) * n_rows
    return chunk, Report(columns=tuple(names), rows=rows, metadata={})


class TestEmit:
    def test_empty_rows_give_header_only_csv(self):
        report = Report(columns=("a", "b"), rows=(), metadata={"kind": "breakdown"})
        data = emit(report, "csv").decode()
        lines = [ln for ln in data.splitlines() if not ln.startswith("#")]
        assert lines == ["a,b"]

    def test_nine_significant_digits(self):
        report = Report(columns=("x",), rows=((math.pi,),), metadata={})
        assert "3.14159265" in emit(report, "csv").decode()
        assert json.loads(emit(report, "json"))["rows"][0]["x"] == 3.14159265

    def test_unknown_format_rejected(self):
        report = Report(columns=(), rows=(), metadata={})
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
        report = Report(columns=columns, rows=tuple(rows), metadata={"kind": "k"})

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
        report = Report(columns=columns, rows=tuple(rows), metadata=metadata)

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
    @example((EMIT_CHUNK_ROWS, Report(columns=("a",), rows=(("",),) * (EMIT_CHUNK_ROWS + 1),
                                      metadata={})))
    @example((2, Report(columns=("f", "b", "n", "s"), rows=(
        (None, True, 1, "a"), (1.5, 2, 2.5, "b"),
        (-0.0, False, math.inf, "c,d"), (math.nan, 0, 3, "e")), metadata={})))
    def test_emit_equals_the_per_cell_reference(self, case):
        chunk, report = case
        with mock.patch.object(dlcost.report, "EMIT_CHUNK_ROWS", chunk):
            for format in FORMATS:
                assert emit(report, format) == reference_emit(report.columns, report.rows, format)

    @given(st.text(alphabet=st.characters(blacklist_categories=())))
    def test_csv_metadata_value_stays_on_one_encodable_line(self, value):
        report = Report(columns=("a",), rows=(), metadata={"v": value})
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
