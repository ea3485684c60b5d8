import csv
import io
import json
import math

import pytest

from dlcost.cli import EX_DATA, EX_NOINPUT, EX_OK, EX_USAGE, run
from dlcost.report import Report, emit


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

    def test_candidates_need_single_axis(self):
        assert run(["sweep", "--corpus", "--axes", "ethernet,pcie",
                    "--candidates", "10Gbps"]) == EX_USAGE


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

    def test_malformed_trace_is_data_error(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text("{broken\n")
        assert run(["breakdown", "--trace", str(trace)]) == EX_DATA
        assert "invalid JSON" in capsys.readouterr().err

    def test_empty_trace_is_data_error(self, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert run(["breakdown", "--trace", str(trace)]) == EX_DATA

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == EX_OK
        assert "COMMAND" in capsys.readouterr().out


class TestEmit:
    def test_empty_rows_give_header_only_csv(self):
        report = Report(kind="breakdown", columns=("a", "b"), rows=(),
                        metadata={"kind": "breakdown"})
        data = emit(report, "csv").decode()
        lines = [ln for ln in data.splitlines() if not ln.startswith("#")]
        assert lines == ["a,b"]

    def test_nine_significant_digits(self):
        report = Report(kind="breakdown", columns=("x",),
                        rows=({"x": math.pi},), metadata={})
        assert "3.14159265" in emit(report, "csv").decode()
        assert json.loads(emit(report, "json"))["rows"][0]["x"] == 3.14159265

    def test_unknown_format_rejected(self):
        report = Report(kind="breakdown", columns=(), rows=(), metadata={})
        with pytest.raises(ValueError):
            emit(report, "yaml")
