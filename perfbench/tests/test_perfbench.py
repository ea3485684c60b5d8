"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

Every workload runs at a tiny size in both modes and emits exactly the
metrics BENCHMARK.json names; the oracle flags a report with one digit
altered and a bare ``Infinity``; the generator is byte-identical for a
fixed seed; the tracer accounts for the whole traced wall time and
restores every patch; a child's peak RSS leaves out the benchmark's own
heap; outside a checkout the benchmark refuses to run.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import tracegen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DOCUMENTED_KEYS = {"job_id", "arch", "num_cnodes", "batch_size", "flops", "mem_access_bytes",
                   "input_bytes", "weight_traffic_bytes", "dense_weight_bytes",
                   "embedding_weight_bytes", "measured_step_seconds", "notes"}


def _bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_workload_runs_tiny_and_emits_the_declared_metrics(workload, trace, kind):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", trace, "--jobs", "30")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(type(v["value"]) in (int, float) for v in result["metrics"].values())


def test_workloads_and_command_metrics_match_the_spec():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for workload in run.WORKLOADS.values():
        metrics = [c.metric for c in workload.commands]
        assert len(set(metrics)) == len(metrics) and set(metrics) <= end_to_end


def test_generator_is_byte_identical_for_a_fixed_seed():
    numeric = tracegen.numeric_trace(tracegen.make_jobs(7, 300))
    assert numeric == tracegen.numeric_trace(tracegen.make_jobs(7, 300))
    assert numeric != tracegen.numeric_trace(tracegen.make_jobs(8, 300))
    _, units = tracegen.unit_string_trace(tracegen.make_jobs(7, 300), 7)
    assert units == tracegen.unit_string_trace(tracegen.make_jobs(7, 300), 7)[1]


def test_generated_records_follow_the_documented_trace_format():
    from dlcost.ingest import record_from_dict

    jobs = tracegen.make_jobs(11, 2000)
    denoted, text = tracegen.unit_string_trace(jobs, 11)
    assert len({j["job_id"] for j in jobs}) == len(jobs)
    for job, exact, line in zip(jobs, denoted, text.decode().splitlines()):
        obj = json.loads(line)
        assert set(obj) <= DOCUMENTED_KEYS
        assert all(isinstance(v, float) for v in obj["notes"].values())
        if job["arch"] in tracegen.LOCAL_ARCHS:
            assert job["num_cnodes"] <= tracegen.GPUS_PER_SERVER
        if job["arch"] == "one_worker_one_gpu":
            assert job["num_cnodes"] == 1 and job["weight_traffic_bytes"] == 0
        rec = record_from_dict(obj)  # the unit strings denote the oracle's values
        for name in ("flops",) + tracegen.BYTE_FIELDS:
            assert getattr(rec, name) == exact[name]
    assert {j["arch"] for j in jobs} == {a for a, _ in tracegen.ARCH_MIX}


def _breakdown_report(tmp_path: Path, jobs: list[dict]) -> bytes:
    from dlcost import cli

    (tmp_path / "t.jsonl").write_bytes(tracegen.numeric_trace(jobs))
    out = tmp_path / "bd.csv"
    assert cli.run(["breakdown", "--trace", str(tmp_path / "t.jsonl"), "--out", str(out)]) == 0
    return out.read_bytes()


def _check(data: bytes, fmt: str, expected: oracle.Expected) -> oracle.Checker:
    chk = oracle.Checker()
    oracle.check_report(data, fmt, expected, random.Random(0), chk, "test")
    return chk


def test_oracle_flags_a_report_with_one_digit_altered(tmp_path):
    jobs = tracegen.make_jobs(5, 40)
    data = _breakdown_report(tmp_path, jobs)
    meta = oracle.report_metadata(oracle.Model(), str(tmp_path / "t.jsonl"),
                                  tracegen.numeric_trace(jobs))
    expected = oracle.expect_breakdown(jobs, oracle.Model(), meta)
    assert _check(data, "csv", expected).failed == 0

    lines = data.decode().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    row = lines[header + 17].split(",")
    col = oracle.BREAKDOWN_COLUMNS.index("t_total")
    mantissa, _, exponent = row[col].partition("e")
    last = mantissa[-1]
    row[col] = mantissa[:-1] + str((int(last) + 1) % 10) + (f"e{exponent}" if exponent else "")
    lines[header + 17] = ",".join(row)
    altered = _check("".join(lines).encode(), "csv", expected)
    assert altered.failed == 1 and "row 16" in altered.messages[0]


def test_oracle_rejects_a_bare_infinity_in_json():
    payload = {"metadata": {}, "columns": ["speedup"], "rows": [{"speedup": 2.0}]}
    text = json.dumps(payload).replace("2.0", "Infinity")
    expected = oracle.Expected(("speedup",), 1, lambda i: {"speedup": 2.0}, {})
    chk = _check(text.encode(), "json", expected)
    assert chk.failed == 1 and "unparseable" in chk.messages[0]


def test_tracer_accounts_for_the_wall_time_and_restores_every_patch(tmp_path):
    from dlcost import aggregate, cli, engine, sweep

    (tmp_path / "t.jsonl").write_bytes(tracegen.numeric_trace(tracegen.make_jobs(2, 30)))
    before = {(m, a): getattr(importlib.import_module(f"dlcost.{m}"), a)
              for m, a, _, _ in spans.PATCH_POINTS}
    from_samples = aggregate.EmpiricalCDF.__dict__["from_samples"]
    tracer = spans.Tracer()
    with spans.patched(tracer):
        assert cli.breakdown is not engine.breakdown
        code = tracer.run_command(cli.run, ["sensitivity", "--analysis", "overlap", "--trace",
                                            str(tmp_path / "t.jsonl"),
                                            "--out", str(tmp_path / "o.csv")])
    assert code == 0
    assert tracer.patched == len(spans.PATCH_POINTS) + 1
    assert cli.breakdown is engine.breakdown and sweep.breakdown is engine.breakdown
    assert aggregate.EmpiricalCDF.__dict__["from_samples"] is from_samples
    for (m, a), fn in before.items():
        assert getattr(importlib.import_module(f"dlcost.{m}"), a) is fn
    wall = tracer.total_s["cli.run"]
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=1e-9)
    # Two overlap modes; a feasible projection evaluates both sides.
    assert tracer.calls["engine.breakdown"] == 4 * 30 - tracer.counts["projection.infeasible"]
    assert tracer.spans[0][0] == "cli.run" and tracer.spans[0][3] == -1
    assert all(0 <= parent < i for i, (_, _, _, parent) in enumerate(tracer.spans) if i)


def test_child_peak_rss_excludes_the_benchmark_heap(tmp_path):
    launcher = run.Launcher(tmp_path, dict(os.environ, PYTHONPATH=str(run.SRC)))
    try:
        ballast = b"\x01" * (150 << 20)  # resident in the benchmark process
        _, rss_mib, code = launcher.run(list(run.SETUP_ARGV))
    finally:
        launcher.close()
    assert code == 0 and len(ballast) == 150 << 20
    assert rss_mib < 100


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    out = _bench("--workload", "report-rows", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
