"""The scripts: the study scripts run end to end and write their reports, and
the benchmark-run checker passes and fails the runs CI must."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, args, reports", [
    ("cluster_whatif.py", ("--size", "300", "--seed", "7"),
     ("population.jsonl", "aggregate_shares.csv", "composition.csv",
      "weight_share_cdf.csv", "project_arl.csv", "sweep.csv", "sensitivity.csv")),
    ("run_case_studies.py", (), ("breakdown.csv",)),
    ("run_case_studies.py", ("--measured-eff",), ("breakdown.csv",)),
])
def test_script_writes_its_reports(tmp_path, script, args, reports):
    proc = run_script(script, *args, "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in reports:
        assert (tmp_path / name).stat().st_size > 0, name


#: The trace counters of a passing traced run of 20 jobs.
TRACED = {"trace.patch_points": 24, "ingest.records": 60.0, "ingest.rejected": 0.0}


@pytest.mark.parametrize("trace, metrics, correct, failed, passes", [
    ("0", {}, True, 0, True),
    ("1", TRACED, True, 0, True),
    ("0", {}, False, 0, False),
    ("0", {}, True, 1, False),
    ("1", TRACED, False, 0, False),
    ("1", TRACED, True, 1, False),
    ("1", TRACED | {"trace.patch_points": 23}, True, 0, False),
    ("1", TRACED | {"trace.patch_points": 25}, True, 0, False),
    ("1", TRACED | {"ingest.records": 59.0}, True, 0, False),
    ("1", TRACED | {"ingest.rejected": 1.0}, True, 0, False),
    # An untraced run's trace counters are not checked.
    ("0", {"trace.patch_points": 3, "ingest.records": 1.0, "ingest.rejected": 1.0},
     True, 0, True),
])
def test_bench_run_check(tmp_path, trace, metrics, correct, failed, passes):
    result = {"correct": correct, "attempted": 3, "failed": failed,
              "metrics": {name: {"value": value, "unit": "count"}
                          for name, value in metrics.items()}}
    out = tmp_path / "run.txt"
    out.write_text(f"workload report-rows  seed 1  jobs 20  traced  1.8 s\n"
                   f"  ingest.records                        60 count\n{json.dumps(result)}\n")
    proc = run_script("check_bench_run.py", str(out), "report-rows seed 1", f"--trace {trace}",
                      "24")
    assert proc.returncode == (0 if passes else 1), proc.stderr
    counters = [metrics.get(name) for name in TRACED]
    assert proc.stdout.split() == list(map(str, [
        "report-rows", "seed", "1", "--trace", trace, correct, failed, *counters]))
