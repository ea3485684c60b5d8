"""Smoke tests: the study scripts run end to end and write their reports."""

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
])
def test_script_writes_its_reports(tmp_path, script, args, reports):
    proc = run_script(script, *args, "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in reports:
        assert (tmp_path / name).stat().st_size > 0, name
