#!/usr/bin/env python3
"""Check one benchmark run's output, as CI's "Benchmark correctness" step does.

    python3 scripts/check_bench_run.py OUT LABEL TRACE_FLAG PATCH_POINTS

OUT is the standard output of ``perfbench/run.py``: its first line names
the workload's job count (`` jobs N ``) and its last line is the JSON
result.  LABEL is printed as it is given; TRACE_FLAG is ``--trace 0`` or
``--trace 1``.  Prints one line: the label, the flag, ``correct``,
``failed``, and the ``trace.patch_points``, ``ingest.records`` and
``ingest.rejected`` metrics (``None`` where a run has none).

Exits 1 unless ``correct`` is true and ``failed`` is 0.  A traced run
must also report PATCH_POINTS patch points, 3 × N records read by
ingest, and none rejected.
"""

import json
import re
import sys


def main(out: str, label: str, trace_flag: str, patch_points: str) -> int:
    with open(out) as f:
        lines = f.read().splitlines()
    jobs = int(re.search(r" jobs (\d+) ", lines[0]).group(1))
    result = json.loads(lines[-1])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    points, records, rejected = (metrics.get(name) for name in (
        "trace.patch_points", "ingest.records", "ingest.rejected"))
    print(label, trace_flag, result["correct"], result["failed"], points, records, rejected)
    ok = result["correct"] is True and result["failed"] == 0 and (
        trace_flag == "--trace 0"
        or (points == int(patch_points) and records == 3 * jobs and rejected == 0))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
