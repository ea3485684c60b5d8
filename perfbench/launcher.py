"""Spawns and times the benchmark's child processes from a small process.

Linux counts the RSS high-water mark of the process that spawns a child
toward the child's own peak: ``vfork`` and ``exec`` carry the spawner's
mark into the ``ru_maxrss`` that ``wait4`` reports.  The benchmark's own
heap holds the generated jobs, so it starts this launcher before
generating anything, and every timed command is spawned from here.

Protocol: one JSON argv list per line on stdin; one JSON line back,
``[wall seconds, peak RSS KiB, exit code]``.  End of input ends it.
Children inherit the launcher's cwd, environment and stderr.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        argv = json.loads(line)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps([elapsed, usage.ru_maxrss, proc.returncode]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
