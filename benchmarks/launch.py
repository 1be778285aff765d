"""Start commands for run.py and report each child's own wall time and rusage.

A child's ``ru_maxrss`` starts at the resident set of the process that
spawned it, because Linux carries the spawner's high-water mark across
``exec``. run.py holds the generated inputs and references in memory, so it
starts this helper first, while it is still small, and lets it spawn every
measured child.

It also times a fixed pure-Python loop just before each child starts and
just after it ends. On a shared machine the speed of a core drifts by tens
of percent over tens of seconds; run.py divides each child's times by that
probe so that the drift cancels out of the figures it reports.

Protocol: one JSON object per line on stdin (``argv``, ``stdout``,
``stderr``: file paths), one JSON object per line back on stdout.
"""

import json
import os
import subprocess
import sys
import time


def probe() -> float:
    """Median seconds of three runs of a fixed loop: how fast this machine runs now."""
    times = []
    for _ in range(3):
        began = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - began)
    return sorted(times)[1]


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        before = probe()
        with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
            began = time.perf_counter()
            child = subprocess.Popen(job["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - began
        child.returncode = os.waitstatus_to_exitcode(status)
        after = probe()
        reply = {
            "probe_s": (before + after) / 2,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
            "exit_code": child.returncode,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
