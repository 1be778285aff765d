#!/usr/bin/env python3
"""Time, page faults and peak RSS of the idseval CLI, from the kernel's rusage.

    python3 scripts/rusage.py --runs 10 -- roc --labels L.csv --alerts S.jsonl --auto

Runs ``python -m idseval.cli ARGS`` (the package under ``src/`` of this
checkout) ``--runs`` times, one after another, each into a fresh temporary
``--out`` that is removed afterwards. Each child is reaped with ``os.wait4``,
so its figures are its own. Prints one JSON line of medians: ``wall_s``,
``user_s``, ``sys_s``, ``minflt`` (minor page faults) and ``maxrss_mb``.

A child's ``ru_maxrss`` starts at the resident set of the process that
spawned it, because Linux carries the spawner's high-water mark across
``exec``. This script is therefore its own launcher: it imports only a few
small standard modules and loads nothing large before it spawns the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure(cli_args: list[str]) -> dict[str, float]:
    """One run of the CLI into a fresh ``--out``; exits if the run fails."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory(prefix="idseval-rusage-") as out:
        argv = [sys.executable, "-m", "idseval.cli", *cli_args, "--out", out]
        began = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - began
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if child.returncode != 0:
        raise SystemExit(f"rusage: {' '.join(argv)} exited {child.returncode}")
    return {
        "wall_s": wall,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "minflt": usage.ru_minflt,
        "maxrss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs to take the medians over")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the CLI's arguments")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if args.runs < 1 or not cli_args:
        parser.error("give --runs of at least 1 and the CLI's arguments after --")
    runs = [measure(cli_args) for _ in range(args.runs)]
    medians = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    print(json.dumps({"runs": args.runs, "argv": cli_args, **medians}))


if __name__ == "__main__":
    main()
