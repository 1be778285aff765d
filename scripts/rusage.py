#!/usr/bin/env python3
"""Time, page faults and peak RSS of the idseval CLI, from the kernel's rusage.

    python3 scripts/rusage.py --runs 10 -- roc --labels L.csv --alerts S.jsonl --auto
    python3 scripts/rusage.py --against OTHER/src --pairs 10 -- evaluate ...

Runs ``python -m idseval.cli ARGS`` (the package under ``src/`` of this
checkout) ``--runs`` times, one after another, each into a fresh temporary
``--out`` that is removed afterwards. Each child is reaped with ``os.wait4``,
so its figures are its own. Prints one JSON line of medians: ``wall_s``,
``user_s``, ``sys_s``, ``minflt`` (minor page faults) and ``maxrss_mb``.

``--against SRC_DIR`` compares this checkout (the change) with the
``idseval`` package under another source tree (the parent): ``--pairs``
pairs of runs, one of each, alternating which side runs first. The JSON line
then holds each side's median and quartiles of ``maxrss_mb``, ``wall_s`` and
``minflt``, and the pairs in which the change's figure is lower ("wins";
ties count for neither side).

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
PAIRED = ("maxrss_mb", "wall_s", "minflt")


def measure(cli_args: list[str], src: Path = SRC) -> dict[str, float]:
    """One run of the CLI from ``src`` into a fresh ``--out``; exits if the run fails."""
    env = dict(os.environ, PYTHONPATH=str(src))
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


def quartiles(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def paired(cli_args: list[str], against: Path, pairs: int) -> dict:
    """Each side's quartiles and the change's wins over ``pairs`` alternating pairs."""
    change: list[dict[str, float]] = []
    parent: list[dict[str, float]] = []
    for pair in range(pairs):
        sides = [(change, SRC), (parent, against)]
        for runs, src in sides[:: 1 if pair % 2 == 0 else -1]:
            runs.append(measure(cli_args, src))
    return {
        "pairs": pairs,
        "argv": cli_args,
        "against": str(against),
        "change": {key: quartiles([run[key] for run in change]) for key in PAIRED},
        "parent": {key: quartiles([run[key] for run in parent]) for key in PAIRED},
        "wins": {key: sum(a[key] < b[key] for a, b in zip(change, parent)) for key in PAIRED},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs to take the medians over")
    parser.add_argument("--against", type=Path, metavar="SRC_DIR",
                        help="another source tree's src directory, to run in alternating pairs")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs with --against")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the CLI's arguments")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if args.runs < 1 or args.pairs < 1 or not cli_args:
        parser.error("give --runs and --pairs of at least 1 and the CLI's arguments after --")
    if args.against is not None:
        if not (args.against / "idseval").is_dir():
            parser.error(f"--against {args.against} holds no idseval package")
        print(json.dumps(paired(cli_args, args.against.resolve(), args.pairs)))
        return
    runs = [measure(cli_args) for _ in range(args.runs)]
    medians = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    print(json.dumps({"runs": args.runs, "argv": cli_args, **medians}))


if __name__ == "__main__":
    main()
