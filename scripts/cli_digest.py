#!/usr/bin/env python3
"""Digest of what the idseval CLI prints, writes and exits with, run by run.

    python3 scripts/cli_digest.py > digest.txt
    python3 scripts/cli_digest.py --src ../other/src > other.txt && diff digest.txt other.txt
    python3 scripts/cli_digest.py -- compare --config demo/manifest.json --rank-by f1

Runs a fixed matrix of ``python -m idseval.cli`` commands on ``data/demo`` in
fresh processes: every verb in every output format, ``--rank-by``,
``--help`` and each verb's ``--help``, a usage error, an unknown metric and a
data error; the CLI arguments after ``--`` are one more run, named ``extra``.
Each run starts in a new temporary directory that holds a copy of
``data/demo`` as ``demo/`` and writes to ``--out out``, so every path the CLI
prints is the same from any checkout. ``--src`` picks the package that runs
(default: ``src/`` of this checkout).

Prints one line per run: its name, exit code, and the sha256 of stdout,
stderr and each file under ``out/``. Two checkouts agree byte for byte when
their digests do.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO = ["--config", "demo/manifest.json"]
OUT = ["--out", "out"]
SCORED = ["--labels", "demo/labels.csv", "--alerts", "demo/scored.jsonl"]
SEVERAL = [*DEMO, "--detector", "baseline:never", "--detector", "baseline:random:p=0.5"]

MATRIX: dict[str, list[str]] = {
    **{f"evaluate-{fmt}": ["evaluate", *DEMO, "--format", fmt, *OUT]
       for fmt in ("md", "csv", "json")},
    **{f"compare-{fmt}": ["compare", *SEVERAL, "--format", fmt, *OUT]
       for fmt in ("md", "csv", "json")},
    "compare-rank-by": ["compare", *SEVERAL, "--metrics", "f1,etapr", "--rank-by", "f1", *OUT],
    "timeline": ["timeline", *DEMO, "--detector", "baseline:random:p=0.1",
                 "--min-width", "60s", *OUT],
    **{f"roc-{fmt}": ["roc", *SCORED, "--auto", "--format", fmt, *OUT] for fmt in ("csv", "json")},
    "roc-thresholds": ["roc", *SCORED, "--thresholds", "0.9,0.5,0.1", *OUT],
    "baseline": ["baseline", *DEMO, "--detector", "baseline:random:p=0.3", *OUT],
    "help": ["--help"],
    **{f"{verb}-help": [verb, "--help"]
       for verb in ("evaluate", "compare", "timeline", "roc", "baseline")},
    "usage-error": ["evaluate", "--bogus"],
    "unknown-metric": ["evaluate", *DEMO, "--metrics", "nope", *OUT],
    "data-error": ["roc", *DEMO, "--auto", *OUT],
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(name: str, cli_args: list[str], src: Path) -> str:
    """Run ``cli_args`` in a fresh directory and return its digest line."""
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    env.pop("IDSEVAL_OUT", None)
    with tempfile.TemporaryDirectory(prefix="idseval-digest-") as work:
        shutil.copytree(ROOT / "data" / "demo", Path(work) / "demo")
        done = subprocess.run(
            [sys.executable, "-m", "idseval.cli", *cli_args], cwd=work, env=env, capture_output=True
        )
        out = Path(work) / "out"
        files = sorted(path for path in out.rglob("*") if path.is_file())
        parts = [f"{path.relative_to(out)}={sha(path.read_bytes())}" for path in files]
    return " ".join([name, f"exit={done.returncode}", f"stdout={sha(done.stdout)}",
                     f"stderr={sha(done.stderr)}", *parts])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the idseval package (default: ./src)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- then one more run's arguments")
    args = parser.parse_args()
    extra = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if not (args.src / "idseval" / "cli.py").is_file():
        parser.error(f"--src {args.src} holds no idseval package")
    runs = {**MATRIX, "extra": extra} if extra else MATRIX
    for name, cli_args in runs.items():
        print(digest(name, cli_args, args.src.resolve()), flush=True)


if __name__ == "__main__":
    main()
