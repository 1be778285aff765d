#!/usr/bin/env python3
"""Digest of what the idseval CLI prints, writes and exits with, run by run.

    python3 scripts/cli_digest.py > digest.txt
    python3 scripts/cli_digest.py --src ../other/src > other.txt && diff digest.txt other.txt
    python3 scripts/cli_digest.py -- compare --config demo/manifest.json --rank-by f1

Runs a fixed matrix of ``python -m idseval.cli`` commands on ``data/demo`` in
fresh processes: every verb in every output format, ``--rank-by``,
``--help`` and each verb's ``--help``, a usage error, an unknown metric, two
out-of-range metric parameters, a repeated detector, a non-finite threshold, a
negative gap tolerance and a data error, and ``evaluate`` on other
spellings of the demo files: labels with CRLF line ends, ISO-8601 labels and
alerts, and compact alerts with no ``"detector"`` field; and ``roc --auto``
on the demo scores respelled as ``mixed.jsonl``, with ``-0.0`` before ``0.0``,
tied values, 8- and 9-byte decimals and ``1e-05``-form exponents; and the
time-aware metrics on ``dense/``, the densest trace ``make_demo.py`` accepts
(5000 points, 62 scenarios), as is and with ``--gap-tolerance 3``; the same
metrics on ``near/``, whose same-type scenarios sit 1-3 benign points apart,
as is and with ``--gap-tolerance 3``; and ``timeline`` on ``long/``, a
70000-point ``make_demo.py`` trace, with a ``baseline:random:p=0.5`` lane
of more than one 16384-row chunk of ``<rect>``s. The CLI arguments after
``--`` are one more run, named ``extra``. The inputs are made once; each run
starts in a new temporary directory that holds a copy of them, ``data/demo``
as ``demo/`` with those spellings beside it, and writes to ``--out out``, so
every path the CLI prints is the same from any checkout. ``--src`` picks the
package that runs (default: ``src/`` of this checkout); ``dense/`` and
``long/`` are written by this checkout's ``make_demo.py``.

Prints one line per run: its name, exit code, and the sha256 of stdout,
stderr and each file under ``out/``. Two checkouts agree byte for byte when
their digests do.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO = ["--config", "demo/manifest.json"]
OUT = ["--out", "out"]
SCORED = ["--labels", "demo/labels.csv", "--alerts", "demo/scored.jsonl"]
SEVERAL = [*DEMO, "--detector", "baseline:never", "--detector", "baseline:random:p=0.5"]
DENSE = ["evaluate", "--config", "dense/manifest.json", "--metrics",
         "etapr,affiliation,scenario-recall,detection-delay", "--format", "json", *OUT]
NEAR = ["evaluate", "--labels", "near/labels.csv", "--alerts", "near/alerts.jsonl", "--metrics",
        "etapr,scenario-recall,detection-delay", "--format", "json", *OUT]
# Labels (d, s, r: an attack type; '.': benign) and alarms ('x') of near/, point by point.
NEAR_LABELS = "....ddddd..dddd.......ssss.ssss...sss.....rrr.rrr....."
NEAR_ALARMS = "...........xxxxx.............xx.....xxx.........xx...."

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
    "bad-beta": ["evaluate", *DEMO, "--metrics", "fbeta:beta=0", *OUT],
    "bad-theta": ["evaluate", *DEMO, "--metrics", "etapr:theta_p=2", *OUT],
    "duplicate-detector": ["compare", *DEMO, "--detector", "baseline:never",
                           "--detector", "baseline:never", *OUT],
    "bad-thresholds": ["roc", *SCORED, "--thresholds=0.5,nan", *OUT],
    "bad-gap": ["evaluate", *DEMO, "--gap-tolerance", "-1", *OUT],
    "evaluate-crlf": ["evaluate", "--labels", "demo/crlf.csv", "--alerts", "demo/lagged.jsonl",
                      *OUT],
    "evaluate-iso": ["evaluate", "--labels", "demo/iso.csv", "--alerts", "demo/iso.jsonl",
                     "--format", "json", *OUT],
    "evaluate-compact": ["evaluate", *DEMO, "--alerts", "demo/compact.jsonl", *OUT],
    **{f"roc-mixed-{fmt}": ["roc", "--labels", "demo/labels.csv", "--alerts", "demo/mixed.jsonl",
                            "--auto", "--format", fmt, *OUT] for fmt in ("csv", "json")},
    "dense": DENSE,
    "dense-gap-3": [*DENSE, "--gap-tolerance", "3"],
    "near": NEAR,
    "near-gap-3": [*NEAR, "--gap-tolerance", "3"],
    "timeline-long": ["timeline", "--config", "long/manifest.json",
                      "--detector", "baseline:random:p=0.5", "--min-width", "60s", *OUT],
}


def iso(seconds: int | str) -> str:
    return datetime.fromtimestamp(int(seconds), timezone.utc).isoformat()


def write_spellings(demo: Path) -> None:
    """Write the demo labels and alerts, spelled otherwise, into ``demo``."""
    labels = (demo / "labels.csv").read_bytes()
    (demo / "crlf.csv").write_bytes(labels.replace(b"\n", b"\r\n"))
    header, *rows = labels.decode("utf-8").splitlines()
    iso_rows = [f"{iso(t)},{label}" for t, label in (row.split(",") for row in rows)]
    (demo / "iso.csv").write_text("\n".join([header, *iso_rows, ""]), encoding="utf-8")
    records = [json.loads(line) for line in (demo / "lagged.jsonl").read_text().splitlines()]
    with open(demo / "iso.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps({**record, "timestamp": iso(record["timestamp"])}) + "\n")
    with open(demo / "compact.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            compact = {"timestamp": record["timestamp"], "alert": record["alert"]}
            handle.write(json.dumps(compact, separators=(",", ":")) + "\n")
    with open(demo / "mixed.jsonl", "w", encoding="utf-8") as handle:
        for line in (demo / "scored.jsonl").read_text().splitlines():
            t, score = (record := json.loads(line))["timestamp"], record["score"]
            # Equal values spelled four ways tie; 0.196700 is 8 bytes, 0.1967000 is 9.
            token = ("-0.0" if t == 0 else [repr(score), f"{score:.6f}", f"{score:.7f}",
                                             f"{score / 1e4:.3g}"][t % 4])
            handle.write(f'{{"timestamp": {t}, "score": {token}, "detector": "scored"}}\n')


def write_near(near: Path) -> None:
    """Write ``NEAR_LABELS`` and ``NEAR_ALARMS`` as a label file and an alert file in ``near``."""
    near.mkdir()
    kinds = {"d": "dos", "s": "spoof", "r": "replay", ".": "benign"}
    rows = [f"{t},{kinds[mark]}" for t, mark in enumerate(NEAR_LABELS)]
    (near / "labels.csv").write_text("\n".join(["timestamp,label", *rows, ""]), encoding="utf-8")
    with open(near / "alerts.jsonl", "w", encoding="utf-8") as handle:
        for t, mark in enumerate(NEAR_ALARMS):
            handle.write(json.dumps({"timestamp": t, "alert": mark == "x", "detector": "near"}))
            handle.write("\n")


def make_demo(out: Path, points: int, scenarios: int) -> None:
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo.py"), "--points",
                    str(points), "--scenarios", str(scenarios), "--out", str(out)],
                   check=True, capture_output=True)


def write_inputs(inputs: Path) -> None:
    """Write every run's inputs into ``inputs``: ``demo/`` with its spellings, ``dense/``,
    ``near/`` and ``long/``."""
    shutil.copytree(ROOT / "data" / "demo", inputs / "demo")
    write_spellings(inputs / "demo")
    make_demo(inputs / "dense", 5000, 62)
    write_near(inputs / "near")
    make_demo(inputs / "long", 70000, 10)
    (inputs / "long" / "scored.jsonl").unlink()  # unused; every run copies the inputs


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(name: str, cli_args: list[str], src: Path, inputs: Path) -> str:
    """Run ``cli_args`` in a fresh copy of ``inputs`` and return its digest line."""
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    env.pop("IDSEVAL_OUT", None)
    with tempfile.TemporaryDirectory(prefix="idseval-digest-") as work:
        shutil.copytree(inputs, work, dirs_exist_ok=True)
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
    with tempfile.TemporaryDirectory(prefix="idseval-digest-inputs-") as inputs:
        write_inputs(Path(inputs))
        for name, cli_args in runs.items():
            print(digest(name, cli_args, args.src.resolve(), Path(inputs)), flush=True)


if __name__ == "__main__":
    main()
