#!/usr/bin/env python3
"""In-process cost of idseval's block parsers, per block and per whole load.

    python3 scripts/ingest_blocks.py --points 1000000 --runs 15
    python3 scripts/ingest_blocks.py --src ../other/src   (another checkout's package)

Writes three files into a temporary directory, as the benchmark's inputs look:
a boolean detector (late alarms on attack runs) and a scored one (six-decimal
scores) with ``save_alerts``, and their labels with ``save_labels``; the
timestamps are ``0 .. points-1``. Up to eight blocks of each file, spread over
it, are copied out as ``load_*`` reads them, and each is parsed ``--runs``
times. Prints one JSON line per measure, all medians in milliseconds:

- ``fast_alerts.boolean`` and ``fast_alerts.scored``: ``_fast_alerts`` on one
  1 MiB alert block, with the block's lines;
- ``fast_labels``: ``_fast_labels`` on one 128 KiB label block;
- ``load_alerts.boolean``, ``load_alerts.scored`` and ``load_labels``: the
  whole load, then ``read_ms``, the time to read the file's blocks without
  parsing them, and ``parse_ms``, the difference.

``--src`` picks the package that is timed (default: ``src/`` of this
checkout), so two checkouts can be timed in alternation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLED_BLOCKS = 8


def median_ms(function, runs: int) -> float:
    times = []
    for _ in range(runs):
        began = time.perf_counter()
        function()
        times.append(time.perf_counter() - began)
    return 1000 * statistics.median(times)


def sampled_blocks(ingest, path: Path, size: int, skip: int = 0) -> list[tuple]:
    """Copies of up to ``SAMPLED_BLOCKS`` full blocks of ``path``, spread over the file,
    each as ``(buf, lo, hi)``; ``skip`` bytes (a header) are left out of the first."""
    with open(path, "rb") as handle:
        count = sum(1 for _ in ingest._read_blocks(handle, size))
    full = max(1, count - 1)  # the last block may be short, unless it is the only one
    step = max(1, full // SAMPLED_BLOCKS)
    kept = []
    with open(path, "rb") as handle:
        for i, (buf, lo, hi) in enumerate(ingest._read_blocks(handle, size)):
            if i < full and i % step == 0 and len(kept) < SAMPLED_BLOCKS:
                kept.append((buf.copy(), lo + (skip if i == 0 else 0), hi))
    return kept


def per_block(name: str, blocks: list[tuple], parse, runs: int) -> dict:
    """Median over the sampled blocks of each block's median parse time."""
    if any(parse(*block) is None for block in blocks):
        raise SystemExit(f"ingest_blocks: {name}: a block left the numpy route")
    times = [median_ms(lambda b=block: parse(*b), runs) for block in blocks]
    lines = statistics.median(int((buf[lo:hi] == ord("\n")).sum()) for buf, lo, hi in blocks)
    return {"measure": name, "ms_per_block": round(statistics.median(times), 4),
            "lines_per_block": lines, "blocks": len(blocks)}


def whole_load(name: str, ingest, path: Path, size: int, load, runs: int) -> dict:
    def read() -> None:
        with open(path, "rb") as handle:
            for _ in ingest._read_blocks(handle, size):
                pass

    load_ms = median_ms(load, runs)
    read_ms = median_ms(read, runs)
    return {"measure": name, "ms": round(load_ms, 3), "read_ms": round(read_ms, 3),
            "parse_ms": round(load_ms - read_ms, 3)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=int, default=1_000_000, help="points per file")
    parser.add_argument("--runs", type=int, default=15, help="runs to take each median over")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the idseval package (default: ./src)")
    args = parser.parse_args()
    if args.points < 1000 or args.runs < 1:
        parser.error("give --points of at least 1000 and --runs of at least 1")
    if not (args.src / "idseval" / "ingest.py").is_file():
        parser.error(f"--src {args.src} holds no idseval package")
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    from idseval import AlertSeries, LabeledSeries, ingest

    n = args.points
    rng = np.random.default_rng(13)
    codes = np.zeros(n, dtype=np.int32)
    for k, start in enumerate(range(1000, n - 400, 5000)):
        codes[start : start + 200 + 10 * (k % 20)] = 1 + k % 2
    attack = codes > 0
    flags = np.roll(attack, 7) | (rng.random(n) < 0.001)
    scores = np.round(np.clip(np.where(attack, 0.7, 0.2) + rng.normal(0, 0.15, n), 0, 1), 6)
    series = LabeledSeries("plant", np.arange(n), codes, ("dos", "scan"))
    with tempfile.TemporaryDirectory(prefix="idseval-blocks-") as work:
        labels = Path(work) / "labels.csv"
        files = {"boolean": Path(work) / "lagged.jsonl", "scored": Path(work) / "scored.jsonl"}
        ingest.save_labels(series, labels)
        ingest.save_alerts(AlertSeries.from_bool("lagged", flags, "plant"), series,
                           files["boolean"])
        ingest.save_alerts(AlertSeries.from_scores("scored", scores, "plant"), series,
                           files["scored"])
        rows = []
        for kind, path in files.items():
            blocks = sampled_blocks(ingest, path, ingest._BLOCK_BYTES)
            rows.append(per_block(f"fast_alerts.{kind}", blocks,
                                  lambda buf, lo, hi: ingest._fast_alerts(buf, lo, hi, 1),
                                  args.runs))
        header = len(b"timestamp,label\n")
        blocks = sampled_blocks(ingest, labels, ingest._LABEL_BLOCK_BYTES, skip=header)
        rows.append(per_block("fast_labels", blocks,
                              lambda buf, lo, hi: ingest._fast_labels(buf, lo, hi, {}),
                              args.runs))
        for kind, path in files.items():
            rows.append(whole_load(f"load_alerts.{kind}", ingest, path, ingest._BLOCK_BYTES,
                                   lambda p=path: ingest.load_alerts(p, series), args.runs))
        rows.append(whole_load("load_labels", ingest, labels, ingest._LABEL_BLOCK_BYTES,
                               lambda: ingest.load_labels(labels, name="plant"), args.runs))
    for row in rows:
        print(json.dumps({"points": n, "runs": args.runs, **row}))


if __name__ == "__main__":
    main()
