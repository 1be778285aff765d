#!/usr/bin/env python3
"""Generate a small demo dataset with two imperfect detectors.

Writes a labels CSV, a boolean-alert detector (detects most scenarios after a
lag, plus occasional false bursts), a scored detector for ROC sweeps and a
manifest tying them together. Everything is seeded, so the files are stable.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from idseval import LabeledSeries, extract_scenarios, save_alerts, save_labels
from idseval.model import AlertSeries

# A scenario is 20-60 points long, with at least 10 benign points on each side.
MIN_POINTS_PER_SCENARIO = 80


def build_labels(rng: random.Random, n: int, n_scenarios: int) -> LabeledSeries:
    labels = ["benign"] * n
    spacing = n // n_scenarios
    types = ["dos", "spoof", "replay"]
    for k in range(n_scenarios):
        length = rng.randint(20, 60)
        start = k * spacing + rng.randint(10, spacing - length - 10)
        attack_type = types[k % len(types)]
        for i in range(start, start + length):
            labels[i] = attack_type
    return LabeledSeries.from_labels(
        name="demo", timestamps=list(range(n)), labels=labels, tick_seconds=1
    )


def lagged_detector(rng: random.Random, series: LabeledSeries) -> AlertSeries:
    """Fires a few ticks late on most scenarios; rare short false bursts."""
    values = [False] * len(series)
    for scenario in extract_scenarios(series):
        if rng.random() < 0.2:
            continue
        lag = rng.randint(2, 12)
        start = min(scenario.start_index + lag, scenario.end_index)
        stop = min(scenario.end_index + rng.randint(0, 8), len(series) - 1)
        for i in range(start, stop + 1):
            values[i] = True
    for _ in range(4):
        start = rng.randrange(len(series) - 5)
        for i in range(start, start + rng.randint(1, 4)):
            values[i] = True
    return AlertSeries.from_bool("lagged", values, series.name)


def scored_detector(rng: random.Random, series: LabeledSeries) -> AlertSeries:
    """Noisy anomaly score that loosely tracks the attack mask."""
    scores = []
    for is_attack in series.attack_mask:
        base = 0.7 if is_attack else 0.2
        scores.append(round(min(1.0, max(0.0, rng.gauss(base, 0.15))), 4))
    return AlertSeries.from_scores("scored", scores, series.name)


def main() -> int:
    parser = argparse.ArgumentParser(description="Write the demo dataset and detectors.")
    parser.add_argument("--out", default="data/demo", metavar="DIR")
    parser.add_argument("--points", type=int, default=5000)
    parser.add_argument("--scenarios", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1337)
    args = parser.parse_args()
    if args.scenarios < 1:
        parser.error("--scenarios must be at least 1")
    if args.points < MIN_POINTS_PER_SCENARIO * args.scenarios:
        parser.error(
            f"--points must be at least {MIN_POINTS_PER_SCENARIO} per scenario:"
            f" {args.scenarios} scenarios need {MIN_POINTS_PER_SCENARIO * args.scenarios}"
        )

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)

    series = build_labels(rng, args.points, args.scenarios)
    save_labels(series, outdir / "labels.csv")
    save_alerts(lagged_detector(rng, series), series, outdir / "lagged.jsonl")
    save_alerts(scored_detector(rng, series), series, outdir / "scored.jsonl")
    manifest = {
        "name": "demo",
        "labels": "labels.csv",
        "tick_seconds": 1,
        "description": "synthetic demo rig with three attack types",
        "alerts": ["lagged.jsonl"],
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

    attack_points = int(series.attack_mask.sum())
    print(f"wrote {outdir}/labels.csv ({args.points} points, {attack_points} attack)")
    print(f"wrote {outdir}/lagged.jsonl and {outdir}/scored.jsonl")
    print(f"wrote {outdir}/manifest.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
