#!/usr/bin/env python3
"""Time affiliation and default-metric evaluation on a scenario-dense trace.

The trace is built in memory: 10^6 points at unit ticks, with
``--scenarios`` attack scenarios of 5 points each, spread evenly and cycling
through three attack types, and a boolean detector that fires on each point
with probability 0.3 (seed 1). The script times ``extract_scenarios``,
``affiliation`` on the extracted scenarios and alert runs, and
``evaluate_detector`` with the default metrics and ``report_to_json`` of
that report, each as the median of 5 runs (wall clock, no profiler), and
prints one JSON line with the timings and the affiliation scores.

    python scripts/scenario_dense.py --scenarios 10000
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from idseval import (
    AlertSeries,
    LabeledSeries,
    affiliation,
    alerts_to_intervals,
    evaluate_detector,
    extract_scenarios,
    report_to_json,
)

POINTS, SCENARIO_LEN, REPEAT = 1_000_000, 5, 5
ATTACK_TYPES = ("dos", "spoof", "scan")


def build(points: int, scenarios: int, seed: int) -> tuple[LabeledSeries, AlertSeries]:
    if not 0 < scenarios <= points // (SCENARIO_LEN + 1):
        raise SystemExit(f"{points} points cannot hold {scenarios} separate scenarios")
    spacing = points // scenarios
    codes = np.zeros(points, dtype=np.int32)
    starts = np.arange(scenarios) * spacing + (spacing - SCENARIO_LEN) // 2
    offsets = (starts[:, None] + np.arange(SCENARIO_LEN)).ravel()
    codes[offsets] = np.repeat(np.arange(scenarios) % len(ATTACK_TYPES) + 1, SCENARIO_LEN)
    series = LabeledSeries("dense", np.arange(points), codes, ATTACK_TYPES)
    fires = np.random.default_rng(seed).random(points) < 0.3
    return series, AlertSeries.from_bool("p0.3", fires, series.name)


def median_seconds(call, repeat: int) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenarios", type=int, default=10_000, help="attack scenarios")
    args = parser.parse_args()

    series, alerts = build(POINTS, args.scenarios, seed=1)
    extract_s, scenarios = median_seconds(lambda: extract_scenarios(series), REPEAT)
    runs = alerts_to_intervals(alerts, series)
    affiliation_s, (scores, zones) = median_seconds(
        lambda: affiliation(scenarios, runs, series), REPEAT
    )
    evaluate_s, report = median_seconds(lambda: evaluate_detector(series, alerts), REPEAT)
    json_s, _ = median_seconds(lambda: report_to_json(report), REPEAT)
    print(json.dumps({
        "points": POINTS,
        "scenarios": len(scenarios),
        "alert_runs": len(runs),
        "zones": len(zones),
        "extract_s": round(extract_s, 4),
        "affiliation_s": round(affiliation_s, 4),
        "evaluate_s": round(evaluate_s, 4),
        "json_s": round(json_s, 4),
        "affiliation_precision": scores.precision_like,
        "affiliation_recall": scores.recall_like,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
