#!/usr/bin/env python3
"""Search for a seed where affiliation and eTaF1 rank two detectors oppositely.

The construction: a long series with several equal attack scenarios, a sparse
detector that alarms exactly on two of them, and a coin-flip baseline. The
sparse detector is the obviously better one (every alarm is justified), yet
affiliation's distance-based recall rewards the coin flipper for always having
an alarm near every event. The script scans baseline seeds until both
orderings hold with a clear margin and prints the frozen instance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from idseval import (
    BaselineSpec,
    Intervals,
    LabeledSeries,
    affiliation,
    alerts_to_intervals,
    etapr,
    extract_scenarios,
    generate,
    intervals_to_mask,
)
from idseval.model import AlertSeries, Scenarios


def build_series(n_scenarios: int, scenario_len: int, spacing: int) -> LabeledSeries:
    n = n_scenarios * spacing
    starts = np.arange(n_scenarios) * spacing + (spacing - scenario_len) // 2
    attacks = Intervals(starts, starts + scenario_len - 1)
    labels = np.where(intervals_to_mask(attacks, n), "attack", "benign").tolist()
    return LabeledSeries.from_labels(
        name="pathology", timestamps=np.arange(n), labels=labels, tick_seconds=1
    )


def sparse_detector(
    series: LabeledSeries, scenarios: Scenarios, covered: tuple[int, ...]
) -> AlertSeries:
    runs = scenarios.runs
    values = intervals_to_mask([runs[k] for k in covered], len(series))
    return AlertSeries.from_bool("sparse", values, series.name)


def score(
    series: LabeledSeries, scenarios: Scenarios, alerts: AlertSeries
) -> tuple[float, float]:
    """(affiliation F1, eTaF1) of one detector."""
    runs = alerts_to_intervals(alerts, series)
    aff, _ = affiliation(scenarios, runs, series)
    eta = etapr(scenarios, runs)
    return aff.f1_like or 0.0, eta.f1_like or 0.0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Find a seed where affiliation prefers a coin flip to a sparse detector."
    )
    parser.add_argument("--scenarios", type=int, default=8, help="number of attack scenarios")
    parser.add_argument("--scenario-len", type=int, default=50, help="points per scenario")
    parser.add_argument("--spacing", type=int, default=500, help="points per scenario block")
    parser.add_argument("--p", type=float, default=0.5, help="baseline alert probability")
    parser.add_argument("--max-seed", type=int, default=200, help="seeds to try")
    parser.add_argument(
        "--margin", type=float, default=0.05,
        help="required gap on both orderings (default 0.05)",
    )
    parser.add_argument(
        "--all", action="store_true", help="list every satisfying seed instead of the first"
    )
    args = parser.parse_args()

    series = build_series(args.scenarios, args.scenario_len, args.spacing)
    scenarios = extract_scenarios(series)
    covered = (0, args.scenarios // 2)
    sparse = sparse_detector(series, scenarios, covered)
    sparse_aff, sparse_eta = score(series, scenarios, sparse)
    print(f"series: {len(series)} points, {args.scenarios} scenarios of {args.scenario_len}")
    print(f"sparse detector covers scenarios {covered}")
    print(f"sparse: affiliation-f1={sparse_aff:.4f} etaf1={sparse_eta:.4f}")

    found = 0
    for seed in range(args.max_seed):
        spec = BaselineSpec.parse(f"baseline:random:p={args.p}:seed={seed}")
        random_alerts = generate(spec, series)
        rand_aff, rand_eta = score(series, scenarios, random_alerts)
        if rand_aff > sparse_aff + args.margin and sparse_eta > rand_eta + args.margin:
            print(
                f"seed {seed}: random affiliation-f1={rand_aff:.4f} > sparse {sparse_aff:.4f}"
                f"  |  random etaf1={rand_eta:.4f} < sparse {sparse_eta:.4f}"
            )
            found += 1
            if not args.all:
                return 0
    if found:
        print(f"{found} satisfying seeds")
        return 0
    print("no satisfying seed found; widen --max-seed or relax --margin", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
