"""Shared construction helpers for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from idseval import AlertSeries, LabeledSeries


def make_series(
    labels: list[str],
    name: str = "series",
    tick_seconds: int | str = 1,
    timestamps: list[int] | None = None,
) -> LabeledSeries:
    if timestamps is None:
        timestamps = list(range(len(labels)))
    return LabeledSeries.from_labels(name, timestamps, list(labels), tick_seconds)


def label_strings(series: LabeledSeries) -> list[str]:
    """Each point's label: ``benign`` or its attack type."""
    names = ("benign", *series.attack_types)
    return [names[code] for code in series.label_codes]


def make_alerts(values, detector: str = "det", aligned_to: str = "series") -> AlertSeries:
    return AlertSeries.from_bool(detector, list(values), aligned_to)


def lane_bits(lanes) -> list[tuple]:
    """Each timeline lane with its spans as float64 bit patterns, so that two
    lanes compare equal only when every span is bit-identical, zero signs too."""
    return [
        (
            lane.name,
            lane.kind,
            lane.true_spans.view(np.uint64).tolist(),
            lane.drawn_spans.view(np.uint64).tolist(),
            lane.widened.tolist(),
        )
        for lane in lanes
    ]


def random_binary_instance(rng: random.Random, max_len: int = 64) -> tuple[list[str], list[bool]]:
    """Random labels and alerts with occasional degenerate compositions."""
    n = rng.randint(1, max_len)
    attack_rate = rng.choice([0.0, 0.1, 0.3, 0.5, 1.0])
    alert_rate = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
    labels = ["attack" if rng.random() < attack_rate else "benign" for _ in range(n)]
    alerts = [rng.random() < alert_rate for _ in range(n)]
    return labels, alerts


def random_intervals(
    rng: random.Random,
    n: int,
    max_count: int,
    max_len: int | None = None,
) -> list[tuple[int, int]]:
    """Sorted, disjoint (gap >= 1) inclusive intervals inside [0, n)."""
    intervals: list[tuple[int, int]] = []
    count = rng.randint(0, max_count)
    if count == 0 or n == 0:
        return intervals
    budget = max(1, n // (count * 2))
    pos = rng.randint(0, budget)
    cap = max_len or max(1, n // count)
    for _ in range(count):
        if pos > n - 1:
            break
        start = pos
        end = min(start + rng.randint(1, cap) - 1, n - 1)
        intervals.append((start, end))
        pos = end + 2 + rng.randint(0, budget)
    return intervals


def labels_from_intervals(n: int, intervals: list[tuple[int, int]], kind: str = "attack") -> list[str]:
    labels = ["benign"] * n
    for start, end in intervals:
        for i in range(start, end + 1):
            labels[i] = kind
    return labels


def alerts_from_intervals(n: int, intervals: list[tuple[int, int]]) -> list[bool]:
    values = [False] * n
    for start, end in intervals:
        for i in range(start, end + 1):
            values[i] = True
    return values


def fresh_env(**env_updates) -> dict[str, str]:
    """The environment of a new interpreter that imports idseval from this checkout.

    A keyword set to None removes that variable from the environment.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for name, value in env_updates.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def fresh_python(*args, **env_updates):
    """Run ``python ARGS`` in a new interpreter that imports idseval from this checkout.

    A keyword set to None removes that variable from the child's environment.
    """
    run = subprocess.run(
        [sys.executable, *args], env=fresh_env(**env_updates), capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    return run.stdout
