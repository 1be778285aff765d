"""Shared construction helpers for the test suite."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from idseval import AlertSeries, LabeledSeries, save_alerts, save_labels

ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "data" / "demo"
GOLDEN_DIGEST = ROOT / "tests" / "golden" / "cli_digest.txt"


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


class Trace(NamedTuple):
    """A labeled trace with boolean detectors by name and one scored detector."""

    timestamps: list[int]
    labels: list[str]
    detectors: dict[str, list[bool]]
    scores: list[float]


def random_trace(rng: random.Random, start: int = 0) -> Trace:
    """200-400 points from tick ``start`` on, some ticks apart, with 1-10 attack
    scenarios of three types, 1-3 lagged and noisy boolean detectors and one
    scored detector with ties and integral scores. Equal ``rng`` states give
    equal traces for every ``start``, so two starts give a trace and its shift.
    """
    n = rng.randint(200, 400)
    gaps = [rng.choice((1, 1, 1, 2, 7)) for _ in range(n - 1)]
    timestamps = list(itertools.accumulate(gaps, initial=start))
    labels = ["benign"] * n
    count = rng.randint(1, 10)
    slot = n // count  # one scenario per slot, with benign points after it
    for k in range(count):
        first = k * slot + rng.randint(0, slot // 2)
        kind = rng.choice(("dos", "scan", "spoof"))
        length = rng.randint(1, slot // 2 - 1)
        labels[first : first + length] = [kind] * length
    attack = [label != "benign" for label in labels]
    detectors = {}
    for k in range(rng.randint(1, 3)):
        lag, noise = rng.randint(0, 6), rng.choice((0.0, 0.01, 0.05, 0.3))
        detectors[f"det-{k}"] = [
            (i >= lag and attack[i - lag]) != (rng.random() < noise) for i in range(n)
        ]
    scores = [
        float(rng.randint(0, 3)) if rng.random() < 0.2 else round(rng.random() + hit, 3)
        for hit in attack
    ]
    return Trace(timestamps, labels, detectors, scores)


def write_trace(trace: Trace, folder: Path) -> None:
    """The trace in the layouts idseval writes: ``labels.csv``, one
    ``NAME.jsonl`` per detector, and ``scored.jsonl``."""
    folder.mkdir(parents=True, exist_ok=True)
    series = make_series(trace.labels, "labels", timestamps=trace.timestamps)
    save_labels(series, folder / "labels.csv")
    for name, values in trace.detectors.items():
        alerts = AlertSeries.from_bool(name, values, series.name)
        save_alerts(alerts, series, folder / f"{name}.jsonl")
    scored = AlertSeries.from_scores("scored", trace.scores, series.name)
    save_alerts(scored, series, folder / "scored.jsonl")


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


def golden_files() -> dict[str, dict[str, str]]:
    """The golden digest's artifact hashes, run by run."""
    runs = {}
    for line in GOLDEN_DIGEST.read_text(encoding="utf-8").splitlines():
        name, _, *fields = line.split()
        runs[name] = dict(field.split("=", 1) for field in fields)
    return {name: {key: value for key, value in fields.items() if key not in ("stdout", "stderr")}
            for name, fields in runs.items()}


def assert_verbs_write_the_golden_files(tmp_path: Path) -> None:
    """Run evaluate, compare (writing baseline copies), roc and timeline on the
    demo data in-process, and require every artifact's hash to be the golden one."""
    from idseval import cli

    manifest = ["--config", str(DEMO / "manifest.json")]
    scored = ["--labels", str(DEMO / "labels.csv"), "--alerts", str(DEMO / "scored.jsonl")]
    runs = {
        "evaluate-json": ["evaluate", *manifest, "--format", "json"],
        "compare-json": ["compare", *manifest, "--detector", "baseline:never",
                         "--detector", "baseline:random:p=0.5", "--format", "json"],
        "roc-csv": ["roc", *scored, "--auto", "--format", "csv"],
        "timeline": ["timeline", *manifest, "--detector", "baseline:random:p=0.1",
                     "--min-width", "60s"],
    }
    golden = golden_files()
    for name, argv in runs.items():
        out = tmp_path / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert cli.main([*argv, "--out", str(out)]) == 0, stderr.getvalue()
        files = {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in out.rglob("*") if path.is_file()}
        assert files == golden[name], name
