"""Seeded synthetic inputs for the benchmark.

Follows ``scripts/make_demo.py``: evenly spaced attack scenarios of three
types, a lagged boolean detector and a noisy scored detector. Generation uses
numpy and writes the files through the public ``save_labels`` and
``save_alerts``, so the files are exactly what a user of the library would
produce. The generated arrays are kept next to the files; the output checks
compare the program's answers against them, never against the program's own
parse of the files.

Inputs are cached under ``<checkout>/.bench_cache`` (ignored by git), keyed by
seed and size. Each file has its own random stream derived from the seed, so
a file does not depend on which other files were generated before it.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from idseval import LabeledSeries, save_alerts, save_labels
from idseval.model import AlertSeries

ATTACK_TYPES = ("dos", "spoof", "replay")
DATASET_NAME = "labels"
# Random baseline every dense workload adds on the command line.
RANDOM_BASELINE = "baseline:random:p=0.5:seed=7"
RANDOM_P, RANDOM_SEED = 0.5, 7
# Keep at most this many seeded input sets on disk; the oldest go first.
CACHE_ENTRIES = 4

_STREAMS = {"labels": 0, "lagged": 1, "scored": 2}


def runs_of(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal true runs of a boolean mask, as inclusive index intervals."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    return [(int(s), int(e) - 1) for s, e in zip(edges[0::2], edges[1::2])]


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[stream]])


def build_codes(seed: int, points: int, scenarios: int) -> np.ndarray:
    """Label codes (0 benign, k for ATTACK_TYPES[k-1]) with one scenario per slot."""
    rng = _rng(seed, "labels")
    codes = np.zeros(points, dtype=np.int32)
    spacing = points // scenarios
    for k in range(scenarios):
        length = int(rng.integers(20, 61))
        start = k * spacing + int(rng.integers(10, spacing - length - 9))
        codes[start : start + length] = k % len(ATTACK_TYPES) + 1
    return codes


def lagged_alerts(seed: int, codes: np.ndarray) -> np.ndarray:
    """Fires 2-12 ticks late on ~80% of scenarios, plus 0.1% single-point noise."""
    rng = _rng(seed, "lagged")
    n = len(codes)
    values = np.zeros(n, dtype=bool)
    for start, end in runs_of(codes > 0):
        if rng.random() < 0.2:
            continue
        first = min(start + int(rng.integers(2, 13)), end)
        last = min(end + int(rng.integers(0, 9)), n - 1)
        values[first : last + 1] = True
    values[rng.random(n) < 0.001] = True
    return values


def scored_alerts(seed: int, codes: np.ndarray) -> np.ndarray:
    """Noisy score tracking the attack mask, kept at 6 decimals so most scores are distinct."""
    rng = _rng(seed, "scored")
    base = np.where(codes > 0, 0.7, 0.2)
    return np.round(np.clip(base + rng.normal(0.0, 0.15, len(codes)), 0.0, 1.0), 6)


def random_baseline(points: int) -> np.ndarray:
    """The stream ``baseline:random:p=0.5:seed=7`` stands for, as README defines it."""
    rng = random.Random(RANDOM_SEED)
    return np.array([rng.random() < RANDOM_P for _ in range(points)], dtype=bool)


def series_of(codes: np.ndarray) -> LabeledSeries:
    return LabeledSeries(
        name=DATASET_NAME,
        timestamps=np.arange(len(codes), dtype=np.int64),
        label_codes=codes,
        attack_types=ATTACK_TYPES,
    )


@dataclass
class Inputs:
    """One seeded dataset on disk plus the arrays it was written from."""

    directory: Path
    seed: int
    codes: np.ndarray
    detectors: dict[str, np.ndarray] = field(default_factory=dict)
    gen_s: float = 0.0
    cache_hit: bool = True

    @property
    def labels_path(self) -> Path:
        return self.directory / "labels.csv"

    def alerts_path(self, detector: str) -> Path:
        return self.directory / f"{detector}.jsonl"

    @property
    def points(self) -> int:
        return len(self.codes)

    def properties(self) -> dict:
        """Measured input facts a workload-specific claim can cite."""
        runs = runs_of(self.codes > 0)
        by_type: dict[str, int] = {}
        for start, _ in runs:
            name = ATTACK_TYPES[self.codes[start] - 1]
            by_type[name] = by_type.get(name, 0) + 1
        props: dict = {
            "points": self.points,
            "attack_points": int(np.count_nonzero(self.codes)),
            "scenarios_by_type": dict(sorted(by_type.items())),
        }
        for name, values in self.detectors.items():
            if values.dtype == bool:
                props[f"alert_runs.{name}"] = len(runs_of(values))
            else:
                props[f"distinct_scores.{name}"] = int(len(np.unique(values)))
        return props


_MAKERS = {"lagged": lagged_alerts, "scored": scored_alerts}


def _write_entry(directory: Path, seed: int, points: int, scenarios: int, detectors) -> None:
    tmp = directory.with_name(directory.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    codes = build_codes(seed, points, scenarios)
    series = series_of(codes)
    save_labels(series, tmp / "labels.csv")
    arrays = {"codes": codes}
    for name in detectors:
        values = _MAKERS[name](seed, codes)
        arrays[name] = values
        alert = (
            AlertSeries.from_bool(name, values, DATASET_NAME)
            if values.dtype == bool
            else AlertSeries.from_scores(name, values, DATASET_NAME)
        )
        save_alerts(alert, series, tmp / f"{name}.jsonl")
    np.savez(tmp / "arrays.npz", **arrays)
    os.replace(tmp, directory)


def _evict(cache: Path, keep: Path) -> None:
    entries = sorted(
        (p for p in cache.iterdir() if p.is_dir() and p != keep),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in entries[: max(0, len(entries) - (CACHE_ENTRIES - 1))]:
        shutil.rmtree(stale, ignore_errors=True)


def ensure_inputs(
    cache: Path, seed: int, points: int, scenarios: int, detectors: tuple[str, ...]
) -> Inputs:
    """Return the seeded dataset, generating it into the cache if it is missing."""
    key = f"n{points}-s{scenarios}-{'+'.join(detectors)}-seed{seed}"
    directory = cache / key
    began = time.perf_counter()
    hit = directory.is_dir()
    if not hit:
        cache.mkdir(parents=True, exist_ok=True)
        _evict(cache, directory)
        _write_entry(directory, seed, points, scenarios, detectors)
    os.utime(directory)
    with np.load(directory / "arrays.npz") as data:
        codes = data["codes"]
        arrays = {name: data[name] for name in detectors}
    return Inputs(
        directory=directory,
        seed=seed,
        codes=codes,
        detectors=arrays,
        gen_s=time.perf_counter() - began,
        cache_hit=hit,
    )
