"""Canonical data types for labels, alerts, scenarios and metric results.

Everything here is immutable after construction and safe to share across
parallel metric evaluations. Time is kept as integer ticks plus a declared
tick duration in seconds; per-packet datasets use tick=1 "packet index",
per-second process datasets use tick=1 second. All interval endpoints
(scenarios, alert intervals) are inclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .timeaware import ScenarioDetection

BENIGN_LABELS = ("benign", "0")


class EvaluationError(Exception):
    """Base class for all evaluation failures."""


class AlignmentError(EvaluationError):
    """An alert series does not line up with its labeled series."""


class ParameterError(EvaluationError):
    """A metric parameter is outside its admissible range."""


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LabeledSeries:
    """Ground-truth stream: per-point benign/attack-type labels over integer ticks.

    Labels are stored as integer codes: 0 is benign, code k (k >= 1) is
    ``attack_types[k - 1]``. Timestamps are strictly increasing ticks;
    ``tick_seconds`` converts ticks to wall-clock seconds.
    """

    name: str
    timestamps: np.ndarray
    label_codes: np.ndarray
    attack_types: tuple[str, ...]
    tick_seconds: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamps", _frozen_array(self.timestamps, np.int64))
        object.__setattr__(self, "label_codes", _frozen_array(self.label_codes, np.int32))
        object.__setattr__(self, "tick_seconds", Fraction(self.tick_seconds))
        if self.timestamps.ndim != 1 or self.label_codes.ndim != 1:
            raise ValueError("timestamps and labels must be one-dimensional")
        if len(self.timestamps) != len(self.label_codes):
            raise ValueError("timestamps and labels must have equal length")
        if len(self.timestamps) == 0:
            raise ValueError("series must contain at least one point")
        if not np.all(self.timestamps[1:] > self.timestamps[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        for type_name in self.attack_types:
            if not type_name:
                raise ValueError("attack type ids must be non-empty")
        if len(set(self.attack_types)) != len(self.attack_types):
            raise ValueError("attack type ids must be unique")
        if len(self.label_codes) and (
            self.label_codes.min() < 0 or self.label_codes.max() > len(self.attack_types)
        ):
            raise ValueError("label codes must reference attack_types")

    @classmethod
    def from_labels(
        cls,
        name: str,
        timestamps: Sequence[int],
        labels: Sequence[str],
        tick_seconds: Fraction | int | str = 1,
    ) -> "LabeledSeries":
        """Build a series from label strings; ``benign``/``0`` mean benign."""
        types: list[str] = []
        index: dict[str, int] = {}
        codes = np.zeros(len(labels), dtype=np.int32)
        for i, raw in enumerate(labels):
            if raw in BENIGN_LABELS:
                continue
            code = index.get(raw)
            if code is None:
                types.append(raw)
                code = len(types)
                index[raw] = code
            codes[i] = code
        return cls(
            name=name,
            timestamps=np.asarray(timestamps, dtype=np.int64),
            label_codes=codes,
            attack_types=tuple(types),
            tick_seconds=Fraction(tick_seconds),
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    @cached_property
    def attack_mask(self) -> np.ndarray:
        mask = self.label_codes > 0
        mask.setflags(write=False)
        return mask

    @property
    def is_binary(self) -> bool:
        return len(self.attack_types) <= 1

    def label_of(self, i: int) -> str | None:
        """Attack type at point ``i`` or None for benign."""
        code = int(self.label_codes[i])
        return None if code == 0 else self.attack_types[code - 1]

    def labels_as_strings(self) -> list[str]:
        return ["benign" if c == 0 else self.attack_types[c - 1] for c in self.label_codes]


class AlertKind(str, Enum):
    BOOLEAN = "boolean"
    SCORED = "scored"


@dataclass(frozen=True)
class AlertSeries:
    """One detector's output aligned point-for-point to a LabeledSeries."""

    detector: str
    kind: AlertKind
    values: np.ndarray
    aligned_to: str

    def __post_init__(self) -> None:
        dtype = np.bool_ if self.kind is AlertKind.BOOLEAN else np.float64
        object.__setattr__(self, "values", _frozen_array(self.values, dtype))
        if self.values.ndim != 1:
            raise ValueError("alert values must be one-dimensional")
        if self.kind is AlertKind.SCORED and not np.all(np.isfinite(self.values)):
            raise ValueError("scores must be finite (no NaN or infinity)")
        if not self.detector:
            raise ValueError("detector name must be non-empty")

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_bool(cls, detector: str, values, aligned_to: str) -> "AlertSeries":
        return cls(detector, AlertKind.BOOLEAN, np.asarray(values, dtype=bool), aligned_to)

    @classmethod
    def from_scores(cls, detector: str, values, aligned_to: str) -> "AlertSeries":
        return cls(detector, AlertKind.SCORED, np.asarray(values, dtype=np.float64), aligned_to)


@dataclass(frozen=True)
class AttackScenario:
    """Maximal contiguous ground-truth attack interval of one attack type.

    ``start_index``/``end_index`` are inclusive point indices into the parent
    series; ``start_time``/``end_time`` are the corresponding tick instants.
    """

    start_index: int
    end_index: int
    start_time: int
    end_time: int
    attack_type: str

    def __post_init__(self) -> None:
        if self.start_index > self.end_index:
            raise ValueError("scenario start_index must be <= end_index")
        if self.start_time > self.end_time:
            raise ValueError("scenario start_time must be <= end_time")

    @property
    def length(self) -> int:
        """Number of points covered (inclusive index span)."""
        return self.end_index - self.start_index + 1


@dataclass(frozen=True)
class ConfusionMatrix:
    """TP/TN/FP/FN counts from a per-point comparison of labels and alerts."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def n(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricValue:
    """A named metric result; ``value`` is None when the metric is undefined.

    Undefined happens exactly when a metric's denominator contract is
    violated (for example TPR on a series without any attack point); it is
    never silently substituted by 0. ``exact`` carries the rational value for
    metrics computed from integer counts.
    """

    name: str
    value: float | None
    exact: Fraction | None = None
    params: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.exact is not None and self.value is None:
            object.__setattr__(self, "value", float(self.exact))

    @property
    def defined(self) -> bool:
        return self.value is not None

    @property
    def display_name(self) -> str:
        """Stable name including parameters, e.g. ``fbeta:beta=0.1``."""
        if not self.params:
            return self.name
        parts = []
        for key in sorted(self.params):
            val = self.params[key]
            if val is True:
                parts.append(key)
            else:
                parts.append(f"{key}={val}")
        return self.name + ":" + ":".join(parts)

    @classmethod
    def undefined(cls, name: str, **params: object) -> "MetricValue":
        return cls(name=name, value=None, params=dict(params))

    @classmethod
    def from_fraction(cls, name: str, exact: Fraction, **params: object) -> "MetricValue":
        return cls(name=name, value=float(exact), exact=exact, params=dict(params))


@dataclass(frozen=True)
class MetricReport:
    """All metric results of one detector on one dataset."""

    dataset: str
    detector: str
    metrics: tuple[MetricValue, ...]
    scenario_details: tuple["ScenarioDetection", ...] = ()
    tick_seconds: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "scenario_details", tuple(self.scenario_details))
        names = [m.display_name for m in self.metrics]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate metric names in report: {', '.join(dupes)}")

    def get(self, display_name: str) -> MetricValue | None:
        for metric in self.metrics:
            if metric.display_name == display_name:
                return metric
        return None


def extract_scenarios(series: LabeledSeries, gap_tolerance: int = 0) -> list[AttackScenario]:
    """Split the series into maximal runs of identically-typed attack points.

    Runs of the same attack type separated by at most ``gap_tolerance`` benign
    points are merged into one scenario (the swallowed benign points become
    part of its span). Gaps are counted in points, not ticks. Adjacent runs of
    different attack types always stay distinct scenarios.
    """
    if gap_tolerance < 0:
        raise ParameterError("gap_tolerance must be non-negative")
    codes = series.label_codes
    if len(codes) == 0 or not series.attack_mask.any():
        return []
    boundaries = np.flatnonzero(np.diff(codes)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries - 1, [len(codes) - 1]))
    runs = [(int(s), int(e), int(codes[s])) for s, e in zip(starts, ends) if codes[s] > 0]

    merged: list[tuple[int, int, int]] = []
    for start, end, code in runs:
        if merged:
            prev_start, prev_end, prev_code = merged[-1]
            benign_between = start - prev_end - 1
            if code == prev_code and benign_between <= gap_tolerance:
                merged[-1] = (prev_start, end, code)
                continue
        merged.append((start, end, code))

    timestamps = series.timestamps
    return [
        AttackScenario(
            start_index=s,
            end_index=e,
            start_time=int(timestamps[s]),
            end_time=int(timestamps[e]),
            attack_type=series.attack_types[code - 1],
        )
        for s, e, code in merged
    ]


def require_alignment(series: LabeledSeries, alerts: AlertSeries) -> None:
    """Raise AlignmentError unless ``alerts`` was built against ``series``."""
    if alerts.aligned_to != series.name:
        raise AlignmentError(
            f"alert series '{alerts.detector}' is aligned to "
            f"'{alerts.aligned_to}', not to dataset '{series.name}'"
        )
    if len(alerts) != len(series):
        raise AlignmentError(
            f"alert series '{alerts.detector}' has {len(alerts)} points, "
            f"dataset '{series.name}' has {len(series)}"
        )


def alerts_to_intervals(alerts: AlertSeries, series: LabeledSeries) -> list[tuple[int, int]]:
    """Maximal runs of true alerts as inclusive index intervals, sorted."""
    if alerts.kind is not AlertKind.BOOLEAN:
        raise EvaluationError("alert intervals require boolean alerts, not scores")
    require_alignment(series, alerts)
    return mask_to_intervals(alerts.values)


def mask_to_intervals(mask: np.ndarray) -> list[tuple[int, int]]:
    """Inclusive index intervals of the true runs of a boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return []
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts = edges[0::2]
    ends = edges[1::2] - 1
    return [(int(s), int(e)) for s, e in zip(starts, ends)]


def intervals_to_mask(intervals: Iterable[tuple[int, int]], n: int) -> np.ndarray:
    """Expand inclusive index intervals back into a boolean mask of length n."""
    mask = np.zeros(n, dtype=bool)
    for start, end in intervals:
        if start < 0 or end >= n or start > end:
            raise ValueError(f"interval ({start}, {end}) out of range for length {n}")
        mask[start : end + 1] = True
    return mask


def format_fraction(value: Fraction) -> str:
    """Shortest exact rendering: terminating decimals as decimals, else num/den.

    Used wherever a rational parameter becomes part of a stable name, so that
    ``fbeta:beta=0.1`` round-trips instead of surfacing as ``beta=1/10``.
    """
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    rest = den
    twos = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    fives = 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    places = max(twos, fives)
    scaled = abs(num) * 10**places // den
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


COLLAPSED_ATTACK_TYPE = "attack"


def collapse_multiclass(
    series: LabeledSeries,
    positive_classes: Iterable[str] | None = None,
    collapsed_type: str = COLLAPSED_ATTACK_TYPE,
) -> LabeledSeries:
    """Map a multi-class series to its binary equivalent.

    Points labeled with any of ``positive_classes`` (default: all attack
    types) become one synthetic attack type; everything else becomes benign.
    """
    if positive_classes is None:
        positive = set(series.attack_types)
    else:
        positive = set(positive_classes)
        unknown = positive - set(series.attack_types)
        if unknown:
            raise EvaluationError(
                f"unknown attack classes: {', '.join(sorted(unknown))}"
            )
    positive_codes = {
        code for code, name in enumerate(series.attack_types, start=1) if name in positive
    }
    if positive_codes:
        is_positive = np.isin(series.label_codes, sorted(positive_codes))
    else:
        is_positive = np.zeros(len(series), dtype=bool)
    return LabeledSeries(
        name=series.name,
        timestamps=series.timestamps,
        label_codes=is_positive.astype(np.int32),
        attack_types=(collapsed_type,) if is_positive.any() else (),
        tick_seconds=series.tick_seconds,
    )
