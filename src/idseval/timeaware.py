"""Time-series-aware metrics: detected scenarios, delay, scenario recall, eTaP/eTaR.

Attacks and alarms are treated as inclusive index intervals. Overlap is
inclusive on both endpoints, consistent with scenario indices. Delays
are measured in ticks; conversion to seconds happens at report time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .model import (
    Intervals,
    IntervalsLike,
    LabeledSeries,
    MetricValue,
    Record,
    Scenarios,
    ScenariosLike,
    as_intervals,
    exact_param,
)


class ScenarioDetection(NamedTuple):
    """One scenario's detection outcome, its fields those of the JSON report row.

    ``first_alert_time`` and ``delay_ticks`` are None exactly when the
    scenario went undetected.
    """

    start_time: int
    end_time: int
    attack_type: str
    detected: bool
    first_alert_time: int | None
    delay_ticks: int | None


def _first_overlaps(runs: Intervals, alerts: Intervals) -> tuple[np.ndarray, np.ndarray]:
    """Per run: the earliest alert run overlapping it, and whether one does."""
    first = np.searchsorted(alerts.ends, runs.starts, side="left")
    hit = first < len(alerts)
    hit[hit] = alerts.starts[first[hit]] <= runs.ends[hit]
    return first, hit


def _points_before(runs: Intervals, positions: np.ndarray) -> np.ndarray:
    """Points of ``runs`` strictly before each of ``positions``."""
    if len(runs) == 0:
        return np.zeros(len(positions), dtype=np.int64)
    prefix = np.concatenate(([0], np.cumsum(runs.lengths)))
    started = np.searchsorted(runs.starts, positions, side="left")
    # Only the last run starting before a position can reach past it.
    overhang = runs.ends[started - 1] + 1 - positions
    overhang[(started == 0) | (overhang < 0)] = 0
    return prefix[started] - overhang


def _covered(runs: Intervals, others: Intervals) -> np.ndarray:
    """Points of each of ``runs`` covered by the union of ``others``."""
    return _points_before(others, runs.ends + 1) - _points_before(others, runs.starts)


def detected_scenarios(
    scenarios: ScenariosLike,
    alert_intervals: IntervalsLike,
    group_by_type: bool = False,
) -> tuple[MetricValue, list[bool]]:
    """Fraction of attack instances touched by at least one alert interval.

    A scenario counts as detected as soon as any alert interval overlaps it,
    however briefly. With ``group_by_type`` the ratio is over distinct attack
    types instead: a type is detected iff at least one of its scenarios is.
    Returns the ratio plus the per-scenario detection flags.
    """
    table = Scenarios.of(scenarios)
    _, hit = _first_overlaps(table.runs, as_intervals(alert_intervals, "alert"))
    name = "detected-scenarios"
    params: dict[str, object] = {"by-type": True} if group_by_type else {}
    if not len(table):
        return MetricValue.undefined(name, **params), []
    if group_by_type:
        ratio = Fraction(len(set(table.codes[hit].tolist())), len(set(table.codes.tolist())))
    else:
        ratio = Fraction(int(np.count_nonzero(hit)), len(table))
    return MetricValue.from_fraction(name, ratio, **params), hit.tolist()


def detection_delay(
    scenarios: ScenariosLike,
    alert_intervals: IntervalsLike,
    series: LabeledSeries,
) -> tuple[list[ScenarioDetection], list[MetricValue]]:
    """Delay from each scenario's start to its first overlapping alert.

    An alert that begins before the scenario but overlaps it means detection
    at attack start: delay 0. Undetected scenarios are excluded from the mean
    and median and reported through the undetected count; mean and median are
    Undefined when nothing was detected.
    """
    table = Scenarios.of(scenarios)
    alerts = as_intervals(alert_intervals, "alert")
    first, hit = _first_overlaps(table.runs, alerts)
    alert_start = alerts.starts[first[hit]]
    alert_time = series.timestamps[np.maximum(alert_start, table.runs.starts[hit])]
    # A later tick minus an earlier one lies in [0, 2**64): exact in uint64.
    alarm, start = series.timestamps[alert_start], table.times[hit, 0]
    delay = np.where(alarm > start, alarm.view(np.uint64) - start.view(np.uint64), 0)
    # Undetected scenarios carry None for both; the rest exact Python ints.
    times, delays = np.full((2, len(table)), None, dtype=object)
    times[hit], delays[hit] = alert_time.tolist(), delay.tolist()
    names = map(table.attack_types.__getitem__, (table.codes - 1).tolist())
    details = list(map(ScenarioDetection, *table.times.T.tolist(), names, hit.tolist(),
                       times.tolist(), delays.tolist()))

    undetected = Fraction(len(table) - len(delay))
    metrics = [MetricValue.from_fraction("undetected-scenarios", undetected)]
    if len(delay):
        ordered = np.sort(delay).tolist()
        mean = Fraction(sum(ordered), len(ordered))
        # The middle pair; for an odd count both are the middle delay.
        median = Fraction(ordered[(len(ordered) - 1) // 2] + ordered[len(ordered) // 2], 2)
        metrics.append(MetricValue.from_fraction("detection-delay-mean", mean))
        metrics.append(MetricValue.from_fraction("detection-delay-median", median))
    else:
        metrics.append(MetricValue.undefined("detection-delay-mean"))
        metrics.append(MetricValue.undefined("detection-delay-median"))
    return details, metrics


class EtaParams(Record):
    """Parameters of the enhanced time-aware precision/recall family.

    ``theta_p``: minimum fraction of an alert interval that must overlap
    ground truth for the alert to count as correct. ``theta_r``: minimum
    fraction of a scenario that must be covered by correct alerts for the
    scenario to count as detected. ``detection_weight``: weight of the binary
    detection component against the overlap-portion component in each score.
    Defaults follow the published parameterization (0.5, 0.1, 0.5).
    """

    __slots__ = _fields = ("theta_p", "theta_r", "detection_weight")

    def __init__(
        self,
        theta_p: Fraction = Fraction(1, 2),
        theta_r: Fraction = Fraction(1, 10),
        detection_weight: Fraction = Fraction(1, 2),
    ) -> None:
        values = (theta_p, theta_r, detection_weight)
        self._set(*(exact_param(key, raw, within="unit") for key, raw in zip(self._fields, values)))


class TimeAwareScores(Record):
    """Precision-like, recall-like and F1-like triple of a time-aware metric."""

    __slots__ = _fields = ("precision_like", "recall_like", "f1_like")

    def __init__(
        self, precision_like: float | None, recall_like: float | None, f1_like: float | None
    ) -> None:
        self._set(precision_like, recall_like, f1_like)


def harmonic_f1(precision: float | None, recall: float | None) -> float | None:
    """Harmonic mean of a precision/recall pair; 0 when both are 0."""
    if precision is None or recall is None:
        return None
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _portions(covered: np.ndarray, distinct: np.ndarray, group: np.ndarray) -> Fraction:
    """Exact sum of ``covered / lengths``, one Fraction per distinct length.

    ``distinct`` and ``group`` are ``np.unique(lengths, return_inverse=True)``.
    """
    covered_by_length = np.zeros(len(distinct), dtype=np.int64)
    np.add.at(covered_by_length, group, covered)
    return sum(
        (Fraction(c, n) for c, n in zip(covered_by_length.tolist(), distinct.tolist())),
        Fraction(0),
    )


def scenario_normalized_recall(
    scenarios: ScenariosLike, alert_intervals: IntervalsLike
) -> MetricValue:
    """Recall normalized by scenario length: mean per-scenario alerted fraction.

    Every scenario contributes equally regardless of how long it lasts, so a
    single long attack cannot dominate the score. Undefined without scenarios.
    """
    runs = Scenarios.of(scenarios).runs
    covered = _covered(runs, as_intervals(alert_intervals, "alert"))
    if not len(runs):
        return MetricValue.undefined("scenario-recall")
    total = _portions(covered, *np.unique(runs.lengths, return_inverse=True))
    return MetricValue.from_fraction("scenario-recall", total / len(runs))


def _mean_score(
    covered: np.ndarray, lengths: np.ndarray, theta: Fraction, w: Fraction
) -> tuple[float | None, np.ndarray]:
    """Mean of ``w * hit + (1 - w) * covered / length`` over runs, and the hit flags.

    A run is hit when ``covered / length`` is positive and at least ``theta``,
    that is when ``covered >= max(1, ceil(theta * length))``. The mean is the
    exact rational rounded once to float.
    """
    if len(lengths) == 0:
        return None, np.zeros(0, dtype=bool)
    distinct, group = np.unique(lengths, return_inverse=True)
    portions = _portions(covered, distinct, group)
    p, q = theta.numerator, theta.denominator
    needed = np.array([max(1, -(-p * n // q)) for n in distinct.tolist()], dtype=np.int64)
    hit = covered >= needed[group]
    total = w * int(np.count_nonzero(hit)) + (1 - w) * portions
    return float(total / len(lengths)), hit


def etapr(
    scenarios: ScenariosLike,
    alert_intervals: IntervalsLike,
    params: EtaParams | None = None,
) -> TimeAwareScores:
    """Enhanced time-aware precision and recall over interval overlaps.

    An alert interval is *correct* when at least ``theta_p`` of it overlaps
    attack scenarios (and the overlap is non-empty); a scenario is *detected*
    when correct alerts cover at least ``theta_r`` of it. Each alert's
    precision score and each scenario's recall score mixes the binary
    detection outcome with the overlap portion:

        score = w * detected + (1 - w) * portion

    eTaP averages alert scores (so every alarm counts once and benign
    overhang only reduces its portion), eTaR averages scenario scores (so
    every attack instance weighs equally regardless of length). eTaP is
    Undefined without alerts, eTaR without scenarios.
    """
    if params is None:
        params = EtaParams()
    scenario_runs = Scenarios.of(scenarios).runs
    alerts = as_intervals(alert_intervals, "alert")
    w = params.detection_weight

    precision, correct = _mean_score(
        _covered(alerts, scenario_runs), alerts.lengths, params.theta_p, w
    )
    correct_alerts = Intervals(alerts.starts[correct], alerts.ends[correct])
    recall, _ = _mean_score(
        _covered(scenario_runs, correct_alerts), scenario_runs.lengths, params.theta_r, w
    )
    return TimeAwareScores(
        precision_like=precision,
        recall_like=recall,
        f1_like=harmonic_f1(precision, recall),
    )
