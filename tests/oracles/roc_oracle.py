"""Reference ROC sweep: the per-threshold loop idseval began with.

``RocPoint``, ``RocCurve``, ``roc``, ``auc`` and ``roc_to_csv`` here are kept
exactly as first written: one ``searchsorted`` pair and one ``RocPoint`` per
distinct threshold, a Python loop for the trapezoid sum and ``csv.writer``
for the CSV text. The array-backed sweep in ``idseval.pointwise`` must give
bit-equal thresholds and coordinates, an equal area and equal CSV text.
This file never changes to match the fast code.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from idseval.model import (
    AlertKind,
    AlertSeries,
    EvaluationError,
    LabeledSeries,
    MetricValue,
    ParameterError,
    require_alignment,
)


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    fpr: float
    tpr: float


@dataclass(frozen=True)
class RocCurve:
    """(FPR, TPR) per threshold, sorted by threshold descending.

    Includes the synthetic endpoints (0,0) at threshold +inf and (1,1) at
    threshold -inf, so both coordinates sweep monotonically from 0 to 1.
    """

    points: tuple[RocPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        thresholds = [p.threshold for p in self.points]
        if any(a < b for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("curve points must be sorted by threshold descending")
        for p in self.points:
            if not (0.0 <= p.fpr <= 1.0 and 0.0 <= p.tpr <= 1.0):
                raise ValueError("curve coordinates must lie in [0, 1]")


def roc(series: LabeledSeries, alerts: AlertSeries, thresholds: list[float]) -> RocCurve:
    """Sweep alert thresholds over scored output; the alert rule is score >= threshold.

    Requires binary labels with at least one attack and one benign point
    (otherwise TPR or FPR has a zero denominator at every threshold).
    """
    if alerts.kind is not AlertKind.SCORED:
        raise EvaluationError("roc requires scored alerts")
    if not series.is_binary:
        raise EvaluationError("roc requires binary labels; collapse the series first")
    require_alignment(series, alerts)
    if not thresholds:
        raise ParameterError("at least one threshold is required")
    if not all(np.isfinite(thresholds)):
        raise ParameterError("thresholds must be finite")

    attack = series.attack_mask
    n_attack = int(attack.sum())
    n_benign = len(series) - n_attack
    if n_attack == 0 or n_benign == 0:
        raise EvaluationError("roc requires both attack and benign points in the labels")

    attack_scores = np.sort(alerts.values[attack])
    benign_scores = np.sort(alerts.values[~attack])
    points = [RocPoint(threshold=float("inf"), fpr=0.0, tpr=0.0)]
    for threshold in sorted(set(float(t) for t in thresholds), reverse=True):
        tp = n_attack - int(np.searchsorted(attack_scores, threshold, side="left"))
        fp = n_benign - int(np.searchsorted(benign_scores, threshold, side="left"))
        points.append(RocPoint(threshold=threshold, fpr=fp / n_benign, tpr=tp / n_attack))
    points.append(RocPoint(threshold=float("-inf"), fpr=1.0, tpr=1.0))
    return RocCurve(points=tuple(points))


def auc(curve: RocCurve) -> MetricValue:
    """Trapezoidal area under the ROC curve (FPR on x, TPR on y)."""
    area = 0.0
    for a, b in zip(curve.points, curve.points[1:]):
        area += (b.fpr - a.fpr) * (a.tpr + b.tpr) / 2.0
    return MetricValue(name="auc", value=area)


def roc_to_csv(curve) -> str:
    """CSV form of a ROC sweep: threshold, fpr, tpr per row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["threshold", "fpr", "tpr"])
    for point in curve.points:
        writer.writerow([repr(point.threshold), repr(point.fpr), repr(point.tpr)])
    return buffer.getvalue()
