"""Point-based metrics computed from a per-point confusion matrix.

Ratio metrics are computed in exact rational arithmetic from the integer
counts; a zero denominator yields an Undefined MetricValue, never 0 or NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import (
    AlertKind,
    AlertSeries,
    AttackScenario,
    ConfusionMatrix,
    EvaluationError,
    LabeledSeries,
    MetricValue,
    ParameterError,
    _frozen_array,
    extract_scenarios,
    format_fraction,
    require_alignment,
)


def confusion(series: LabeledSeries, alerts: AlertSeries) -> ConfusionMatrix:
    """Count TP/TN/FP/FN by comparing labels and boolean alerts point-to-point."""
    if not series.is_binary:
        raise EvaluationError(
            "confusion requires binary labels; collapse the multi-class series first"
        )
    if alerts.kind is not AlertKind.BOOLEAN:
        raise EvaluationError("confusion requires boolean alerts, not scores")
    require_alignment(series, alerts)
    return count_confusion(series.attack_mask, alerts.values)


def count_confusion(attack: np.ndarray, alert: np.ndarray) -> ConfusionMatrix:
    """TP/TN/FP/FN of two aligned boolean columns, with one boolean temporary.

    TP, the attack points and the alerted points are counted; FN, FP and TN
    follow from them.
    """
    attacks = int(np.count_nonzero(attack))
    alarms = int(np.count_nonzero(alert))
    tp = int(np.count_nonzero(attack & alert))
    return ConfusionMatrix(
        tp=tp, tn=len(attack) - attacks - alarms + tp, fp=alarms - tp, fn=attacks - tp
    )


def _ratio(name: str, numerator: int, denominator: int) -> MetricValue:
    if denominator == 0:
        return MetricValue.undefined(name)
    return MetricValue.from_fraction(name, Fraction(numerator, denominator))


def tpr(cm: ConfusionMatrix) -> MetricValue:
    """Recall / true positive rate: TP / (TP + FN)."""
    return _ratio("tpr", cm.tp, cm.tp + cm.fn)


def fnr(cm: ConfusionMatrix) -> MetricValue:
    """Miss rate / false negative rate: FN / (TP + FN)."""
    return _ratio("fnr", cm.fn, cm.tp + cm.fn)


def tnr(cm: ConfusionMatrix) -> MetricValue:
    """Specificity / true negative rate: TN / (TN + FP)."""
    return _ratio("tnr", cm.tn, cm.tn + cm.fp)


def fpr(cm: ConfusionMatrix) -> MetricValue:
    """Fall-out / false positive rate: FP / (FP + TN)."""
    return _ratio("fpr", cm.fp, cm.fp + cm.tn)


def ppv(cm: ConfusionMatrix) -> MetricValue:
    """Precision / positive predictive value: TP / (TP + FP)."""
    return _ratio("ppv", cm.tp, cm.tp + cm.fp)


def npv(cm: ConfusionMatrix) -> MetricValue:
    """Negative predictive value: TN / (TN + FN)."""
    return _ratio("npv", cm.tn, cm.tn + cm.fn)


def accuracy(cm: ConfusionMatrix) -> MetricValue:
    """Overall fraction of correct classifications: (TP + TN) / n."""
    return _ratio("accuracy", cm.tp + cm.tn, cm.n)


def as_beta(beta: Fraction | int | float | str) -> Fraction:
    """Normalize a beta parameter to an exact Fraction (floats via str repr)."""
    if isinstance(beta, float):
        beta = str(beta)
    value = Fraction(beta)
    if value <= 0:
        raise ParameterError(f"beta must be positive, got {value}")
    return value


@dataclass(frozen=True)
class FBetaParams:
    """Weight of recall relative to precision; beta=1 recovers F1."""

    beta: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", as_beta(self.beta))


def f_beta(cm: ConfusionMatrix, params: FBetaParams | Fraction | int | float | str = 1) -> MetricValue:
    """F-score from counts: (1+b^2)*TP / ((1+b^2)*TP + b^2*FN + FP).

    Computed in counts form to avoid compounding division error. Undefined
    only on an all-TN series (zero denominator). beta < 1 weights precision
    higher than recall; beta=0.1 weights precision ten times more.
    """
    if not isinstance(params, FBetaParams):
        params = FBetaParams(beta=params)
    beta_sq = params.beta * params.beta
    numerator = (1 + beta_sq) * cm.tp
    denominator = (1 + beta_sq) * cm.tp + beta_sq * cm.fn + cm.fp
    name = "f1" if params.beta == 1 else "fbeta"
    metric_params = {} if params.beta == 1 else {"beta": format_fraction(params.beta)}
    if denominator == 0:
        return MetricValue.undefined(name, **metric_params)
    return MetricValue.from_fraction(name, numerator / denominator, **metric_params)


def f1(cm: ConfusionMatrix) -> MetricValue:
    return f_beta(cm, 1)


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    fpr: float
    tpr: float


@dataclass(frozen=True, eq=False)
class RocCurve:
    """(FPR, TPR) per threshold, sorted by threshold descending.

    Held as three read-only float64 arrays of equal length, checked once
    when built; two curves are equal when their arrays are. Includes the
    synthetic endpoints (0,0) at threshold +inf and (1,1) at threshold -inf,
    so both coordinates sweep monotonically from 0 to 1.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray

    def __post_init__(self) -> None:
        for name in ("thresholds", "fpr", "tpr"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), np.float64))
        shape = self.thresholds.shape
        if len(shape) != 1 or not shape == self.fpr.shape == self.tpr.shape:
            raise ValueError("curve thresholds, fpr and tpr must be equal-length 1-D arrays")
        if np.any(self.thresholds[:-1] < self.thresholds[1:]):
            raise ValueError("curve points must be sorted by threshold descending")
        for coords in (self.fpr, self.tpr):
            # Written as a negation so that NaN fails the check too.
            if not np.all((coords >= 0.0) & (coords <= 1.0)):
                raise ValueError("curve coordinates must lie in [0, 1]")

    @cached_property
    def points(self) -> tuple[RocPoint, ...]:
        """The curve as one RocPoint per threshold, for callers that iterate."""
        return tuple(
            map(RocPoint, self.thresholds.tolist(), self.fpr.tolist(), self.tpr.tolist())
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RocCurve):
            return NotImplemented
        return all(map(
            np.array_equal,
            (self.thresholds, self.fpr, self.tpr),
            (other.thresholds, other.fpr, other.tpr),
        ))

    __hash__ = None  # type: ignore[assignment]


def roc(
    series: LabeledSeries, alerts: AlertSeries, thresholds: Sequence[float] | np.ndarray
) -> RocCurve:
    """Sweep alert thresholds over scored output; the alert rule is score >= threshold.

    Requires binary labels with at least one attack and one benign point
    (otherwise TPR or FPR has a zero denominator at every threshold).
    Duplicate thresholds are dropped; of ``0.0`` and ``-0.0`` the first
    listed is kept. Both classes are sorted once and every threshold is
    counted with one ``searchsorted`` per class (Fawcett 2006, Algorithm 1).
    Thresholds that already increase strictly (``--auto`` passes the
    distinct scores) skip the deduplicating sort and its index arrays.
    """
    if alerts.kind is not AlertKind.SCORED:
        raise EvaluationError("roc requires scored alerts")
    if not series.is_binary:
        raise EvaluationError("roc requires binary labels; collapse the series first")
    require_alignment(series, alerts)
    requested = np.asarray(thresholds, dtype=np.float64)
    if requested.ndim != 1:
        raise ParameterError("thresholds must be a flat sequence of numbers")
    if len(requested) == 0:
        raise ParameterError("at least one threshold is required")
    if not np.all(np.isfinite(requested)):
        raise ParameterError("thresholds must be finite")

    attack = series.attack_mask
    n_attack = int(attack.sum())
    n_benign = len(series) - n_attack
    if n_attack == 0 or n_benign == 0:
        raise EvaluationError("roc requires both attack and benign points in the labels")

    if np.all(requested[1:] > requested[:-1]):
        swept = requested[::-1]
    else:
        # np.unique sorts stably, so return_index points at each value's first
        # occurrence: the first listed of 0.0 and -0.0 survives, as with set().
        swept = requested[np.unique(requested, return_index=True)[1]][::-1]
    # The curve is written in place, into arrays that RocCurve then shares.
    thresholds = np.empty(len(swept) + 2)
    thresholds[0], thresholds[1:-1], thresholds[-1] = np.inf, swept, -np.inf
    del swept
    fpr, tpr = np.empty_like(thresholds), np.empty_like(thresholds)
    for coords, mask, total in ((fpr, ~attack, n_benign), (tpr, attack, n_attack)):
        scores = alerts.values[mask]
        scores.sort()
        counts = np.searchsorted(scores, thresholds[1:-1], side="left")
        del scores
        # int64 / int is correctly rounded below 2**53, like Python's int / int.
        np.divide(np.subtract(total, counts, out=counts), total, out=coords[1:-1])
        del counts
        coords[0], coords[-1] = 0.0, 1.0
    for array in (thresholds, fpr, tpr):
        array.setflags(write=False)
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr)


def auc(curve: RocCurve) -> MetricValue:
    """Trapezoidal area under the ROC curve (FPR on x, TPR on y).

    The terms are summed left to right from 0.0 with ``np.cumsum``;
    ``np.trapezoid`` sums pairwise and would change the last bits.
    """
    x, y = curve.fpr, curve.tpr
    terms = (x[1:] - x[:-1]) * (y[:-1] + y[1:]) / 2.0
    area = np.concatenate(([0.0], terms)).cumsum()[-1]
    return MetricValue(name="auc", value=float(area))


def auc_single(cm: ConfusionMatrix) -> MetricValue:
    """Single-configuration simplification of AuC: 1 - (FPR + FNR) / 2.

    Reported under its own name; never conflated with curve-based AuC.
    Undefined when FPR or FNR is undefined.
    """
    fpr_value = fpr(cm)
    fnr_value = fnr(cm)
    if fpr_value.exact is None or fnr_value.exact is None:
        return MetricValue.undefined("auc-single")
    return MetricValue.from_fraction("auc-single", 1 - (fpr_value.exact + fnr_value.exact) / 2)


def scenario_normalized_recall(
    series: LabeledSeries,
    alerts: AlertSeries,
    scenarios: list[AttackScenario] | None = None,
) -> MetricValue:
    """Recall normalized by scenario length: mean per-scenario alerted fraction.

    Every scenario contributes equally regardless of how long it lasts, so a
    single long attack cannot dominate the score. Undefined when the series
    has no attack scenarios.
    """
    if alerts.kind is not AlertKind.BOOLEAN:
        raise EvaluationError("scenario-normalized recall requires boolean alerts")
    require_alignment(series, alerts)
    if scenarios is None:
        scenarios = extract_scenarios(series, gap_tolerance=0)
    if not scenarios:
        return MetricValue.undefined("scenario-recall")
    total = Fraction(0)
    for scenario in scenarios:
        covered = int(np.count_nonzero(alerts.values[scenario.start_index : scenario.end_index + 1]))
        total += Fraction(covered, scenario.length)
    return MetricValue.from_fraction("scenario-recall", total / len(scenarios))
