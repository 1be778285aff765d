"""Point-based metrics computed from a per-point confusion matrix.

Ratio metrics are computed in exact rational arithmetic from the integer
counts; a zero denominator yields an Undefined MetricValue, never 0 or NaN.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .model import (
    AlertKind,
    AlertSeries,
    ConfusionMatrix,
    EvaluationError,
    LabeledSeries,
    MetricValue,
    ParameterError,
    Record,
    _frozen_array,
    exact_param,
    format_fraction,
    require_alignment,
)


def confusion(series: LabeledSeries, alerts: AlertSeries) -> ConfusionMatrix:
    """Count TP/TN/FP/FN by comparing labels and boolean alerts point-to-point.

    Any attack type counts as positive, as in the binary collapse of the series.
    TP, the attack points and the alerted points are counted, with one boolean
    temporary; FN, FP and TN follow from them.
    """
    if alerts.kind is not AlertKind.BOOLEAN:
        raise EvaluationError("confusion requires boolean alerts, not scores")
    require_alignment(series, alerts)
    attack, alert = series.attack_mask, alerts.values
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


def f_beta(cm: ConfusionMatrix, beta: Fraction | int | float | str = 1) -> MetricValue:
    """F-score from counts: (1+b^2)*TP / ((1+b^2)*TP + b^2*FN + FP).

    Computed in counts form to avoid compounding division error. Undefined
    only on an all-TN series (zero denominator). beta < 1 weights precision
    higher than recall; beta=0.1 weights precision ten times more.
    """
    beta = exact_param("beta", beta)
    beta_sq = beta * beta
    numerator = (1 + beta_sq) * cm.tp
    denominator = (1 + beta_sq) * cm.tp + beta_sq * cm.fn + cm.fp
    name = "f1" if beta == 1 else "fbeta"
    metric_params = {} if beta == 1 else {"beta": format_fraction(beta)}
    if denominator == 0:
        return MetricValue.undefined(name, **metric_params)
    return MetricValue.from_fraction(name, numerator / denominator, **metric_params)


def f1(cm: ConfusionMatrix) -> MetricValue:
    return f_beta(cm, 1)


class RocPoint(NamedTuple):
    threshold: float
    fpr: float
    tpr: float


class RocCurve(Record):
    """(FPR, TPR) per threshold, sorted by threshold descending.

    Held as three read-only float64 arrays of equal length, checked once
    when built. Includes the synthetic endpoints (0,0) at threshold +inf and
    (1,1) at threshold -inf, so both coordinates sweep monotonically from 0 to 1.
    """

    _fields = ("thresholds", "fpr", "tpr")

    def __init__(self, thresholds: np.ndarray, fpr: np.ndarray, tpr: np.ndarray) -> None:
        self._set(*(_frozen_array(values, np.float64) for values in (thresholds, fpr, tpr)))
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


def roc(
    series: LabeledSeries, alerts: AlertSeries, thresholds: Sequence[float] | None = None
) -> RocCurve:
    """Sweep alert thresholds over scored output; the alert rule is score >= threshold.

    Any attack type counts as positive. Requires at least one attack and
    one benign point (otherwise TPR or FPR has a zero denominator at every
    threshold). Without ``thresholds``, or given ``alerts.values`` itself,
    every distinct score is swept, as ``np.unique`` lists them. Listed
    thresholds are deduplicated; of ``0.0`` and ``-0.0`` the first listed is
    kept. All counts come from one sort of all scores and one of the attack
    scores (Fawcett 2006, Algorithm 1).
    """
    if alerts.kind is not AlertKind.SCORED:
        raise EvaluationError(
            "roc requires scored alerts; boolean alerts already fix an operating "
            "point, score them with evaluate instead"
        )
    require_alignment(series, alerts)
    every = thresholds is None or thresholds is alerts.values
    if not every:
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

    # Sorted as np.unique sorts its copy: a run of equal scores starts with the one it keeps.
    scores = np.sort(alerts.values)
    if every:
        below = np.flatnonzero(np.concatenate(([True], scores[1:] != scores[:-1])))
        swept = scores[below]  # a distinct score's first index counts the scores below it
    else:
        # return_index sorts stably (and, unlike a plain call, skips numpy.ma).
        swept = (requested if np.all(requested[1:] > requested[:-1])
                 else requested[np.unique(requested, return_index=True)[1]])
        below = np.searchsorted(scores, swept, side="left")
    del scores
    # The curve is written in place, descending, into arrays that RocCurve then shares.
    thresholds = np.empty(len(swept) + 2)
    thresholds[0], thresholds[-2:0:-1], thresholds[-1] = np.inf, swept, -np.inf
    hits = np.searchsorted(np.sort(alerts.values[attack]), swept, side="left")
    del swept
    np.subtract(below, hits, out=below)  # the benign scores below each threshold
    fpr, tpr = np.empty_like(thresholds), np.empty_like(thresholds)
    for coords, counts, total in ((fpr, below, n_benign), (tpr, hits, n_attack)):
        np.subtract(total, counts, out=coords[-2:0:-1])  # exact below 2**53: rounds as int / int
        coords[1:-1] /= total
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
    terms = np.zeros(len(x))
    np.subtract(x[1:], x[:-1], out=terms[1:])
    terms[1:] *= y[:-1] + y[1:]  # halved once at the end: exact, as no partial sum is subnormal
    return MetricValue(name="auc", value=float(np.cumsum(terms, out=terms)[-1] / 2.0))


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
