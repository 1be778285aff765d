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
    _run_heads,
    exact_param,
    format_fraction,
    require_alignment,
)


# Thresholds per pass of the ROC sweep's gather and attack counts, and of
# the AUC sum; bounds their transient arrays.
_CHUNK = 1 << 14


def confusion(series: LabeledSeries, alerts: AlertSeries) -> ConfusionMatrix:
    """Count TP/TN/FP/FN by comparing labels and boolean alerts point-to-point.

    Any attack type counts as positive, as in the binary collapse of the series.
    TP is counted on one boolean temporary, the attack points expanded from
    the label runs and then and-ed with the alerts; FN, FP and TN follow.
    """
    if alerts.kind is not AlertKind.BOOLEAN:
        raise EvaluationError("confusion requires boolean alerts, not scores")
    require_alignment(series, alerts)
    hits = series.per_point(series.run_codes > 0)
    tp = int(np.count_nonzero(np.logical_and(hits, alerts.values, out=hits)))
    attacks, alarms = series.attack_points, int(np.count_nonzero(alerts.values))
    return ConfusionMatrix(
        tp=tp, tn=len(series) - attacks - alarms + tp, fp=alarms - tp, fn=attacks - tp
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


def listed_thresholds(thresholds: Sequence[float]) -> np.ndarray:
    """``thresholds`` checked flat, non-empty and finite, ascending with repeats
    dropped; of ``0.0`` and ``-0.0`` the first listed is kept."""
    requested = np.asarray(thresholds, dtype=np.float64)
    if requested.ndim != 1:
        raise ParameterError("thresholds must be a flat sequence of numbers")
    if len(requested) == 0:
        raise ParameterError("at least one threshold is required")
    if not np.all(np.isfinite(requested)):
        raise ParameterError("thresholds must be finite")
    # return_index sorts stably (and, unlike a plain call, skips numpy.ma).
    return (requested if np.all(requested[1:] > requested[:-1])
            else requested[np.unique(requested, return_index=True)[1]])


def roc(
    series: LabeledSeries, alerts: AlertSeries, thresholds: Sequence[float] | None = None
) -> RocCurve:
    """Sweep alert thresholds over scored output; the alert rule is score >= threshold.

    Any attack type counts as positive. Requires at least one attack and
    one benign point (otherwise TPR or FPR has a zero denominator at every
    threshold). Without ``thresholds``, or given ``alerts.values`` itself,
    every distinct score is swept, as ``np.unique`` lists them; listed ones
    are read by ``listed_thresholds``. All counts come from one sort of all
    scores and one of the attack scores (Fawcett 2006, Algorithm 1).
    """
    if alerts.kind is not AlertKind.SCORED:
        raise EvaluationError(
            "roc requires scored alerts; boolean alerts already fix an operating "
            "point, score them with evaluate instead"
        )
    require_alignment(series, alerts)
    every = thresholds is None or thresholds is alerts.values
    swept = None if every else listed_thresholds(thresholds)

    n_attack = series.attack_points
    n_benign = len(series) - n_attack
    if n_attack == 0 or n_benign == 0:
        raise EvaluationError("roc requires both attack and benign points in the labels")

    # Sorted as np.unique sorts its copy: a run of equal scores starts with the one it keeps.
    scores = np.sort(alerts.values)
    if every:
        below = np.flatnonzero(_run_heads(scores))  # a distinct score's first index
    else:
        below = np.searchsorted(scores, swept, side="left")
    # The curve is written in place, descending, into arrays that RocCurve then
    # shares; the sorted copy goes before the coordinates are allocated.
    thresholds = np.empty(len(below) + 2)
    thresholds[0], thresholds[-1] = np.inf, -np.inf
    swept_slots = thresholds[-2:0:-1]
    for start in range(0, len(below), _CHUNK):
        part = slice(start, start + _CHUNK)
        swept_slots[part] = scores[below[part]] if every else swept[part]
    del scores, swept, swept_slots
    fpr = np.empty_like(thresholds)
    fpr[-2:0:-1] = below  # the scores below each threshold, exact below 2**53
    del below
    tpr = np.empty_like(thresholds)
    attack_scores = alerts.values[series.per_point(series.run_codes > 0)]
    attack_scores.sort()  # the gathered copy, in place
    for start in range(1, len(thresholds) - 1, _CHUNK):
        part = slice(start, min(start + _CHUNK, len(thresholds) - 1))
        hits = np.searchsorted(attack_scores, thresholds[part], side="left")
        fpr[part] -= hits  # now the benign scores below each threshold
        tpr[part] = hits
    for coords, total in ((fpr, n_benign), (tpr, n_attack)):
        # Counts below the threshold become coordinates in place; every step on
        # integers is exact, so each rounds as int / int.
        np.subtract(total, coords[1:-1], out=coords[1:-1])
        coords[1:-1] /= total
        coords[0], coords[-1] = 0.0, 1.0
    for array in (thresholds, fpr, tpr):
        array.setflags(write=False)
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr)


def auc(curve: RocCurve) -> MetricValue:
    """Trapezoidal area under the ROC curve (FPR on x, TPR on y).

    The terms are summed left to right from 0.0 with ``np.cumsum``, a chunk
    of ``_CHUNK`` at a time, each chunk's sum starting from the running
    total; ``np.trapezoid`` sums pairwise and would change the last bits.
    """
    x, y = curve.fpr, curve.tpr
    total = 0.0
    for start in range(1, len(x), _CHUNK):
        stop = min(start + _CHUNK, len(x))
        terms = np.empty(stop - start + 1)
        terms[0] = total
        np.subtract(x[start:stop], x[start - 1 : stop - 1], out=terms[1:])
        # Halved once at the end: exact, as no partial sum is subnormal.
        terms[1:] *= y[start - 1 : stop - 1] + y[start:stop]
        total = np.cumsum(terms, out=terms)[-1]
    return MetricValue(name="auc", value=float(total / 2.0))


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
