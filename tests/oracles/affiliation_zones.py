"""Affiliation's float arithmetic one zone at a time, as a bit-identity reference.

This is the per-zone implementation that ``idseval.affiliation`` used before
it worked on all zones at once, kept verbatim. It evaluates every zone with
its own numpy calls and sums each zone's terms left to right, so the fast
code must reproduce its scores and zone fields bit for bit, not only within
a tolerance. ``affiliation_oracle`` stays the exact rational reference.
"""

from __future__ import annotations

import numpy as np

from idseval.affiliation import AffiliationZone
from idseval.model import (
    AttackScenario,
    Intervals,
    IntervalsLike,
    LabeledSeries,
    as_intervals,
    float_ticks,
)
from idseval.timeaware import TimeAwareScores, harmonic_f1


def _ordered_sum(terms: np.ndarray) -> float:
    """Left-to-right float sum of ``terms`` (``np.sum`` would pair them up)."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def _dist_to_event(t: np.ndarray, a: float, b: float) -> np.ndarray:
    """Distance from each instant to the event span [a, b)."""
    return np.where(t < a, a - t, np.where(t > b, t - b, 0.0))


def _dist_to_alerts(t: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Distance from each instant to a sorted disjoint union of alert spans."""
    i = np.searchsorted(starts, t, side="right") - 1
    prev_end = ends[np.maximum(i, 0)]
    before = np.where(i >= 0, t - prev_end, np.inf)
    after = np.where(i + 1 < len(starts), starts[np.minimum(i + 1, len(starts) - 1)] - t, np.inf)
    return np.where((i >= 0) & (t < prev_end), 0.0, np.minimum(before, after))


def _split(lo: np.ndarray, hi: np.ndarray, cuts: list) -> tuple[np.ndarray, np.ndarray]:
    """Pieces of each [lo, hi) split at those ``cuts`` lying strictly inside it.

    Row ``k`` of the result lists the pieces of ``[lo[k], hi[k])`` in order;
    cuts outside a piece become zero-width pieces, which add nothing to an
    integral.
    """
    inner = [np.where((lo < cut) & (cut < hi), cut, lo) for cut in cuts]
    points = np.sort(np.stack([lo, *inner, hi], axis=1), axis=1)
    return points[:, :-1], points[:, 1:]


def _zone_precision(
    lo: np.ndarray, hi: np.ndarray, a: float, b: float, z0: float, z1: float
) -> float | None:
    """Average closeness credit of the alert mass inside one zone.

    The credit of an instant t is the probability that a uniform instant of
    the zone is at least as far from the event. It is linear between the
    kinks a, b, a + b - z1 and a + b - z0, so each piece between them is
    integrated exactly at its midpoint. Returns None when the zone holds no
    alert mass; such zones express no opinion about precision and are left
    out of the overall mean.
    """
    mass = _ordered_sum(hi - lo)
    if mass == 0.0:
        return None
    p, q = _split(lo, hi, [a, b, a + b - z1, a + b - z0])
    t = (p + q) / 2.0
    d = _dist_to_event(t, a, b)
    closer = np.maximum(0.0, np.minimum(z1, b + d) - np.maximum(z0, a - d))
    credit = np.where(d == 0.0, 1.0, 1.0 - closer / (z1 - z0))
    return _ordered_sum(((q - p) * credit).ravel()) / mass


def _zone_recall(
    lo: np.ndarray, hi: np.ndarray, a: float, b: float, z0: float, z1: float
) -> float:
    """Average closeness credit the zone's alerts earn across the event.

    Each event instant t scores the probability that a uniform instant of the
    zone lies at least as far from t as the nearest alert does. A zone
    without alerts scores 0.
    """
    if len(lo) == 0:
        return 0.0
    length = z1 - z0
    # The distance to the alerts is linear between alert bounds and the
    # midpoints of the gaps; the credit has further kinks where t +- d(t)
    # crosses a zone bound.
    cuts = np.concatenate(([a, b], lo, hi, (hi[:-1] + lo[1:]) / 2.0))
    ordered = np.unique(cuts[(a <= cuts) & (cuts <= b)])
    p, q = ordered[:-1], ordered[1:]
    dp = _dist_to_alerts(p, lo, hi)
    dq = _dist_to_alerts(q, lo, hi)
    slope = (dq - dp) / (q - p)
    intercept = dp - slope * p
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = np.where(slope != -1.0, (z1 - intercept) / (1.0 + slope), p)
        lower = np.where(slope != 1.0, (z0 + intercept) / (1.0 - slope), p)
    pp, qq = _split(p, q, [upper, lower])
    mid = (pp + qq) / 2.0
    d = _dist_to_alerts(mid, lo, hi)
    excluded = np.maximum(0.0, np.minimum(z1, mid + d) - np.maximum(z0, mid - d))
    return _ordered_sum(((qq - pp) * (1.0 - excluded / length)).ravel()) / (b - a)


def affiliation_zones(
    scenarios: list[AttackScenario],
    alert_intervals: IntervalsLike,
    series: LabeledSeries,
) -> tuple[TimeAwareScores, list[AffiliationZone]]:
    """Zone-based precision and recall, evaluated one zone at a time."""
    scenario_runs = Intervals.of_scenarios(scenarios)
    alerts = as_intervals(alert_intervals, "alert")
    if not scenarios:
        return TimeAwareScores(None, None, None), []

    ts = series.timestamps
    event_lo, event_hi = scenario_runs.spans(ts)
    alert_lo, alert_hi = alerts.spans(ts)
    t0, t_last = float_ticks(ts, [0, -1])
    bounds = np.concatenate(([t0], (event_hi[:-1] + event_lo[1:]) / 2.0, [t_last + 1.0]))
    # Alert spans are sorted and disjoint, so both their ends and their
    # starts ascend: a zone's alerts are one slice.
    first = np.searchsorted(alert_hi, bounds[:-1], side="right")
    stop = np.searchsorted(alert_lo, bounds[1:], side="left")

    zones: list[AffiliationZone] = []
    for a, b, z0, z1, i, j in zip(
        event_lo.tolist(), event_hi.tolist(), bounds[:-1].tolist(), bounds[1:].tolist(),
        first.tolist(), stop.tolist(),
    ):
        lo = np.maximum(alert_lo[i:j], z0)
        hi = np.minimum(alert_hi[i:j], z1)
        zones.append(
            AffiliationZone(
                zone_start=z0,
                zone_end=z1,
                event_start=a,
                event_end=b,
                precision=_zone_precision(lo, hi, a, b, z0, z1),
                recall=_zone_recall(lo, hi, a, b, z0, z1),
            )
        )

    opinions = [z.precision for z in zones if z.precision is not None]
    precision = sum(opinions) / len(opinions) if opinions else None
    recall = sum(z.recall for z in zones) / len(zones)
    scores = TimeAwareScores(
        precision_like=precision,
        recall_like=recall,
        f1_like=harmonic_f1(precision, recall),
    )
    return scores, zones
