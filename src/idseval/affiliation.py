"""Affiliation-style precision and recall over per-event zones.

The series span is cut into one zone per attack scenario, bounded by the
midpoints between consecutive scenarios. Within each zone, alerts are judged
by how close they land to the scenario relative to a uniformly random
instant, and the scenario by how close the alerts come to each of its
instants. The zone construction makes every alert count against exactly one
scenario, so a single long alarm cannot claim credit for every attack.

All sets live on a continuous time axis: the inclusive tick interval
``[ts_i, ts_j]`` occupies ``[ts_i, ts_j + 1)``. Every integrand here is
piecewise linear, so integrals are evaluated exactly with the midpoint rule
after splitting at the breakpoints, for all zones at once.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import (
    IntervalsLike,
    LabeledSeries,
    Scenarios,
    ScenariosLike,
    as_intervals,
    float_ticks,
    tick_offsets,
)
from .timeaware import TimeAwareScores, harmonic_f1


class AffiliationZone(NamedTuple):
    """Per-scenario zone with its precision and recall contributions."""

    zone_start: float
    zone_end: float
    event_start: float
    event_end: float
    precision: float | None
    recall: float


# Items per block of arithmetic: blocks bound the temporaries.
_BLOCK = 8192


def _split(lo: np.ndarray, hi: np.ndarray, cuts: np.ndarray, j: np.ndarray):
    """Pieces [lo, hi) with piece j[i] cut at cuts[i] wherever that is strictly
    inside it; j ascends, as do one piece's cuts. Returns lo, hi and the j cut."""
    inside = (lo[j] < cuts) & (cuts < hi[j])
    j, cuts = j[inside], cuts[inside]
    return np.insert(lo, j + 1, cuts), np.insert(hi, j, cuts), j


def _recall_sums(lo, hi, start, stop, a, b, z0, z1) -> np.ndarray:
    """Each zone's closeness credit integrated over its event.

    Takes ``affiliation``'s arrays: zone k's pieces are lo/hi[start[k]:stop[k]].
    Each event instant t scores the probability that a uniform instant of the
    zone lies at least as far from t as the nearest alert does. The distance
    to the alerts is linear between alert bounds and the midpoints of the
    gaps; the credit has further kinks where t +- d(t) crosses a zone bound.
    Only the pieces that overlap an event, and one on either side, are
    nearest to one of its instants or put a breakpoint into it.
    """
    alerted = np.flatnonzero(stop > start)
    near = np.maximum(np.searchsorted(hi, a, side="left") - 1, start)
    count = np.maximum(np.minimum(np.searchsorted(lo, b, side="right") + 1, stop) - near, 0)
    zone, stop = np.repeat(np.arange(len(a)), count), np.cumsum(count)
    piece = np.arange(len(zone)) + (near - stop + count)[zone]
    lo, hi = lo[piece], hi[piece]

    def dist_to_alerts(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Distance from each instant of zone k's event to that zone's pieces."""
        i = np.minimum(np.searchsorted(lo, t, side="right"), stop[k]) - 1
        held = i >= stop[k] - count[k]
        prev_end = hi[i]
        before = np.where(held, t - prev_end, np.inf)
        after = np.where(i + 1 < stop[k], lo[np.minimum(i + 1, len(lo) - 1)] - t, np.inf)
        return np.where(held & (t < prev_end), 0.0, np.minimum(before, after))

    gap = zone[:-1] == zone[1:]
    cuts = np.concatenate((a[alerted], b[alerted], lo, hi, (hi[:-1] + lo[1:])[gap] / 2.0))
    k = np.concatenate((alerted, alerted, zone, zone, zone[:-1][gap]))
    keep = (a[k] <= cuts) & (cuts <= b[k])
    cuts, k = cuts[keep], k[keep]
    order = np.lexsort((cuts, k))
    cuts, k = cuts[order], k[order]
    fresh = np.ones(len(cuts), dtype=bool)
    fresh[1:] = (cuts[1:] != cuts[:-1]) | (k[1:] != k[:-1])
    cuts, k = cuts[fresh], k[fresh]
    pair = k[:-1] == k[1:]
    rows_lo, rows_hi, rows_zone = cuts[:-1][pair], cuts[1:][pair], k[:-1][pair]
    # Blocks of whole zones bound the temporaries; each zone is summed in one.
    starts = list(dict.fromkeys(np.searchsorted(rows_zone, rows_zone[::_BLOCK]).tolist()))
    sums = np.zeros(len(a))
    for s, e in zip(starts, starts[1:] + [len(rows_zone)]):
        p, q, k = rows_lo[s:e], rows_hi[s:e], rows_zone[s:e]
        dp, dq = dist_to_alerts(p, k), dist_to_alerts(q, k)
        slope = (dq - dp) / (q - p)
        intercept = dp - slope * p
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.where(slope != -1.0, (z1[k] - intercept) / (1.0 + slope), p)
            lower = np.where(slope != 1.0, (z0[k] + intercept) / (1.0 - slope), p)
        upper, lower = (np.where((p < cut) & (cut < q), cut, p) for cut in (upper, lower))
        first_cut, second_cut = np.minimum(upper, lower), np.maximum(upper, lower)
        pp = np.stack([p, first_cut, second_cut], axis=1).ravel()
        qq = np.stack([first_cut, second_cut, q], axis=1).ravel()
        k = np.repeat(k, 3)
        mid = (pp + qq) / 2.0
        d = dist_to_alerts(mid, k)
        excluded = np.maximum(0.0, np.minimum(z1[k], mid + d) - np.maximum(z0[k], mid - d))
        sums += np.bincount(k, (qq - pp) * (1.0 - excluded / (z1 - z0)[k]), minlength=len(a))
    return sums


def affiliation(
    scenarios: ScenariosLike,
    alert_intervals: IntervalsLike,
    series: LabeledSeries,
) -> tuple[TimeAwareScores, list[AffiliationZone]]:
    """Zone-based precision and recall for a set of alert intervals.

    Precision averages the per-zone alert closeness over the zones that
    contain alerts, and is Undefined when no alerts exist at all. Recall
    averages over every zone, counting alert-free zones as 0. Both are
    Undefined when the series has no attack scenarios.
    """
    scenario_runs = Scenarios.of(scenarios).runs
    alerts = as_intervals(alert_intervals, "alert")
    if not len(scenario_runs):
        return TimeAwareScores(None, None, None), []

    # Spans count from the first tick, so the scores depend only on differences
    # of ticks; the zones returned count ticks as float_ticks does.
    a = tick_offsets(series, scenario_runs.starts)
    b = tick_offsets(series, scenario_runs.ends) + 1.0
    bounds = np.concatenate(([0.0], (b[:-1] + a[1:]) / 2.0, tick_offsets(series, [-1]) + 1.0))
    z0, z1 = bounds[:-1], bounds[1:]
    # Alert spans cut at the zone bounds inside them are the alerts clipped
    # to their zones: one sorted, disjoint array of pieces, zone k's pieces
    # being lo[start[k]:stop[k]]. Each zone's terms are summed left to right
    # from 0.0, as bincount adds. All terms are >= 0, so the zero-width
    # pieces that a zone-by-zone evaluation makes would add nothing.
    lo, hi = tick_offsets(series, alerts.starts), tick_offsets(series, alerts.ends) + 1.0
    j = np.searchsorted(hi, bounds[1:-1], side="right")
    lo, hi, _ = _split(lo, hi, bounds[1:-1][j < len(hi)], j[j < len(hi)])
    stop = np.searchsorted(lo, z1, side="left")
    start = np.concatenate(([0], stop[:-1]))
    mass = np.bincount(np.repeat(np.arange(len(z0)), stop - start), hi - lo, minlength=len(z0))
    recalls = (_recall_sums(lo, hi, start, stop, a, b, z0, z1) / (b - a)).tolist()

    # Precision: the credit of an instant t is the probability that a uniform
    # instant of the zone is at least as far from the event. It is linear
    # between the kinks a, b, a + b - z1 and a + b - z0, so each piece is cut
    # where a kink of its zone falls strictly inside it and integrated exactly
    # at its midpoint. Zones holding no alert mass express no opinion.
    kinks = np.sort(np.stack([a, b, a + b - z1, a + b - z0], axis=1), axis=1)[stop > start]
    kink_zone = np.repeat(np.flatnonzero(stop > start), 4)
    j = np.searchsorted(hi, kinks.ravel(), side="right")
    j = np.minimum(np.maximum(j, start[kink_zone]), stop[kink_zone] - 1)
    lo, hi, j = _split(lo, hi, kinks.ravel(), j)
    k = np.repeat(np.arange(len(z0)), np.diff(stop + np.searchsorted(j, stop), prepend=0))
    for s in range(0, len(lo), _BLOCK):
        # Each block of hi is overwritten with its pieces' terms.
        i = slice(s, s + _BLOCK)
        t, ak, bk = (lo[i] + hi[i]) / 2.0, a[k[i]], b[k[i]]
        d = np.where(t < ak, ak - t, np.where(t > bk, t - bk, 0.0))
        closer = np.maximum(0.0, np.minimum(z1[k[i]], bk + d) - np.maximum(z0[k[i]], ak - d))
        hi[i] -= lo[i]
        hi[i] *= np.where(d == 0.0, 1.0, 1.0 - closer / (z1 - z0)[k[i]])
    with np.errstate(invalid="ignore"):
        held = np.bincount(k, hi, minlength=len(z0)) / mass
    precisions = np.where(mass == 0.0, None, held).tolist()
    del lo, hi, k  # the pieces are not needed while the zones are built
    opinions = [p for p in precisions if p is not None]
    precision = sum(opinions) / len(opinions) if opinions else None
    recall = sum(recalls) / len(recalls)
    scores = TimeAwareScores(precision, recall, harmonic_f1(precision, recall))
    zones = (np.stack((z0, z1, a, b)) + float_ticks(series, [0])).tolist()
    return scores, list(map(AffiliationZone, *zones, precisions, recalls))
