"""eTaPR and affiliation on dense alert streams against the exact oracles.

Criterion 5's instances hold at most 8 alert runs, so the per-zone slicing of
affiliation and the per-length grouping of eTaPR see little there. These
instances hold hundreds of runs across several zones, on contiguous and on
gapped timestamps. Each one also has a zone without alerts, a run covering a
whole zone, and runs that end or start exactly on a zone bound.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from idseval import (
    EtaParams,
    affiliation,
    alerts_to_intervals,
    etapr,
    extract_scenarios,
)
from oracles.affiliation_oracle import affiliation_oracle
from oracles.eta_oracle import eta_oracle
from support import make_alerts, make_series, random_intervals

ETA_PARAMS = [
    (Fraction(1, 2), Fraction(1, 10), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(2, 7), Fraction(1, 3)),
    (Fraction(1), Fraction(1), Fraction(9, 10)),
    (Fraction(0), Fraction(0), Fraction(1, 4)),
]


ZONES, BLOCK = 20, 80
EMPTY_ZONE, FULL_ZONE = 4, 13


def dense_instance(seed: int, gapped: bool, zones: int = ZONES, block: int = BLOCK):
    """Labels, scenario index spans, timestamps, zone bounds and alerts.

    Zone k's scenario lies in points ``[k * block, (k + 1) * block)``. Some
    zone bounds are put on a tick with a tick right before it, and the
    alerts there are set to end or to start exactly on the bound.
    """
    rng = random.Random(seed)
    n = zones * block
    attacks = []
    for k in range(zones):
        start = k * block + rng.randint(block // 8, block // 2)
        attacks.append((start, start + rng.randint(block // 16, 3 * block // 8)))
    # Bounds that land on a tick: all of them at unit steps, else every other
    # one and the two of the empty zone.
    if gapped:
        on_tick = set(range(0, zones - 1, 2)) | {EMPTY_ZONE - 1, EMPTY_ZONE}
    else:
        on_tick = set(range(zones - 1))
    ts = [0]
    for i in range(1, n):
        step = rng.choice([1, 1, 1, 2, 3, 10]) if gapped else 1
        # Only scenario i // block or (i + 1) // block can start at i or i + 1.
        for k in on_tick & {i // block - 1, (i + 1) // block - 1}:
            (_, prev_end), (next_start, next_end) = attacks[k], attacks[k + 1]
            if not gapped and i == next_start and (prev_end + 1 + next_start) % 2:
                # Start the event one point later: the midpoint becomes a tick.
                attacks[k + 1] = (next_start + 1, next_end)
            elif gapped and i == next_start - 1:
                step = 1
            elif gapped and i == next_start:
                # The midpoint of [ts[e] + 1, ts[s]) becomes ts[s - 1].
                step = ts[-1] - ts[prev_end] - 1
        ts.append(ts[-1] + step)
    bounds = [
        Fraction(ts[prev_end] + 1 + ts[next_start], 2)
        for (_, prev_end), (next_start, _) in zip(attacks, attacks[1:])
    ]
    index_of = {t: i for i, t in enumerate(ts)}
    labels = ["benign"] * n
    for k, (start, end) in enumerate(attacks):
        labels[start : end + 1] = ["dos" if k % 2 else "spoof"] * (end - start + 1)

    alerts = [rng.random() < 0.5 for _ in range(n)]
    edges = [Fraction(ts[0])] + bounds + [Fraction(ts[-1] + 1)]
    z0, z1 = edges[FULL_ZONE], edges[FULL_ZONE + 1]
    first = max(i for i, t in enumerate(ts) if t <= z0)
    last = min(i for i, t in enumerate(ts) if t + 1 >= z1)
    alerts[first : last + 1] = [True] * (last + 1 - first)
    for i, t in enumerate(ts):
        # Point i occupies [t, t + 1).
        if edges[EMPTY_ZONE] < t + 1 and t < edges[EMPTY_ZONE + 1]:
            alerts[i] = False
    # Around the empty zone a run ends on its start and one starts on its
    # end; elsewhere runs alternately end and start on a bound.
    ends_on, starts_on = (True, False), (False, True)
    forced = {EMPTY_ZONE - 1: ends_on, EMPTY_ZONE: starts_on}
    others = sorted(on_tick - {EMPTY_ZONE - 1, EMPTY_ZONE, FULL_ZONE - 1, FULL_ZONE})
    for turn, k in enumerate(others):
        forced[k] = starts_on if turn % 2 else ends_on
    for k, pair in forced.items():
        i = index_of[bounds[k]]
        assert ts[i - 1] == bounds[k] - 1
        alerts[i - 1], alerts[i] = pair
    series = make_series(labels, timestamps=ts)
    return series, attacks, ts, bounds, make_alerts(alerts)


INSTANCES = [
    pytest.param(seed, gapped, id=f"{'gapped' if gapped else 'contiguous'}-{seed}")
    for seed, gapped in [(11, False), (12, False), (13, True), (14, True)]
]


@pytest.mark.parametrize("seed,gapped", INSTANCES)
def test_dense_instance_has_the_edge_cases(seed, gapped):
    series, attacks, ts, bounds, alerts = dense_instance(seed, gapped)
    runs = alerts_to_intervals(alerts, series)
    assert len(runs) >= 200
    assert len(extract_scenarios(series)) == ZONES
    lo, hi = runs.spans(series.timestamps)
    assert any(b in set(hi.tolist()) for b in bounds)
    assert any(b in set(lo.tolist()) for b in bounds)
    _, zones = affiliation(extract_scenarios(series), runs, series)
    empty, full = zones[EMPTY_ZONE], zones[FULL_ZONE]
    assert empty.precision is None and empty.recall == 0.0
    assert empty.zone_start in hi and empty.zone_end in lo
    assert ((lo <= full.zone_start) & (full.zone_end <= hi)).any()


@pytest.mark.parametrize("seed,gapped", INSTANCES)
def test_dense_etapr_is_exactly_the_oracle(seed, gapped):
    series, attacks, _, _, alerts = dense_instance(seed, gapped)
    scenarios = extract_scenarios(series)
    runs = alerts_to_intervals(alerts, series)
    for theta_p, theta_r, weight in ETA_PARAMS:
        got = etapr(
            scenarios, runs,
            EtaParams(theta_p=theta_p, theta_r=theta_r, detection_weight=weight),
        )
        want = eta_oracle(attacks, list(runs), theta_p, theta_r, weight)
        assert got.precision_like == float(want[0])
        assert got.recall_like == float(want[1])
        assert got.f1_like == pytest.approx(float(want[2]), abs=1e-12)
        # The same pairs given as a plain list score the same.
        assert etapr(
            scenarios, list(runs),
            EtaParams(theta_p=theta_p, theta_r=theta_r, detection_weight=weight),
        ) == got


@pytest.mark.parametrize("seed,gapped", INSTANCES)
def test_dense_affiliation_matches_the_oracle(seed, gapped):
    series, attacks, ts, _, alerts = dense_instance(seed, gapped)
    runs = alerts_to_intervals(alerts, series)
    scores, _ = affiliation(extract_scenarios(series), runs, series)

    def spans(intervals):
        return [(Fraction(ts[a]), Fraction(ts[b]) + 1) for a, b in intervals]

    want = affiliation_oracle(
        spans(attacks), spans(runs), (Fraction(ts[0]), Fraction(ts[-1]) + 1)
    )
    got = (scores.precision_like, scores.recall_like, scores.f1_like)
    for value, expected in zip(got, want):
        assert value == pytest.approx(float(expected), abs=1e-9)


@pytest.mark.parametrize("gapped", [False, True], ids=["contiguous", "gapped"])
def test_scenario_dense_affiliation_matches_the_oracle(gapped):
    """Five hundred zones, each checked against the oracle on its own zone.

    Given one event, the oracle's only zone is the span it is handed, so
    each zone's values come from the zone's event, bounds and the alert runs
    that reach into it. The overall scores are the exact means of those.
    """
    zones = 500
    series, attacks, ts, bounds, alerts = dense_instance(15 + gapped, gapped, zones, block=32)
    runs = alerts_to_intervals(alerts, series)
    scenarios = extract_scenarios(series)
    assert len(scenarios) == zones and len(runs) >= 3 * zones
    scores, got = affiliation(scenarios, runs, series)

    def spans(intervals):
        return [(Fraction(ts[a]), Fraction(ts[b]) + 1) for a, b in intervals]

    run_spans = spans(runs)
    run_starts, run_ends = [lo for lo, _ in run_spans], [hi for _, hi in run_spans]
    edges = [Fraction(ts[0]), *bounds, Fraction(ts[-1]) + 1]
    precisions, recalls = [], []
    for zone, event, z0, z1 in zip(got, spans(attacks), edges, edges[1:]):
        assert (zone.zone_start, zone.zone_end) == (z0, z1)
        assert (zone.event_start, zone.event_end) == event
        near = run_spans[bisect_right(run_ends, z0) : bisect_left(run_starts, z1)]
        precision, recall, _ = affiliation_oracle([event], near, (z0, z1))
        if precision is None:
            assert zone.precision is None
        else:
            assert zone.precision == pytest.approx(float(precision), abs=1e-9)
            precisions.append(precision)
        assert zone.recall == pytest.approx(float(recall), abs=1e-9)
        recalls.append(recall)
    assert got[EMPTY_ZONE].precision is None
    want = (sum(precisions) / len(precisions), sum(recalls) / len(recalls))
    assert scores.precision_like == pytest.approx(float(want[0]), abs=1e-9)
    assert scores.recall_like == pytest.approx(float(want[1]), abs=1e-9)
