"""Affiliation over all zones at once, bit for bit against the per-zone code.

``oracles/affiliation_zones.py`` evaluates one zone at a time and sums each
zone's terms left to right. Reports print affiliation values as full
``repr``s, so the array code must match it exactly, not within a tolerance.
"""

from __future__ import annotations

import importlib
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idseval import affiliation, alerts_to_intervals, extract_scenarios
from idseval.model import LabeledSeries
from oracles.affiliation_zones import affiliation_zones
from support import make_alerts

affiliation_module = importlib.import_module("idseval.affiliation")

# Origins of TestTicksPastFloatPrecision: ticks past 2**53 count from the first.
ORIGINS = [0, 10**18, -(2**63), 2**63 - 100, 2**53]

# Label runs as (code, length): code 0 is benign, 1 and 2 are two attack
# types, so two attack runs in a row are adjacent scenarios.
label_runs = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 9)), min_size=1, max_size=12)
alert_runs = st.lists(st.tuples(st.booleans(), st.integers(1, 14)), max_size=14)


def instance(labels, alerts, origin, steps):
    codes = np.repeat([code for code, _ in labels], [length for _, length in labels])
    n = len(codes)
    gaps = np.resize(np.asarray(steps or [1], dtype=np.int64), n)
    gaps[0] = 0
    offsets = np.cumsum(gaps)
    origin = min(origin, 2**63 - 1 - int(offsets[-1]))
    series = LabeledSeries("series", origin + offsets, codes, ("dos", "spoof"))
    values = np.zeros(n, dtype=bool)
    if alerts:
        fired = np.repeat([on for on, _ in alerts], [length for _, length in alerts])[:n]
        values[: len(fired)] = fired
    return series, make_alerts(values)


def zone_fields(zones):
    return [
        (z.zone_start, z.zone_end, z.event_start, z.event_end, repr(z.precision), repr(z.recall))
        for z in zones
    ]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    labels=label_runs,
    alerts=alert_runs,
    origin=st.sampled_from(ORIGINS),
    steps=st.lists(st.sampled_from([1, 1, 2, 3, 10]), max_size=8),
)
# Adjacent scenarios, one alert across all of them.
@example(labels=[(0, 2), (1, 3), (2, 3), (1, 1), (0, 2)], alerts=[(True, 20)], origin=0, steps=[])
# Alerts ending and starting on an event bound and on zone bounds, a zone
# without alerts, and the series' ends.
@example(
    labels=[(1, 2), (0, 3), (2, 2), (0, 4), (1, 2), (0, 5), (2, 1)],
    alerts=[(True, 2), (False, 1), (True, 3), (False, 8), (True, 5)],
    origin=2**53, steps=[1, 3],
)
# Adjacent scenarios where only the later zone's alerts touch the shared
# bound: the earlier zone's distances must not see them.
@example(labels=[(1, 3), (2, 3)], alerts=[(True, 1), (False, 2), (True, 3)], origin=0, steps=[])
# A gap between two zones' alerts whose midpoint falls in the first event:
# it is no breakpoint there, and an extra split would change the rounding.
@example(
    labels=[(0, 2), (1, 5), (2, 7), (0, 3)],
    alerts=[(True, 3), (False, 5), (True, 6)],
    origin=0, steps=[1, 3, 1, 10],
)
# A one-point series, attacked and alerted, at the far ends of int64.
@example(labels=[(1, 1)], alerts=[(True, 1)], origin=-(2**63), steps=[])
@example(labels=[(2, 1)], alerts=[], origin=2**63 - 100, steps=[])
def test_bit_equal_to_the_zone_loop(labels, alerts, origin, steps):
    series, alert_series = instance(labels, alerts, origin, steps)
    scenarios = extract_scenarios(series)
    runs = alerts_to_intervals(alert_series, series)
    want_scores, want_zones = affiliation_zones(scenarios, runs, series)
    # Blocks of 3 sub-pieces put block edges inside zones and between cuts.
    for block in (affiliation_module._BLOCK, 3):
        with mock.patch.object(affiliation_module, "_BLOCK", block):
            scores, zones = affiliation(scenarios, runs, series)
        assert repr(scores) == repr(want_scores)
        assert zone_fields(zones) == zone_fields(want_zones)
        assert zones == want_zones


def test_bincount_adds_each_group_left_to_right():
    """Per-zone sums rely on ``np.bincount`` adding weights in input order.

    The weights are chosen so that pairwise summation (``np.sum``) gives a
    different result; if numpy ever changes how bincount adds, this fails
    before any report changes.
    """
    rng = np.random.default_rng(2024)
    groups = 7
    ids = rng.integers(0, groups, size=20_000)
    weights = rng.random(20_000) * 10.0 ** rng.integers(-8, 9, size=20_000)
    sums = np.bincount(ids, weights=weights, minlength=groups)
    pairwise_differs = 0
    for g in range(groups):
        w = weights[ids == g]
        assert sums[g].tobytes() == np.cumsum(w)[-1].tobytes(), g
        pairwise_differs += np.sum(w) != np.cumsum(w)[-1]
    assert pairwise_differs > 0
    assert np.bincount(ids[:0], weights=weights[:0], minlength=groups).tolist() == [0.0] * groups
