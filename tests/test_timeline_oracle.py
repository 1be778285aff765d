"""Array-backed SVG timeline against the per-rect reference.

``oracles/timeline_oracle.py`` keeps the renderer idseval began with: a
Python loop widens each short run and each ``<rect>`` is one f-string. The
numpy renderer must write the same SVG text and the same lane metadata
(the oracle's tuples as float64 and bool arrays, compared bit for bit, so a
``-0.0`` would show) for gapped and negative ticks (with gaps wide enough
to hit the 0.01 px floor on rect widths), any minimum width, runs at either
edge of the series, exempt and empty lanes, a one-point series and names
that need escaping, with the ``<rect>`` rows split into chunks of any size,
and ties at the second decimal that ``'%.2f'`` must round as Python does.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idseval import AlertSeries, LabeledSeries, TimelineLane, floattext, report, render_timeline
from oracles import timeline_oracle
from support import lane_bits

NAMES = ("plain", "a&b", "<x>", "x > y & z < w", "ü-détecteur", "&amp;")
LABELS = ("benign", "dos", "scan")


def as_arrays(lane: TimelineLane) -> TimelineLane:
    """The oracle's tuple lane in the array form that ``render_timeline`` returns."""
    def spans(pairs):
        return np.array(pairs, dtype=np.float64).reshape(-1, 2)

    return TimelineLane(
        lane.name, lane.kind, spans(lane.true_spans), spans(lane.drawn_spans),
        np.array(lane.widened, dtype=bool),
    )


def assert_same_rendering(series, alerts, min_width, exempt=(), rows=None) -> None:
    with mock.patch.object(report, "_ROWS", rows or report._ROWS):
        got = render_timeline(series, alerts, min_width, exempt)
    expected = timeline_oracle.render_timeline(series, alerts, min_width, exempt)
    expected_lanes = tuple(map(as_arrays, expected.lanes))
    assert got.svg == expected.svg
    assert got.lanes == expected_lanes
    assert lane_bits(got.lanes) == lane_bits(expected_lanes)
    for lane in got.lanes:
        for array, dtype in ((lane.true_spans, np.float64), (lane.drawn_spans, np.float64),
                             (lane.widened, np.bool_)):
            assert array.dtype == dtype and not array.flags.writeable
        assert lane.drawn_spans.shape == lane.true_spans.shape == (len(lane.widened), 2)
    assert got.min_width_ticks == expected.min_width_ticks


@st.composite
def timelines(draw):
    n = draw(st.integers(1, 40))
    first = draw(st.sampled_from((0, -7, 5, -(10**6), 2**40)))
    # A gap of 10**5 ticks makes a one-tick rect narrower than the 0.01 px floor.
    gaps = draw(st.lists(st.integers(1, 5) | st.just(10**5), min_size=n - 1, max_size=n - 1))
    timestamps = np.cumsum([first, *gaps]).tolist()
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    name = draw(st.sampled_from(("series", "a & <b>", "plant>1")))
    tick = draw(st.sampled_from((1, 10, "1/3")))
    series = LabeledSeries.from_labels(name, timestamps, labels, tick)
    detectors = draw(st.lists(st.sampled_from(NAMES), max_size=4, unique=True))
    alerts = []
    for detector in detectors:
        values = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        # Runs touching either edge, and an empty lane, on purpose as well.
        if draw(st.booleans()):
            values[0] = True
        if draw(st.booleans()):
            values[-1] = True
        if draw(st.integers(0, 5)) == 0:
            values = [False] * n
        alerts.append(AlertSeries.from_bool(detector, values, name))
    exempt = draw(st.lists(st.sampled_from(detectors), unique=True)) if detectors else []
    min_width = draw(
        st.sampled_from((0, 0.5, 1, 2.5, 3, Fraction(7, 3), 10**6))
        | st.floats(0, 3 * (timestamps[-1] - timestamps[0] + 1), allow_nan=False)
    )
    rows = draw(st.sampled_from((1, 2, 3, None)))
    return series, alerts, min_width, exempt, rows


@settings(max_examples=300, deadline=None)
@given(timelines())
def test_matches_reference_renderer(case):
    assert_same_rendering(*case)


@pytest.mark.parametrize("min_width", [0, 0.5, 1, 4, 1e9])
def test_one_point_series(min_width):
    series = LabeledSeries.from_labels("one", [-3], ["dos"])
    alerts = [
        AlertSeries.from_bool("on", [True], "one"),
        AlertSeries.from_bool("off", [False], "one"),
    ]
    assert_same_rendering(series, alerts, min_width)
    assert_same_rendering(series, alerts, min_width, exempt=["on"])


@pytest.mark.parametrize("rows", [1, 2, 7, None])
def test_wider_than_the_series_with_runs_at_both_edges(rows):
    labels = ["dos", "benign", "benign", "scan", "scan", "benign", "dos"]
    series = LabeledSeries.from_labels("edges", [-4, -2, 0, 1, 5, 6, 9], labels)
    values = [True, False, True, False, False, True, True]
    alerts = [AlertSeries.from_bool(name, values, "edges") for name in ("a&b", "<x>", "c")]
    for min_width in (0, 0.75, 2, Fraction(5, 2), 13, 14, 100):
        assert_same_rendering(series, alerts, min_width, exempt=["<x>"], rows=rows)


def test_dense_lane_across_many_chunks():
    rng = np.random.default_rng(3)
    n = 5000
    timestamps = np.cumsum(rng.integers(1, 4, n)).tolist()
    labels = rng.choice(LABELS, n, p=(0.9, 0.05, 0.05)).tolist()
    series = LabeledSeries.from_labels("dense", timestamps, labels)
    alerts = [
        AlertSeries.from_bool("random", rng.random(n) < 0.5, "dense"),
        AlertSeries.from_bool("sparse", rng.random(n) < 0.01, "dense"),
    ]
    assert_same_rendering(series, alerts, 6, rows=97)
    assert_same_rendering(series, alerts, 6, exempt=["random"], rows=1000)


@pytest.mark.parametrize("min_width", [0, 2.5, 3])
def test_gapped_ticks_near_2_53_reach_the_fallback(min_width):
    """A span of 128 ticks makes a tick 5.625 px, so x and width land on ties at
    the second decimal, left to ``'%.2f'``; the last tick is 2**53 - 1."""
    base = 2**53 - 128
    timestamps = [base + gap for gap in (0, 1, 3, 8, 16, 17, 40, 64, 100, 127)]
    labels = ["benign", "dos", "dos", "benign", "scan", "benign", "dos", "dos", "benign", "benign"]
    series = LabeledSeries.from_labels("big", timestamps, labels)
    values = [True, False, True, True, False, True, False, True, True, False]
    alerts = [AlertSeries.from_bool("d", values, "big")]
    fill, uncertified = floattext._fill_fixed2, []

    def spy(x, out, lengths):
        certified = fill(x, out, lengths)
        uncertified.append(int(np.count_nonzero(~certified)))
        return certified

    with mock.patch.object(floattext, "_fill_fixed2", spy):
        assert_same_rendering(series, alerts, min_width)
    assert sum(uncertified) > 0
