"""Affiliation precision/recall against exact rational integration oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from idseval import affiliation, extract_scenarios
from oracles.affiliation_oracle import affiliation_oracle
from support import labels_from_intervals, make_series, random_intervals


def build(n, attacks, alerts, timestamps=None):
    series = make_series(labels_from_intervals(n, attacks), timestamps=timestamps)
    return affiliation(extract_scenarios(series), alerts, series), series


def oracle_spans(intervals, timestamps):
    return [
        (Fraction(timestamps[a]), Fraction(timestamps[b]) + 1) for a, b in intervals
    ]


class TestHandCases:
    def test_exact_match_scores_one(self):
        (scores, zones), _ = build(10, [(2, 6)], [(2, 6)])
        assert scores.precision_like == pytest.approx(1.0, abs=1e-12)
        assert scores.recall_like == pytest.approx(1.0, abs=1e-12)
        assert scores.f1_like == pytest.approx(1.0, abs=1e-12)
        assert len(zones) == 1

    def test_alert_inside_event_gives_precision_one(self):
        (scores, _), _ = build(20, [(5, 14)], [(8, 9)])
        assert scores.precision_like == pytest.approx(1.0, abs=1e-12)
        assert scores.recall_like < 1.0

    def test_no_alerts_precision_undefined_recall_zero(self):
        (scores, zones), _ = build(10, [(2, 6)], [])
        assert scores.precision_like is None
        assert scores.recall_like == 0.0
        assert scores.f1_like is None
        assert zones[0].precision is None

    def test_no_scenarios_everything_undefined(self):
        (scores, zones), _ = build(10, [], [(2, 6)])
        assert scores.precision_like is None
        assert scores.recall_like is None
        assert scores.f1_like is None
        assert zones == []

    def test_closed_form_distant_alert(self):
        # Event spans [2, 5), alert [8, 9), zone the whole [0, 10).
        # Precision integrand on the alert is (10 - t) / 10, recall integrand
        # is 0.2 on [2, 4) and (2t - 6) / 10 on [4, 5); both integrate by hand.
        (scores, zones), _ = build(10, [(2, 4)], [(8, 8)])
        assert zones[0].precision == pytest.approx(0.15, abs=1e-12)
        assert zones[0].recall == pytest.approx(0.7 / 3, abs=1e-12)
        expected = affiliation_oracle(
            [(Fraction(2), Fraction(5))],
            [(Fraction(8), Fraction(9))],
            (Fraction(0), Fraction(10)),
        )
        assert expected[0] == Fraction(3, 20)
        assert expected[1] == Fraction(7, 30)
        assert scores.precision_like == pytest.approx(float(expected[0]), abs=1e-12)
        assert scores.recall_like == pytest.approx(float(expected[1]), abs=1e-12)

    def test_alert_free_zone_scores_zero_recall_and_no_opinion(self):
        (scores, zones), _ = build(30, [(2, 5), (20, 25)], [(3, 4)])
        assert zones[0].precision == pytest.approx(1.0, abs=1e-12)
        assert zones[1].precision is None
        assert zones[1].recall == 0.0
        # Overall precision averages only zones holding alerts.
        assert scores.precision_like == pytest.approx(1.0, abs=1e-12)


class TestZonePartition:
    def test_bounds_cover_series_and_split_at_midpoints(self):
        (_, zones), series = build(30, [(2, 5), (20, 25)], [(0, 0)])
        assert zones[0].zone_start == 0.0
        assert zones[-1].zone_end == 30.0
        # Events occupy [2, 6) and [20, 26): the midpoint of the gap is 13.
        assert zones[0].zone_end == 13.0
        assert zones[1].zone_start == 13.0
        assert [z.event_start for z in zones] == [2.0, 20.0]
        assert [z.event_end for z in zones] == [6.0, 26.0]

    def test_zones_follow_timestamps_not_indices(self):
        ts = [0, 10, 20, 30, 40, 50]
        (_, zones), _ = build(6, [(1, 1), (4, 4)], [(2, 2)], timestamps=ts)
        # Events occupy [10, 11) and [40, 41); the midpoint is 25.5.
        assert zones[0].zone_end == 25.5
        assert zones[1].zone_start == 25.5
        assert zones[-1].zone_end == 51.0


class TestAgainstOracle:
    @pytest.mark.parametrize("gapped", [False, True], ids=["contiguous", "gapped"])
    def test_matches_exact_integration(self, gapped):
        rng = random.Random(5309 if gapped else 8675)
        checked = 0
        for trial in range(220):
            n = rng.randint(2, 120)
            attacks = random_intervals(rng, n, 6)
            if not attacks:
                continue
            alerts = random_intervals(rng, n, 6)
            if gapped:
                ts, cur = [], 0
                for _ in range(n):
                    ts.append(cur)
                    cur += rng.choice([1, 1, 1, 3, 10])
            else:
                ts = list(range(n))
            (scores, _), _ = build(n, attacks, alerts, timestamps=ts)
            expected = affiliation_oracle(
                oracle_spans(attacks, ts),
                oracle_spans(alerts, ts),
                (Fraction(ts[0]), Fraction(ts[-1]) + 1),
            )
            got = (scores.precision_like, scores.recall_like, scores.f1_like)
            for value, want in zip(got, expected):
                if want is None:
                    assert value is None, trial
                else:
                    assert value == pytest.approx(float(want), abs=1e-9), trial
            checked += 1
        assert checked > 150

    def test_single_point_extremes(self):
        for attacks, alerts in [
            ([(0, 0)], [(0, 0)]),
            ([(0, 0)], [(4, 4)]),
            ([(4, 4)], [(0, 0)]),
            ([(0, 0), (4, 4)], [(2, 2)]),
        ]:
            (scores, _), _ = build(5, attacks, alerts)
            ts = list(range(5))
            expected = affiliation_oracle(
                oracle_spans(attacks, ts),
                oracle_spans(alerts, ts),
                (Fraction(0), Fraction(5)),
            )
            assert scores.precision_like == pytest.approx(float(expected[0]), abs=1e-9)
            assert scores.recall_like == pytest.approx(float(expected[1]), abs=1e-9)


class TestTicksPastFloatPrecision:
    """float64 holds integers exactly only below 2**53; spans count from the first tick."""

    def test_exact_alerts_on_a_short_scenario(self):
        ticks = [10**18 + i for i in range(20)]
        (scores, zones), _ = build(20, [(5, 9)], [(5, 9)], timestamps=ticks)
        assert (scores.precision_like, scores.recall_like) == (1.0, 1.0)
        assert (zones[0].event_start, zones[0].event_end) == (5.0, 10.0)

    @staticmethod
    def pairs(origin):
        """Affiliation of 30 random instances, from tick 0 and from ``origin``."""
        rng = random.Random(origin % 997)
        for _ in range(30):
            n = rng.randint(1, 60)
            attacks = random_intervals(rng, n, 4)
            alerts = random_intervals(rng, n, 6)
            small, _ = build(n, attacks, alerts)
            big, _ = build(n, attacks, alerts, timestamps=[origin + i for i in range(n)])
            yield small, big

    @pytest.mark.parametrize("origin", [10**18, -(2**63), 2**63 - 100, 2**53])
    def test_bit_equal_to_ticks_from_zero(self, origin):
        for small, big in self.pairs(origin):
            assert repr(big) == repr(small)

    # Zones keep the ticks' origin below 2**53, but the scores count from the
    # first tick at any origin: float64 holds no half tick past 2**52, and a
    # series across 2**53 ends past it.
    @pytest.mark.parametrize("origin", [2**53 - 30, 2**52 + 1, 10**9 + 7, -(2**53) + 1])
    def test_scores_bit_equal_to_ticks_from_zero(self, origin):
        for (small, _), (big, _) in self.pairs(origin):
            assert repr(big) == repr(small)
