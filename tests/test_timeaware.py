"""Scenario detection, delay and enhanced time-aware scores against oracles."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idseval import (
    DEFAULT_METRICS,
    AttackScenario,
    EtaParams,
    ParameterError,
    ScenarioDetection,
    alerts_to_intervals,
    detected_scenarios,
    detection_delay,
    etapr,
    evaluate_detector,
    extract_scenarios,
    harmonic_f1,
    report_to_json,
    scenario_normalized_recall,
)
from oracles.brute import brute_merge_runs, brute_runs, brute_scenario_recall
from oracles.eta_oracle import eta_oracle
from support import make_alerts, make_series, random_binary_instance, random_intervals


def scenario(start: int, end: int, attack_type: str = "attack") -> AttackScenario:
    return AttackScenario(
        start_index=start, end_index=end,
        start_time=start, end_time=end,
        attack_type=attack_type,
    )


@st.composite
def delay_instances(draw):
    """Multi-type labels, alerts and gapped timestamps, with a gap tolerance."""
    n = draw(st.integers(1, 40))
    kinds = st.sampled_from(["benign", "benign", "dos", "scan", "spoof"])
    labels = draw(st.lists(kinds, min_size=n, max_size=n))
    alerts = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    steps = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    first = draw(st.integers(-50, 50))
    timestamps = [first + sum(steps[:i]) for i in range(n)]
    return labels, alerts, timestamps, draw(st.sampled_from([0, 3]))


def brute_detection(alerts, timestamps, start, end, kind) -> ScenarioDetection:
    """One scenario's row by a scan over its points."""
    alerted = [i for i in range(start, end + 1) if alerts[i]]
    first_alert_time = delay_ticks = None
    if alerted:
        run_start = alerted[0]
        while run_start > 0 and alerts[run_start - 1]:
            run_start -= 1
        first_alert_time = timestamps[alerted[0]]
        delay_ticks = max(0, timestamps[run_start] - timestamps[start])
    return ScenarioDetection(timestamps[start], timestamps[end], kind,
                             bool(alerted), first_alert_time, delay_ticks)


class TestScenarioDetection:
    @settings(max_examples=150, deadline=None)
    @given(delay_instances())
    def test_rows_match_a_scan_over_points(self, instance):
        labels, flags, timestamps, gap_tolerance = instance
        series = make_series(labels, timestamps=timestamps)
        alerts = make_alerts(flags)
        runs = brute_merge_runs(brute_runs(labels), gap_tolerance)
        want = [brute_detection(flags, timestamps, *run) for run in runs]
        table = extract_scenarios(series, gap_tolerance=gap_tolerance)
        details, _ = detection_delay(table, alerts_to_intervals(alerts, series), series)
        report = evaluate_detector(
            series, alerts, metrics=["detection-delay"], gap_tolerance=gap_tolerance
        )
        assert details == want
        assert report.scenario_details == tuple(want)
        for row in details:
            assert row.detected == (row.first_alert_time is not None)
            assert row.detected == (row.delay_ticks is not None)
            assert row.delay_ticks is None or row.delay_ticks >= 0
            assert all(type(field) is int for field in row[:2] + row[4:] if field is not None)
            assert type(row.detected) is bool

    def test_evaluation_builds_no_attack_scenario(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("AttackScenario built")

        monkeypatch.setattr(AttackScenario, "__init__", refuse)
        with pytest.raises(AssertionError, match="built"):
            scenario(0, 1)
        series = make_series(["benign", "dos", "dos", "benign", "scan", "benign"])
        alerts = make_alerts([False, False, True, True, False, False])
        metrics = [*DEFAULT_METRICS, "detected-scenarios:by-type", "etapr", "affiliation",
                   "scenario-recall"]
        report = evaluate_detector(series, alerts, metrics=metrics, gap_tolerance=1)
        assert [row.detected for row in report.scenario_details] == [True, False]
        assert json.loads(report_to_json(report))["scenarios"][0]["delay_ticks"] == 1


class TestDetectedScenarios:
    def test_hand_case(self):
        scenarios = [scenario(0, 4), scenario(10, 14), scenario(20, 24)]
        value, flags = detected_scenarios(scenarios, [(4, 5), (30, 31)])
        assert flags == [True, False, False]
        assert value.exact == Fraction(1, 3)

    def test_single_point_overlap_counts(self):
        value, flags = detected_scenarios([scenario(5, 5)], [(5, 5)])
        assert flags == [True]
        assert value.exact == 1

    def test_by_type_ratio(self):
        scenarios = [
            scenario(0, 4, "dos"),
            scenario(10, 14, "dos"),
            scenario(20, 24, "spoof"),
        ]
        value, flags = detected_scenarios(scenarios, [(12, 12)], group_by_type=True)
        assert flags == [False, True, False]
        assert value.display_name == "detected-scenarios:by-type"
        assert value.exact == Fraction(1, 2)

    def test_undefined_without_scenarios(self):
        value, flags = detected_scenarios([], [(0, 3)])
        assert not value.defined
        assert flags == []

    def test_unsorted_alert_intervals_rejected(self):
        with pytest.raises(ValueError, match="sorted and disjoint"):
            detected_scenarios([scenario(0, 1)], [(5, 6), (2, 3)])

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="start > end"):
            detected_scenarios([scenario(0, 1)], [(6, 5)])


class TestScenarioRecall:
    def test_hand_case(self):
        series = make_series(["A", "A", "A", "A", "benign", "B"])
        alerts = make_alerts([True, False, False, False, True, True])
        value = scenario_normalized_recall(
            extract_scenarios(series), alerts_to_intervals(alerts, series)
        )
        assert value.exact == (Fraction(1, 4) + Fraction(1)) / 2

    def test_takes_alert_runs_as_plain_pairs(self):
        scenarios = [scenario(0, 3, "A"), scenario(5, 5, "B")]
        value = scenario_normalized_recall(scenarios, [(0, 0), (4, 5)])
        assert value.exact == (Fraction(1, 4) + Fraction(1)) / 2

    def test_undefined_without_scenarios(self):
        series = make_series(["benign", "benign"])
        alerts = make_alerts([True, True])
        value = scenario_normalized_recall(
            extract_scenarios(series), alerts_to_intervals(alerts, series)
        )
        assert not value.defined

    def test_alert_pairs_checked_without_scenarios(self):
        with pytest.raises(ValueError, match="sorted and disjoint"):
            scenario_normalized_recall([], [(5, 6), (2, 3)])

    def test_matches_brute_on_random_instances(self):
        rng = random.Random(6061)
        for i in range(200):
            # Every fourth instance is long, so many scenarios share a length.
            labels, alert_values = random_binary_instance(rng, max_len=400 if i % 4 else 50)
            gap = rng.randint(0, 2)
            series = make_series(labels)
            got = scenario_normalized_recall(
                extract_scenarios(series, gap_tolerance=gap),
                alerts_to_intervals(make_alerts(alert_values), series),
            )
            runs = brute_merge_runs(brute_runs(labels), gap)
            expected = brute_scenario_recall(runs, alert_values)
            if expected is None:
                assert not got.defined
            else:
                assert got.exact == expected

    def test_evaluate_scores_the_scenarios_of_its_gap_tolerance(self):
        series = make_series(["A", "A", "benign", "A", "benign", "benign", "B"])
        alerts = make_alerts([True, True, False, False, False, False, True])
        values = []
        for gap in (0, 1, 3):
            report = evaluate_detector(
                series, alerts, metrics=["scenario-recall"], gap_tolerance=gap
            )
            expected = scenario_normalized_recall(
                extract_scenarios(series, gap), alerts_to_intervals(alerts, series)
            )
            assert report.metrics == (expected,)
            values.append(expected.exact)
        assert values == [Fraction(2, 3), Fraction(3, 4), Fraction(3, 4)]


class TestDetectionDelay:
    def test_delay_counts_from_scenario_start(self):
        series = make_series(["benign"] * 3 + ["attack"] * 5 + ["benign"] * 2)
        details, metrics = detection_delay([scenario(3, 7)], [(6, 8)], series)
        assert details[0].detected
        assert details[0].delay_ticks == 3
        assert details[0].first_alert_time == 6
        by_name = {m.name: m for m in metrics}
        assert by_name["undetected-scenarios"].exact == 0
        assert by_name["detection-delay-mean"].exact == 3
        assert by_name["detection-delay-median"].exact == 3

    def test_alert_overlapping_from_before_start_is_zero_delay(self):
        series = make_series(["benign"] * 3 + ["attack"] * 5)
        details, _ = detection_delay([scenario(3, 7)], [(1, 4)], series)
        assert details[0].delay_ticks == 0
        assert details[0].first_alert_time == 3

    def test_gapped_timestamps_measure_delay_in_ticks(self):
        series = make_series(
            ["attack", "attack", "attack"], timestamps=[0, 1000, 2000]
        )
        hit = extract_scenarios(series)
        details, _ = detection_delay(hit, [(2, 2)], series)
        assert details[0].delay_ticks == 2000
        assert details[0].first_alert_time == 2000

    def test_mean_median_and_undetected_mix(self):
        series = make_series(["attack"] * 30)
        scenarios = [scenario(0, 4), scenario(10, 14), scenario(20, 24), scenario(26, 29)]
        details, metrics = detection_delay(
            scenarios, [(1, 1), (14, 14), (27, 27)], series
        )
        assert [d.detected for d in details] == [True, True, False, True]
        by_name = {m.name: m for m in metrics}
        assert by_name["undetected-scenarios"].exact == 1
        assert by_name["detection-delay-mean"].exact == Fraction(1 + 4 + 1, 3)
        assert by_name["detection-delay-median"].exact == 1

    def test_even_count_median_averages_middle_pair(self):
        series = make_series(["attack"] * 40)
        scenarios = [scenario(0, 9), scenario(10, 19), scenario(20, 29), scenario(30, 39)]
        alerts = [(0, 0), (11, 11), (23, 23), (37, 37)]
        _, metrics = detection_delay(scenarios, alerts, series)
        by_name = {m.name: m for m in metrics}
        assert by_name["detection-delay-median"].exact == Fraction(1 + 3, 2)

    def test_delays_past_int64_are_exact(self):
        # Ticks span the whole int64 range, so the first delay is near 2**64.
        lo, hi = -(2**63), 2**63 - 1
        series = make_series(
            ["A"] * 4 + ["benign", "B"],
            tick_seconds="1/1000",
            timestamps=[lo, lo + 1, 0, hi - 2, hi - 1, hi],
        )
        alerts = make_alerts([False, False, False, True, False, True])
        details, _ = detection_delay(extract_scenarios(series), [(3, 3), (5, 5)], series)
        assert [d.delay_ticks for d in details] == [hi - 2 - lo, 0]
        assert [d.first_alert_time for d in details] == [hi - 2, hi]
        report = evaluate_detector(series, alerts, metrics=["detection-delay"])
        mean = Fraction(hi - 2 - lo, 2)
        assert report.get("detection-delay-mean").exact == mean
        assert report.get("detection-delay-median").exact == mean
        assert report.get("detection-delay-mean-seconds").exact == mean / 1000
        assert [d.delay_ticks for d in report.scenario_details] == [hi - 2 - lo, 0]

    def test_all_undetected_gives_undefined_mean_median(self):
        series = make_series(["attack"] * 4)
        details, metrics = detection_delay([scenario(0, 3)], [], series)
        assert not details[0].detected
        by_name = {m.name: m for m in metrics}
        assert by_name["undetected-scenarios"].exact == 1
        assert not by_name["detection-delay-mean"].defined
        assert not by_name["detection-delay-median"].defined


class TestEtaParams:
    def test_defaults(self):
        params = EtaParams()
        assert params.theta_p == Fraction(1, 2)
        assert params.theta_r == Fraction(1, 10)
        assert params.detection_weight == Fraction(1, 2)

    def test_floats_normalized_via_decimal_repr(self):
        assert EtaParams(theta_p=0.1).theta_p == Fraction(1, 10)
        assert EtaParams(theta_r="0.3").theta_r == Fraction(3, 10)

    @pytest.mark.parametrize("field", ["theta_p", "theta_r", "detection_weight"])
    @pytest.mark.parametrize("bad", ["-0.1", "1.5", 2])
    def test_out_of_range_rejected(self, field, bad):
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            EtaParams(**{field: bad})


class TestHarmonicF1:
    def test_none_propagates(self):
        assert harmonic_f1(None, 0.5) is None
        assert harmonic_f1(0.5, None) is None

    def test_both_zero_is_zero(self):
        assert harmonic_f1(0.0, 0.0) == 0.0

    def test_hand_value(self):
        assert abs(harmonic_f1(0.5, 1.0) - 2 / 3) < 1e-15


class TestEtapr:
    def test_perfect_match(self):
        scores = etapr([scenario(3, 7)], [(3, 7)])
        assert (scores.precision_like, scores.recall_like, scores.f1_like) == (1.0, 1.0, 1.0)

    def test_no_alerts_precision_undefined_recall_zero(self):
        scores = etapr([scenario(0, 4)], [])
        assert scores.precision_like is None
        assert scores.recall_like == 0.0
        assert scores.f1_like is None

    def test_no_scenarios_recall_undefined(self):
        scores = etapr([], [(0, 4)])
        assert scores.precision_like == 0.0
        assert scores.recall_like is None
        assert scores.f1_like is None

    def test_disjoint_gives_zero(self):
        scores = etapr([scenario(0, 4)], [(10, 14)])
        assert (scores.precision_like, scores.recall_like, scores.f1_like) == (0.0, 0.0, 0.0)

    def test_theta_p_boundary_counts_as_correct(self):
        # Alert (3, 6) overlaps scenario on exactly half its points.
        scores = etapr([scenario(0, 4)], [(3, 6)])
        assert scores.precision_like == float(Fraction(1, 2) + Fraction(1, 2) * Fraction(1, 2))

    def test_just_below_theta_p_is_incorrect(self):
        # 2 of 5 alert points overlap: portion 0.4 < 0.5, so no correct alert
        # exists and the scenario coverage used by recall stays empty.
        scores = etapr([scenario(0, 4)], [(3, 7)])
        assert scores.precision_like == float(Fraction(1, 2) * Fraction(2, 5))
        assert scores.recall_like == 0.0

    def test_incorrect_alerts_do_not_feed_recall(self):
        # Alert mostly benign: incorrect, so the scenario it grazes stays
        # uncovered even though a plain detected-scenarios check would fire.
        scores = etapr([scenario(0, 9)], [(9, 28)])
        assert scores.recall_like == 0.0
        flags = detected_scenarios([scenario(0, 9)], [(9, 28)])[1]
        assert flags == [True]

    def test_benign_overhang_never_raises_precision(self):
        rng = random.Random(8888)
        for _ in range(50):
            start = rng.randint(0, 5)
            end = start + rng.randint(0, 5)
            base = etapr([scenario(start, end)], [(start, end)])
            last = base.precision_like
            for overhang in range(1, 6):
                grown = etapr([scenario(start, end)], [(start, end + overhang)])
                assert grown.precision_like <= last + 1e-15
                last = grown.precision_like

    def test_equal_scenario_weighting_regardless_of_length(self):
        short, long = scenario(0, 9), scenario(100, 1099)
        scores = etapr([short, long], [(0, 9)])
        assert abs(scores.recall_like - 0.5) < 1e-15

    def test_custom_params_change_correctness_cutoff(self):
        lax = etapr([scenario(0, 4)], [(3, 7)], EtaParams(theta_p=Fraction(1, 5)))
        assert lax.precision_like == float(Fraction(1, 2) + Fraction(1, 2) * Fraction(2, 5))

    @pytest.mark.parametrize("which", ["theta_p", "theta_r"])
    def test_thresholds_with_denominators_past_int64(self, which):
        # 10**20 > 2**63: the cut-off ceil(theta * length) must not be formed
        # in int64. One of three points covered is a portion of exactly 1/3,
        # which passes 0.333...33 and fails 0.333...34 (20 decimals).
        scenarios = [scenario(0, 2), scenario(10, 12)]
        alerts = [(2, 4), (10, 12), (20, 22)]
        results = []
        for text in ("0.33333333333333333333", "0.33333333333333333334"):
            theta = Fraction(text)
            assert theta.denominator > 2**63
            kwargs = {"theta_p": Fraction(1, 3), "theta_r": Fraction(1, 3), which: theta}
            got = etapr(scenarios, alerts, EtaParams(**kwargs))
            want = eta_oracle(
                [(0, 2), (10, 12)], alerts, kwargs["theta_p"], kwargs["theta_r"]
            )
            assert got.precision_like == float(want[0])
            assert got.recall_like == float(want[1])
            results.append(got)
        passed, failed = results
        if which == "theta_p":
            assert passed.precision_like > failed.precision_like
        else:
            assert passed.recall_like > failed.recall_like

    def test_overlapping_scenarios_rejected(self):
        with pytest.raises(ValueError, match="sorted and disjoint"):
            etapr([scenario(0, 5), scenario(3, 8)], [])

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(24601)
        theta_choices = [
            (Fraction(1, 2), Fraction(1, 10), Fraction(1, 2)),
            (Fraction(1), Fraction(1), Fraction(1, 2)),
            (Fraction(0), Fraction(0), Fraction(1, 4)),
            (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)),
        ]
        for trial in range(600):
            n = rng.randint(1, 200)
            attacks = random_intervals(rng, n, 6)
            alerts = random_intervals(rng, n, 6)
            theta_p, theta_r, weight = rng.choice(theta_choices)
            scores = etapr(
                [scenario(a, b) for a, b in attacks],
                alerts,
                EtaParams(theta_p=theta_p, theta_r=theta_r, detection_weight=weight),
            )
            expected = eta_oracle(attacks, alerts, theta_p, theta_r, weight)
            for got, want in zip(
                (scores.precision_like, scores.recall_like, scores.f1_like), expected
            ):
                if want is None:
                    assert got is None, trial
                else:
                    assert got == pytest.approx(float(want), abs=1e-12), trial
