"""Core data model: series, alerts, scenarios, metric values, interval helpers."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idseval import (
    AlertSeries,
    AlignmentError,
    AttackScenario,
    EvaluationError,
    Intervals,
    LabeledSeries,
    MetricReport,
    MetricValue,
    ParameterError,
    Scenarios,
    alerts_to_intervals,
    collapse_multiclass,
    extract_scenarios,
    format_fraction,
    intervals_to_mask,
    mask_to_intervals,
)
from idseval.model import float_ticks, require_alignment, tick_offsets
from oracles.brute import brute_merge_runs, brute_runs
from support import label_strings, make_alerts, make_series


class TestLabeledSeries:
    def test_from_labels_assigns_codes_in_first_seen_order(self):
        series = make_series(["benign", "dos", "benign", "spoof", "dos"])
        assert series.attack_types == ("dos", "spoof")
        assert list(series.label_codes) == [0, 1, 0, 2, 1]
        assert label_strings(series) == ["benign", "dos", "benign", "spoof", "dos"]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(["benign", "0", "dos", "scan", "spoof"]), min_size=1,
                    max_size=30))
    def test_from_labels_equals_the_per_point_constructor(self, labels):
        types = tuple(dict.fromkeys(label for label in labels if label not in ("benign", "0")))
        codes = [types.index(label) + 1 if label in types else 0 for label in labels]
        expected = LabeledSeries("series", np.arange(len(labels)), np.array(codes), types)
        assert LabeledSeries.from_labels("series", range(len(labels)), labels) == expected

    def test_zero_string_counts_as_benign(self):
        series = make_series(["0", "x", "0"])
        assert list(series.attack_mask) == [False, True, False]

    def test_attack_mask_and_binary_flag(self):
        series = make_series(["benign", "a", "b"])
        assert list(series.attack_mask) == [False, True, True]
        assert not series.is_binary
        assert make_series(["benign", "a"]).is_binary
        assert make_series(["benign", "benign"]).is_binary

    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_series(["benign", "benign"], timestamps=[5, 5])
        with pytest.raises(ValueError, match="strictly increasing"):
            make_series(["benign", "benign"], timestamps=[5, 4])

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError, match="at least one point"):
            make_series([])
        with pytest.raises(ValueError, match="equal length"):
            LabeledSeries("x", np.array([1, 2]), np.array([0]), ())

    def test_rejects_bad_tick_and_codes(self):
        with pytest.raises(ParameterError, match="tick_seconds"):
            make_series(["benign"], tick_seconds=0)
        with pytest.raises(ValueError, match="label codes"):
            LabeledSeries("x", np.array([1]), np.array([2]), ("only",))
        with pytest.raises(ValueError, match="unique"):
            LabeledSeries("x", np.array([1]), np.array([1]), ("a", "a"))

    def test_rejects_tick_whose_span_in_seconds_overflows_a_float(self):
        # One tick of 1e308 s fits a float; the two-tick span of 2e308 s does not.
        assert make_series(["benign"], tick_seconds="1e308").span_seconds == Fraction(10**308)
        with pytest.raises(ParameterError, match="the series' 2 ticks in seconds overflow"):
            make_series(["benign", "dos"], tick_seconds="1e308")
        with pytest.raises(ParameterError, match="the series' 1 ticks in seconds overflow"):
            make_series(["benign"], tick_seconds="1e400")

    def test_arrays_are_frozen(self):
        series = make_series(["benign", "dos"])
        with pytest.raises(ValueError):
            series.timestamps[0] = 7

    def test_fractional_tick(self):
        series = make_series(["benign"], tick_seconds="0.1")
        assert series.tick_seconds == Fraction(1, 10)

    def test_equality_compares_fields_and_arrays(self):
        series = make_series(["benign", "dos", "scan"], timestamps=[1, 4, 9])
        same = LabeledSeries("series", [1, 4, 9], np.array([0, 1, 2]), ("dos", "scan"))
        assert series == same
        assert not series != same
        assert series != make_series(["benign", "dos", "scan"], timestamps=[1, 4, 10])
        assert series != make_series(["benign", "scan", "dos"], timestamps=[1, 4, 9])
        assert series != make_series(["dos", "benign", "scan"], timestamps=[1, 4, 9])
        labels = ["benign", "dos", "scan"]
        assert series != make_series(labels, name="other", timestamps=[1, 4, 9])
        assert series != make_series(labels, tick_seconds=2, timestamps=[1, 4, 9])
        assert series != make_series(["benign", "dos"], timestamps=[1, 4])
        assert series != "series"
        with pytest.raises(TypeError, match="unhashable"):
            hash(series)


class TestAlertSeries:
    def test_bool_and_scored_kinds(self):
        bools = make_alerts([True, False])
        assert bools.values.dtype == np.bool_
        scores = AlertSeries.from_scores("d", [0.5, 1.5], "series")
        assert scores.values.dtype == np.float64

    def test_rejects_nan_scores_and_empty_name(self):
        with pytest.raises(ValueError, match="finite"):
            AlertSeries.from_scores("d", [float("nan")], "s")
        with pytest.raises(ValueError, match="non-empty"):
            make_alerts([True], detector="")

    def test_equality_compares_fields_and_values(self):
        alerts = make_alerts([True, False, True])
        assert alerts == AlertSeries.from_bool("det", np.array([1, 0, 1]), "series")
        assert alerts != make_alerts([True, True, True])
        assert alerts != make_alerts([True, False])
        assert alerts != make_alerts([True, False, True], detector="other")
        assert alerts != make_alerts([True, False, True], aligned_to="other")
        assert alerts != AlertSeries.from_scores("det", [1.0, 0.0, 1.0], "series")
        scores = AlertSeries.from_scores("d", [0.5, -0.0], "s")
        assert scores == AlertSeries.from_scores("d", [0.5, 0.0], "s")
        assert scores != AlertSeries.from_scores("d", [0.5, 0.25], "s")
        with pytest.raises(TypeError, match="unhashable"):
            hash(alerts)

    def test_alignment_check(self):
        series = make_series(["benign", "dos"])
        with pytest.raises(AlignmentError, match="has 1 points"):
            require_alignment(series, make_alerts([True]))
        with pytest.raises(AlignmentError, match="aligned to 'other'"):
            require_alignment(series, make_alerts([True, False], aligned_to="other"))


class TestExtractScenarios:
    def test_typed_runs(self):
        series = make_series(["benign", "dos", "dos", "benign", "spoof"])
        scenarios = extract_scenarios(series)
        assert [(s.start_index, s.end_index, s.attack_type) for s in scenarios] == [
            (1, 2, "dos"),
            (4, 4, "spoof"),
        ]
        assert scenarios[0].start_time == 1 and scenarios[0].end_time == 2
        assert scenarios[0].length == 2

    def test_adjacent_different_types_stay_distinct(self):
        series = make_series(["a", "b"])
        assert [s.attack_type for s in extract_scenarios(series, gap_tolerance=10)] == ["a", "b"]

    def test_gap_tolerance_merges_across_benign_points(self):
        series = make_series(["benign", "A", "benign", "A", "benign"])
        merged = extract_scenarios(series, gap_tolerance=1)
        assert [(s.start_index, s.end_index) for s in merged] == [(1, 3)]
        split = extract_scenarios(series, gap_tolerance=0)
        assert [(s.start_index, s.end_index) for s in split] == [(1, 1), (3, 3)]

    def test_gap_counted_in_points_not_ticks(self):
        series = make_series(["A", "benign", "A"], timestamps=[0, 1000, 2000])
        merged = extract_scenarios(series, gap_tolerance=1)
        assert [(s.start_index, s.end_index) for s in merged] == [(0, 2)]
        assert merged[0].start_time == 0 and merged[0].end_time == 2000

    def test_no_attacks(self):
        assert extract_scenarios(make_series(["benign", "benign"])) == []

    def test_negative_gap_rejected(self):
        with pytest.raises(ParameterError):
            extract_scenarios(make_series(["A"]), gap_tolerance=-1)

    @pytest.mark.parametrize("gap", [2.5, "1", True, np.bool_(True), None])
    def test_gap_that_is_no_integer_rejected(self, gap):
        with pytest.raises(ParameterError, match=f"^gap_tolerance must be an integer, got {gap!r}$"):
            extract_scenarios(make_series(["A", "benign", "A"]), gap_tolerance=gap)

    def test_numpy_integer_gap_accepted(self):
        merged = extract_scenarios(make_series(["A", "benign", "A"]), gap_tolerance=np.int32(1))
        assert [(s.start_index, s.end_index) for s in merged] == [(0, 2)]

    def test_matches_brute_runs_on_random_instances(self):
        rng = random.Random(402)
        alphabet = ["benign", "A", "B"]
        for _ in range(300):
            n = rng.randint(1, 40)
            labels = [rng.choice(alphabet) for _ in range(n)]
            gap = rng.randint(0, 3)
            expected = brute_merge_runs(brute_runs(labels), gap)
            got = extract_scenarios(make_series(labels), gap_tolerance=gap)
            assert [(s.start_index, s.end_index, s.attack_type) for s in got] == expected
            # Unit ticks: each scenario's times are its indices.
            assert got == [AttackScenario(s, e, s, e, kind) for s, e, kind in expected]
            assert Scenarios.of(list(got)) == got
            assert list(got.runs) == [(s, e) for s, e, _ in expected]

    def test_table_rejects_codes_or_times_that_disagree_with_runs(self):
        runs = Intervals([0, 4], [1, 6])
        Scenarios(runs, [1, 2], [[0, 1], [4, 6]], ("a", "b"))
        with pytest.raises(ValueError, match="reference attack_types"):
            Scenarios(runs, [1, 3], [[0, 1], [4, 6]], ("a", "b"))
        with pytest.raises(ValueError, match="reference attack_types"):
            Scenarios(runs, [0, 1], [[0, 1], [4, 6]], ("a", "b"))
        with pytest.raises(ValueError, match="one entry per run"):
            Scenarios(runs, [1], [[0, 1], [4, 6]], ("a", "b"))
        with pytest.raises(ValueError, match="one entry per run"):
            Scenarios(runs, [1, 2], [[0, 1]], ("a", "b"))


# Ticks on either side of the int64 bounds and of +-2**53, past which float64
# no longer holds every integer.
EDGE_TICKS = (-2**63, -2**63 + 1, -2**53 - 1, -2**53, -2**53 + 1, -1, 0, 1,
              2**53 - 1, 2**53, 2**53 + 1, 2**63 - 2, 2**63 - 1)
ticks = st.lists(
    st.sampled_from(EDGE_TICKS) | st.integers(-2**63, 2**63 - 1)
    | st.integers(2**53 - 8, 2**53 + 8) | st.integers(-2**53 - 8, -2**53 + 8),
    min_size=1, max_size=12, unique=True,
).map(sorted)


class TestTickOffsets:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ticks, st.data())
    def test_offsets_match_python_int_arithmetic(self, values, data):
        timestamps = np.array(values, dtype=np.int64)
        offsets = [float(t - values[0]) for t in values]
        assert tick_offsets(timestamps, np.arange(len(values))).tolist() == offsets
        i = data.draw(st.integers(-len(values), len(values) - 1))
        assert np.shape(tick_offsets(timestamps, i)) == ()
        assert float(tick_offsets(timestamps, i)) == offsets[i]
        exact = -2**53 < values[0] and values[-1] < 2**53
        cast = float_ticks(timestamps, np.arange(len(values))).tolist()
        assert cast == ([float(t) for t in values] if exact else offsets)


class TestIntervalHelpers:
    @given(st.lists(st.booleans(), max_size=50))
    def test_mask_interval_round_trip(self, mask):
        intervals = mask_to_intervals(np.array(mask, dtype=bool))
        assert list(intervals_to_mask(intervals, len(mask))) == mask
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s1 <= e1 and e1 + 1 < s2

    def test_mask_to_intervals_copies_no_run_ends(self):
        n_runs = 100_000
        mask = np.zeros(2 * n_runs, dtype=bool)
        mask[::2] = True  # one-point runs, the most a mask can hold
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            runs = mask_to_intervals(mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(runs) == n_runs
        # The runs hold 16 B each and the edges 16 more; a copy of the ends adds 8.
        assert peak - before < 40 * n_runs

    def test_alerts_to_intervals(self):
        series = make_series(["benign"] * 6)
        alerts = make_alerts([True, True, False, True, False, True])
        assert alerts_to_intervals(alerts, series) == [(0, 1), (3, 3), (5, 5)]

    def test_alerts_to_intervals_rejects_scores(self):
        series = make_series(["benign"])
        scores = AlertSeries.from_scores("d", [0.4], "series")
        with pytest.raises(EvaluationError, match="boolean"):
            alerts_to_intervals(scores, series)

    def test_intervals_to_mask_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            intervals_to_mask([(0, 5)], 3)


class TestCollapse:
    def test_collapses_all_types_by_default(self):
        series = make_series(["benign", "a", "b"])
        collapsed = collapse_multiclass(series)
        assert collapsed.attack_types == ("attack",)
        assert list(collapsed.label_codes) == [0, 1, 1]

    def test_shares_the_frozen_timestamps(self):
        series = make_series(["benign", "a", "b"], timestamps=[3, 5, 9])
        collapsed = collapse_multiclass(series)
        assert np.shares_memory(collapsed.offsets, series.offsets)
        assert not collapsed.offsets.flags.writeable
        assert not collapsed.timestamps.flags.writeable
        assert not collapsed.label_codes.flags.writeable
        assert list(collapsed.timestamps) == [3, 5, 9]

    def test_writeable_arrays_are_still_copied(self):
        timestamps = np.array([1, 2, 3], dtype=np.int64)
        codes = np.array([0, 1, 0], dtype=np.int32)
        series = LabeledSeries("s", timestamps, codes, ("a",))
        timestamps[0] = 7
        codes[0] = 1
        assert list(series.timestamps) == [1, 2, 3]
        assert list(series.label_codes) == [0, 1, 0]
        assert timestamps.flags.writeable

    def test_shared_arrays_are_still_validated(self):
        decreasing = np.array([3, 2], dtype=np.int64)
        decreasing.setflags(write=False)
        with pytest.raises(ValueError, match="strictly increasing"):
            LabeledSeries("s", decreasing, [0, 0], ())


class TestMetricValue:
    def test_from_fraction_fills_float(self):
        value = MetricValue.from_fraction("x", Fraction(1, 4))
        assert value.value == 0.25 and value.exact == Fraction(1, 4) and value.defined

    def test_undefined(self):
        value = MetricValue.undefined("tpr")
        assert value.value is None and not value.defined

    def test_display_name_sorts_params_and_renders_flags(self):
        value = MetricValue(name="m", value=1.0, params={"b": "2", "a": True})
        assert value.display_name == "m:a:b=2"
        assert MetricValue(name="m", value=1.0).display_name == "m"


class TestFormatFraction:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (Fraction(1, 2), "0.5"),
            (Fraction(1, 10), "0.1"),
            (Fraction(1, 4), "0.25"),
            (Fraction(3, 2), "1.5"),
            (Fraction(2), "2"),
            (Fraction(1, 3), "1/3"),
            (Fraction(-3, 4), "-0.75"),
            (Fraction(-1, 6), "-1/6"),
            (Fraction(7, 40), "0.175"),
        ],
    )
    def test_rendering(self, value, expected):
        assert format_fraction(value) == expected


class TestMetricReport:
    def test_duplicate_display_names_rejected(self):
        metric = MetricValue(name="f1", value=0.5)
        with pytest.raises(ValueError, match="duplicate metric names"):
            MetricReport(dataset="d", detector="x", metrics=(metric, metric))

    def test_get_by_display_name(self):
        metric = MetricValue(name="fbeta", value=0.5, params={"beta": "0.1"})
        report = MetricReport(dataset="d", detector="x", metrics=(metric,))
        assert report.get("fbeta:beta=0.1") is metric
        assert report.get("nope") is None


class TestAttackScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttackScenario(start_index=3, end_index=2, start_time=0, end_time=1, attack_type="a")
        with pytest.raises(ValueError):
            AttackScenario(start_index=0, end_index=1, start_time=5, end_time=4, attack_type="a")
