"""Comparison tables, JSON reports and SVG timelines."""

from __future__ import annotations

import csv
import io
import json
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from idseval import (
    AlertSeries,
    BaselineSpec,
    ComparisonTable,
    EvaluationError,
    LabeledSeries,
    MetricReport,
    MetricValue,
    ParameterError,
    RocCurve,
    TimelineLane,
    build_table,
    evaluate_detector,
    format_cell,
    generate,
    render_timeline,
    report_to_dict,
    report_to_json,
    roc_to_csv,
    save_alerts,
    save_labels,
)
from idseval.cli import main
from idseval.report import _ROWS, TimelineRendering
from idseval.timeaware import ScenarioDetection
from support import lane_bits, make_alerts, make_series


def mv(name, num, den, **params):
    return MetricValue.from_fraction(name, Fraction(num, den), **params)


def report(detector, dataset="demo", **values):
    metrics = [
        mv(name, *ratio) if ratio is not None else MetricValue.undefined(name)
        for name, ratio in values.items()
    ]
    return MetricReport(dataset=dataset, detector=detector, metrics=metrics)


class TestFormatCell:
    def test_undefined_renders_dash(self):
        assert format_cell(None) == "—"
        assert format_cell(MetricValue.undefined("tpr")) == "—"

    def test_integers_render_bare(self):
        assert format_cell(mv("tp", 14, 1)) == "14"

    def test_ratios_render_three_decimals(self):
        assert format_cell(mv("tpr", 2, 3)) == "0.667"


class TestBuildTable:
    def test_column_order_is_first_appearance(self):
        table = build_table(
            [report("a", f1=(1, 2), tpr=(1, 4)), report("b", tpr=(1, 2), fpr=(1, 8))]
        )
        assert table.columns == ("f1", "tpr", "fpr")
        assert table.detectors == ("a", "b")
        assert table.cells[0][2] is None

    def test_rank_by_sorts_descending_with_undefined_last(self):
        table = build_table(
            [
                report("low", f1=(1, 10)),
                report("none", f1=None),
                report("high", f1=(9, 10)),
                report("mid", f1=(5, 10)),
            ],
            rank_by="f1",
        )
        assert table.detectors == ("high", "mid", "low", "none")
        assert table.rank_by == "f1"

    def test_rank_by_unknown_column(self):
        with pytest.raises(ParameterError, match="columns: f1"):
            build_table([report("a", f1=(1, 2))], rank_by="accuracy")

    def test_mixed_datasets_rejected(self):
        with pytest.raises(EvaluationError, match="cannot compare across datasets"):
            build_table([report("a", dataset="x", f1=(1, 2)), report("b", dataset="y", f1=(1, 2))])

    def test_duplicate_detectors_rejected(self):
        with pytest.raises(EvaluationError, match="duplicate detector names: a"):
            build_table([report("a", f1=(1, 2)), report("a", f1=(1, 3))])

    def test_empty_input_rejected(self):
        with pytest.raises(EvaluationError, match="nothing to compare"):
            build_table([])

    def test_never_alarm_row_shows_0880_accuracy_on_12pct_attacks(self):
        series = make_series(["dos"] * 12 + ["benign"] * 88)
        spec = BaselineSpec.parse("baseline:never")
        never = evaluate_detector(series, generate(spec, series), ["accuracy"])
        table = build_table([never])
        row = dict(zip(table.columns, table.cells[0]))
        assert format_cell(row["accuracy"]) == "0.880"


class TestTableRendering:
    def table(self):
        return build_table(
            [
                report("det", f1=(2, 3), tp=(14, 1)),
                report("baseline:never", f1=None, tp=(0, 1)),
            ]
        )

    def test_markdown_shape(self):
        text = self.table().to_markdown()
        lines = text.splitlines()
        assert lines[0] == "| detector | f1 | tp |"
        assert lines[1] == "| --- | --- | --- |"
        assert lines[2] == "| det | 0.667 | 14 |"
        assert lines[3] == "| baseline:never | — | 0 |"

    def test_csv_round_trips_to_identical_cells(self):
        table = self.table()
        text = table.to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["detector", "f1", "tp"]
        assert rows[1] == ["det", repr(float(Fraction(2, 3))), "14.0"]
        assert rows[2] == ["baseline:never", "", "0.0"]
        # Full-precision repr round-trips through float exactly.
        assert float(rows[1][1]) == float(Fraction(2, 3))

    def test_json_carries_exact_strings(self):
        payload = json.loads(self.table().to_json())
        assert payload["dataset"] == "demo"
        assert payload["columns"] == ["f1", "tp"]
        assert payload["rows"][0]["values"]["f1"] == float(Fraction(2, 3))
        assert payload["rows"][0]["exact"]["f1"] == "2/3"
        assert payload["rows"][1]["values"]["f1"] is None

    def test_render_dispatch_and_unknown_format(self):
        table = self.table()
        assert table.render("md") == table.to_markdown()
        assert table.render("csv") == table.to_csv()
        assert table.render("json") == table.to_json()
        with pytest.raises(ParameterError, match="unknown table format"):
            table.render("yaml")


class TestReportJson:
    def test_schema(self):
        full = MetricReport(
            dataset="demo",
            detector="det",
            metrics=(
                mv("f1", 2, 3),
                mv("fbeta", 1, 2, beta="0.1"),
                MetricValue.undefined("tpr"),
            ),
            scenario_details=(
                ScenarioDetection(
                    start_time=3, end_time=7, attack_type="dos", detected=True,
                    first_alert_time=5, delay_ticks=2,
                ),
            ),
            tick_seconds=Fraction(1, 10),
        )
        payload = report_to_dict(full)
        assert payload["dataset"] == "demo"
        assert payload["detector"] == "det"
        assert payload["tick_seconds"] == 0.1
        assert payload["tick_seconds_exact"] == "1/10"
        by_name = {m["display_name"]: m for m in payload["metrics"]}
        assert by_name["f1"]["exact"] == "2/3"
        assert by_name["fbeta:beta=0.1"]["params"] == {"beta": "0.1"}
        assert by_name["tpr"]["value"] is None
        assert "exact" not in by_name["tpr"]
        assert payload["scenarios"] == [
            {
                "start_time": 3,
                "end_time": 7,
                "attack_type": "dos",
                "detected": True,
                "first_alert_time": 5,
                "delay_ticks": 2,
            }
        ]
        assert json.loads(report_to_json(full)) == payload


PRIMES_BELOW_2000 = [p for p in range(2, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))]


def prime_trace(detector: str = "det") -> tuple[LabeledSeries, AlertSeries]:
    """One scenario per prime length below 2000, each followed by a benign
    point, and an alert on each scenario's first point. Scenario recall is
    the mean of 1/p; its denominator, the primes' product, has 844 digits."""
    runs = [np.int32([1] * p + [0]) for p in PRIMES_BELOW_2000]
    codes = np.concatenate(runs)
    alerts = np.zeros(len(codes), dtype=bool)
    alerts[np.cumsum([0] + [len(run) for run in runs[:-1]])] = True
    series = LabeledSeries("primes", np.arange(len(codes)), codes, ("attack",))
    return series, AlertSeries.from_bool(detector, alerts, "primes")


@pytest.fixture
def digit_limit():
    """Python's lowest limit on the digits ``str`` writes of an int, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on the digits str writes of an int")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(previous)


class TestExactPastTheDigitLimit:
    """An exact value ``str`` cannot write under the interpreter's digit limit
    is left out of the JSON writers' ``exact``; its float ``value`` stays."""

    def test_report_and_table_keep_the_float(self, digit_limit):
        series, alerts = prime_trace()
        result = evaluate_detector(series, alerts, metrics=["scenario-recall"])
        (value,) = result.metrics
        mean = sum(Fraction(1, p) for p in PRIMES_BELOW_2000) / len(PRIMES_BELOW_2000)
        assert value.exact == mean
        with pytest.raises(ValueError):
            str(value.exact)
        (entry,) = json.loads(report_to_json(result))["metrics"]
        assert entry["value"] == float(mean)
        assert "exact" not in entry
        never = AlertSeries.from_bool("never", np.zeros(len(series), dtype=bool), "primes")
        table = build_table(
            [result, evaluate_detector(series, never, metrics=["scenario-recall"])]
        )
        rows = json.loads(table.render("json"))["rows"]
        assert rows[0]["values"] == {"scenario-recall": float(mean)}
        assert rows[0]["exact"] == {}
        assert rows[1]["exact"] == {"scenario-recall": "0"}
        assert f"| det | {float(mean):.3f} |" in table.render("md")

    @pytest.mark.parametrize(
        "verb,artifact", [("evaluate", "report.json"), ("compare", "comparison.json")]
    )
    def test_cli_json_exits_0_with_one_report(self, digit_limit, tmp_path, capsys, verb, artifact):
        series, alerts = prime_trace()
        save_labels(series, tmp_path / "labels.csv")
        save_alerts(alerts, series, tmp_path / "det.jsonl")
        out = tmp_path / "out"
        code = main([
            verb, "--labels", str(tmp_path / "labels.csv"), "--alerts", str(tmp_path / "det.jsonl"),
            "--metrics", "scenario-recall", "--format", "json", "--out", str(out),
        ])
        printed = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in printed.err
        payload = json.loads(printed.out)
        assert payload == json.loads((out / artifact).read_text(encoding="utf-8"))
        if verb == "evaluate":
            assert [sorted(entry) for entry in payload["metrics"]] == [
                ["display_name", "name", "value"]
            ]
        else:
            assert [row["exact"] for row in payload["rows"]] == [{}]


class TestWidening:
    def series(self):
        return make_series(["benign"] * 50 + ["dos"] * 10 + ["benign"] * 40, name="demo")

    def test_short_alarm_widens_centered(self):
        alerts = make_alerts([i == 54 for i in range(100)], detector="det", aligned_to="demo")
        rendering = render_timeline(self.series(), [alerts], min_width_ticks=10)
        lane = rendering.lanes[1]
        assert lane.true_spans.tolist() == [[54.0, 55.0]]
        assert lane.drawn_spans.tolist() == [[49.5, 59.5]]
        assert lane.widened.tolist() == [True]

    def test_wide_alarm_untouched(self):
        alerts = make_alerts(
            [20 <= i < 40 for i in range(100)], detector="det", aligned_to="demo"
        )
        rendering = render_timeline(self.series(), [alerts], min_width_ticks=10)
        lane = rendering.lanes[1]
        assert lane.drawn_spans.tolist() == [[20.0, 40.0]]
        assert lane.widened.tolist() == [False]

    def test_widening_clips_to_series_span(self):
        alerts = make_alerts([i == 0 for i in range(100)], detector="det", aligned_to="demo")
        rendering = render_timeline(self.series(), [alerts], min_width_ticks=20)
        assert rendering.lanes[1].drawn_spans.tolist() == [[0.0, 20.0]]
        tail = make_alerts([i == 99 for i in range(100)], detector="det", aligned_to="demo")
        rendering = render_timeline(self.series(), [tail], min_width_ticks=20)
        assert rendering.lanes[1].drawn_spans.tolist() == [[80.0, 100.0]]

    def test_ground_truth_never_widens(self):
        rendering = render_timeline(self.series(), [], min_width_ticks=500)
        gt = rendering.lanes[0]
        assert gt.name == "ground truth"
        assert gt.kind == "labels"
        assert gt.true_spans.tolist() == [[50.0, 60.0]]
        assert gt.drawn_spans.tolist() == gt.true_spans.tolist()

    def test_exempt_detector_keeps_true_width(self):
        alerts = make_alerts([i == 54 for i in range(100)], detector="coin", aligned_to="demo")
        rendering = render_timeline(
            self.series(), [alerts], min_width_ticks=10, exempt=["coin"]
        )
        lane = rendering.lanes[1]
        assert lane.drawn_spans.tolist() == lane.true_spans.tolist()
        assert lane.widened.tolist() == [False]

    def test_zero_min_width_is_identity(self):
        alerts = make_alerts([i == 54 for i in range(100)], detector="det", aligned_to="demo")
        rendering = render_timeline(self.series(), [alerts])
        assert rendering.lanes[1].drawn_spans.tolist() == rendering.lanes[1].true_spans.tolist()


class TestTimelineSvg:
    def series(self):
        return make_series(["benign", "dos", "dos", "benign"], name="demo & co")

    def test_output_is_well_formed_xml_with_escaped_title(self):
        rendering = render_timeline(self.series(), [])
        root = ET.fromstring(rendering.svg)
        assert root.tag.endswith("svg")
        assert "demo &amp; co" in rendering.svg

    def test_byte_deterministic(self):
        alerts = make_alerts([False, True, False, False], aligned_to="demo & co")
        first = render_timeline(self.series(), [alerts], min_width_ticks=2)
        second = render_timeline(self.series(), [alerts], min_width_ticks=2)
        assert first.svg == second.svg

    def test_empty_alert_lane_still_labeled(self):
        alerts = make_alerts([False] * 4, detector="quiet", aligned_to="demo & co")
        rendering = render_timeline(self.series(), [alerts])
        lane = rendering.lanes[1]
        assert lane.name == "quiet"
        assert lane.drawn_spans.tolist() == []
        assert ">quiet</text>" in rendering.svg

    def test_scored_alerts_rejected(self):
        scored = AlertSeries.from_scores("det", [0.1, 0.2, 0.3, 0.4], "demo & co")
        with pytest.raises(EvaluationError, match="requires boolean alerts"):
            render_timeline(self.series(), [scored])

    def test_duplicate_detectors_rejected(self):
        alerts = make_alerts([True] * 4, detector="det", aligned_to="demo & co")
        with pytest.raises(EvaluationError, match="^duplicate detector names: det$"):
            render_timeline(self.series(), [alerts, alerts])

    def test_duplicates_named_once_each_in_sorted_order(self):
        # The timeline, the table and the CLI share one check and its message.
        lanes = [make_alerts([True] * 4, detector=name, aligned_to="demo & co")
                 for name in ("b", "a", "c", "b", "a", "a")]
        message = "^duplicate detector names: a, b$"
        with pytest.raises(EvaluationError, match=message):
            render_timeline(self.series(), lanes)
        with pytest.raises(EvaluationError, match=message):
            build_table([report(name, f1=(1, 2)) for name in ("b", "a", "c", "b", "a", "a")])

    def test_unknown_exempt_rejected(self):
        with pytest.raises(ParameterError, match="exempt names not among"):
            render_timeline(self.series(), [], exempt=["ghost"])

    def test_negative_min_width_rejected(self):
        with pytest.raises(ParameterError, match="non-negative"):
            render_timeline(self.series(), [], min_width_ticks=-1)

    @pytest.mark.parametrize("min_width", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_min_width_rejected(self, min_width):
        with pytest.raises(ParameterError, match="must be finite and non-negative"):
            render_timeline(self.series(), [], min_width_ticks=min_width)

    @pytest.mark.parametrize(
        "min_width", [Fraction(10**400), 10**400, -(10**400)], ids=["fraction", "int", "negative"]
    )
    def test_min_width_past_float_range_rejected(self, min_width):
        with pytest.raises(ParameterError, match="must be finite and non-negative"):
            render_timeline(self.series(), [], min_width_ticks=min_width)

    def test_save_writes_svg_bytes(self, tmp_path):
        rendering = render_timeline(self.series(), [])
        target = tmp_path / "timeline.svg"
        rendering.save(target)
        assert target.read_text(encoding="utf-8") == rendering.svg


class TestTimelineSave:
    """``save`` writes the bytes of ``svg``, streamed from the lanes a chunk of rows at a time."""

    def rendering(self, rects, detectors=("dét & ✓",)):
        # Runs of one point (widened) and of two (not), one benign point apart.
        values = []
        for i in range(rects):
            values += [True] * (1 + i % 2) + [False]
        values += [False] * 4
        series = make_series(["dos"] * 3 + ["benign"] * (len(values) - 3), name="Anlage ü & <co>")
        alerts = [make_alerts(values, detector=name, aligned_to=series.name) for name in detectors]
        return render_timeline(series, alerts, min_width_ticks=2)

    @pytest.mark.parametrize("rects", [0, 1, _ROWS, _ROWS + 1])
    def test_save_writes_the_svg_text(self, tmp_path, rects):
        rendering = self.rendering(rects)
        assert len(rendering.lanes[1].widened) == rects
        rendering.save(tmp_path / "timeline.svg")
        svg = rendering.svg
        assert (tmp_path / "timeline.svg").read_bytes() == svg.encode("utf-8")
        assert ">dét &amp; ✓</text>" in svg and "Anlage ü &amp; &lt;co&gt;" in svg
        # The page, two lane backgrounds, the scenario and the alarms.
        assert svg.count("<rect") == 4 + rects

    def test_save_without_detectors(self, tmp_path):
        rendering = self.rendering(3, detectors=())
        rendering.save(tmp_path / "timeline.svg")
        assert (tmp_path / "timeline.svg").read_bytes() == rendering.svg.encode("utf-8")
        assert rendering.svg.count("<rect") == 3

    def test_rendering_from_svg_text(self, tmp_path):
        drawn = self.rendering(5)
        text = TimelineRendering(svg=drawn.svg, lanes=drawn.lanes, min_width_ticks=2.0)
        assert text.svg == drawn.svg and text.lanes == drawn.lanes
        # Records compare their fields: one frame is the whole text, the other
        # the text around the rect rows.
        assert text != drawn
        text.save(tmp_path / "timeline.svg")
        assert (tmp_path / "timeline.svg").read_bytes() == drawn.svg.encode("utf-8")

    def test_the_whole_text_is_never_held(self, tmp_path):
        n = 2 * 10**5  # 10**5 one-point alarms
        series = make_series(["benign"] * n, name="plant")
        alerts = make_alerts(np.arange(n) % 2 == 0, aligned_to="plant")
        target = tmp_path / "timeline.svg"
        tracemalloc.start()
        try:
            rendering = render_timeline(series, [alerts])
            held, render_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            rendering.save(target)
            save_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert target.read_text(encoding="utf-8").count("<rect") == 3 + 10**5
        # Holding the text once would take its size; the lanes' interval
        # arrays peak at about 0.8 of it, and writing adds one chunk of rows.
        assert max(render_peak, save_peak) < size
        assert save_peak - held < size / 2


class TestTimelineLaneArrays:
    """Lane metadata is read-only arrays: ``(runs, 2)`` float64 spans, bool flags."""

    def rendering(self, **kwargs):
        series = make_series(["benign"] * 5 + ["dos"] * 3 + ["benign"] * 12, name="demo")
        lanes = {
            "short": [i in (2, 9, 10) for i in range(20)],
            "quiet": [False] * 20,
            "long": [3 <= i < 15 for i in range(20)],
        }
        alerts = [make_alerts(v, detector=k, aligned_to="demo") for k, v in lanes.items()]
        return render_timeline(series, alerts, min_width_ticks=4, **kwargs)

    def test_dtypes_shapes_and_read_only(self):
        truth, short, quiet, long = self.rendering().lanes
        for lane, runs in ((truth, 1), (short, 2), (quiet, 0), (long, 1)):
            for array in (lane.true_spans, lane.drawn_spans):
                assert array.dtype == np.float64 and array.shape == (runs, 2)
                assert not array.flags.writeable
            assert lane.widened.dtype == np.bool_ and lane.widened.shape == (runs,)
            assert not lane.widened.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                lane.true_spans[...] = 0.0
        assert short.widened.tolist() == [True, True]
        assert short.drawn_spans.tolist() == [[0.5, 4.5], [8.0, 12.0]]
        assert long.widened.tolist() == [False]

    def test_drawn_spans_shared_only_when_nothing_widened(self):
        truth, short, quiet, long = self.rendering().lanes
        assert truth.drawn_spans is truth.true_spans
        assert quiet.drawn_spans is quiet.true_spans
        assert long.drawn_spans is long.true_spans
        assert short.drawn_spans is not short.true_spans
        assert short.true_spans.tolist() == [[2.0, 3.0], [9.0, 11.0]]
        exempt = self.rendering(exempt=["short"]).lanes[1]
        assert exempt.drawn_spans is exempt.true_spans
        assert exempt.widened.tolist() == [False, False]

    def test_equality_compares_arrays_and_lanes_are_unhashable(self):
        first, second = self.rendering(), self.rendering()
        assert first.lanes == second.lanes and first == second
        assert first.lanes[1] != first.lanes[3]
        lane = first.lanes[1]
        for field, value in (
            ("name", "other"),
            ("kind", "labels"),
            ("true_spans", lane.true_spans + 1.0),
            ("drawn_spans", lane.drawn_spans[:1]),
            ("widened", ~lane.widened),
        ):
            changed = {name: getattr(lane, name) for name in lane._fields} | {field: value}
            assert TimelineLane(**changed) != lane
        assert lane != (lane.name, lane.kind)
        with pytest.raises(TypeError, match="unhashable"):
            hash(lane)


class TestTicksPastFloatPrecision:
    """float64 holds integers exactly only below 2**53; spans count from the first tick."""

    @pytest.mark.parametrize("origin", [10**18, -(2**63), 2**63 - 100, 2**53])
    def test_timeline_is_translation_invariant(self, origin):
        labels = ["benign"] * 20 + ["dos"] * 5 + ["benign"] * 30 + ["dos"] * 2 + ["benign"] * 3
        alerts = [i in (21, 22, 23, 40, 56) for i in range(len(labels))]

        def rendered(start):
            ticks = [start + i for i in range(len(labels))]
            series = make_series(labels, name="plant", timestamps=ticks)
            return render_timeline(
                series, [make_alerts(alerts, aligned_to="plant")], min_width_ticks=4
            )

        small, big = rendered(0), rendered(origin)
        assert lane_bits(big.lanes) == lane_bits(small.lanes)
        assert big.lanes[1].true_spans.tolist() == [[21.0, 24.0], [40.0, 41.0], [56.0, 57.0]]
        # Only the axis labels, which print the ticks themselves, differ.
        end = len(labels)
        svg = big.svg.replace(f">{origin}</text>", ">0</text>")
        assert svg.replace(f">{origin + end}</text>", f">{end}</text>") == small.svg


class TestRocCsv:
    def test_header_and_full_precision(self):
        curve = RocCurve(
            thresholds=[float("inf"), 0.5, float("-inf")],
            fpr=[0.0, 1 / 3, 1.0],
            tpr=[0.0, 2 / 3, 1.0],
        )
        rows = list(csv.reader(io.StringIO(roc_to_csv(curve))))
        assert rows[0] == ["threshold", "fpr", "tpr"]
        assert rows[1] == ["inf", "0.0", "0.0"]
        assert rows[2] == ["0.5", repr(1 / 3), repr(2 / 3)]
        assert float(rows[2][1]) == 1 / 3


def test_comparison_table_is_frozen():
    table = build_table([report("a", f1=(1, 2))])
    assert isinstance(table, ComparisonTable)
    with pytest.raises(AttributeError):
        table.dataset = "other"
