"""Metric catalog, spec parsing and the evaluate_detector pipeline."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from idseval import (
    AlertSeries,
    CATALOG,
    DEFAULT_METRICS,
    EvalContext,
    EvaluationError,
    LabeledSeries,
    ParameterError,
    UnknownMetricError,
    catalog_lines,
    collapse_multiclass,
    compute_metric,
    confusion,
    evaluate_detector,
    parse_metric_spec,
    resolve_metric,
)
from oracles.brute import brute_confusion
from support import make_alerts, make_series


def context(labels, alerts, **kwargs):
    return EvalContext(make_series(labels), make_alerts(alerts), **kwargs)


class TestParseMetricSpec:
    @pytest.mark.parametrize(
        "text,name,params",
        [
            ("f1", "f1", {}),
            ("fbeta:beta=0.1", "fbeta", {"beta": "0.1"}),
            ("detected-scenarios:by-type", "detected-scenarios", {"by-type": True}),
            ("etapr:theta_p=0.5:theta_r=0.1", "etapr", {"theta_p": "0.5", "theta_r": "0.1"}),
            (" f1 ", "f1", {}),
            ("fbeta: beta = 2 ", "fbeta", {"beta": "2"}),
        ],
    )
    def test_accepted(self, text, name, params):
        assert parse_metric_spec(text) == (name, params)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "empty metric name"),
            (":beta=1", "empty metric name"),
            ("f1:", "empty parameter"),
            ("fbeta:=1", "empty parameter name"),
            ("fbeta:beta=1:beta=2", "duplicate parameter"),
        ],
    )
    def test_rejected(self, text, match):
        with pytest.raises(ParameterError, match=match):
            parse_metric_spec(text)


class TestResolveMetric:
    def test_aliases_share_definitions(self):
        assert resolve_metric("recall") is resolve_metric("tpr")
        assert resolve_metric("precision") is resolve_metric("ppv")

    def test_unknown_metric_lists_catalog(self):
        with pytest.raises(UnknownMetricError, match="available: .*accuracy.*etapr"):
            resolve_metric("f2")

    def test_catalog_lines_cover_every_definition(self):
        text = "\n".join(catalog_lines())
        for definition in CATALOG:
            assert definition.name in text
        assert "(alias: recall)" in text
        assert "beta=<positive number> (required)" in text

    def test_default_metrics_resolve(self):
        for name in DEFAULT_METRICS:
            resolve_metric(name)


class TestEvalContext:
    def test_scored_alerts_rejected_with_roc_hint(self):
        series = make_series(["benign", "dos"])
        scored = AlertSeries.from_scores("det", [0.1, 0.9], "series")
        with pytest.raises(EvaluationError, match="sweep one with roc"):
            EvalContext(series, scored)

    def test_misaligned_alerts_rejected(self):
        series = make_series(["benign"], name="other")
        with pytest.raises(EvaluationError):
            EvalContext(series, make_alerts([True], aligned_to="series"))

    def test_multiclass_collapses_for_confusion_only(self):
        ctx = context(["dos", "spoof", "benign"], [True, True, False])
        assert ctx.cm.tp == 2
        assert [s.attack_type for s in ctx.scenarios] == ["dos", "spoof"]

    def test_multiclass_counts_equal_the_collapsed_series_and_the_brute_counter(self):
        rng = random.Random(4117)
        for _ in range(300):
            n = rng.randint(1, 64)
            types = ["benign", "dos", "spoof", "scan"][: rng.randint(1, 4)]
            weights = [rng.choice([0, 1, 5]) for _ in types]
            if not any(weights):
                weights[0] = 1
            labels = rng.choices(types, weights, k=n)
            alerted = [rng.random() < rng.choice([0.0, 0.3, 1.0]) for _ in range(n)]
            series, alerts = make_series(labels), make_alerts(alerted)
            cm = EvalContext(series, alerts).cm
            counts = brute_confusion([label != "benign" for label in labels], alerted)
            assert cm == confusion(collapse_multiclass(series), alerts)
            assert (cm.tp, cm.tn, cm.fp, cm.fn) == (
                counts["tp"], counts["tn"], counts["fp"], counts["fn"],
            )

    def test_point_metrics_on_multiclass_labels_copy_no_codes(self):
        n = 200_000
        codes = np.repeat(np.arange(n // 500) % 4, 500).astype(np.int32)
        series = LabeledSeries("series", np.arange(n), codes, ("dos", "scan", "replay"))
        alerts = make_alerts(np.random.default_rng(3).random(n) < 0.3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evaluate_detector(series, alerts, metrics=["confusion", "f1", "fpr", "npv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The attack mask and one boolean temporary are two bool columns; an
        # int32 copy of the codes alone would be four.
        assert peak - before < 2.5 * n


class TestComputeMetric:
    def test_confusion_expands_to_four_counts(self):
        ctx = context(["dos", "benign"], [True, True])
        values = compute_metric(ctx, "confusion")
        assert [v.name for v in values] == ["tp", "tn", "fp", "fn"]
        assert [v.value for v in values] == [1, 0, 1, 0]

    def test_etapr_expands_to_three_scores(self):
        ctx = context(["dos", "dos", "benign"], [True, False, False])
        values = compute_metric(ctx, "etapr")
        assert [v.name for v in values] == ["etap", "etar", "etaf1"]

    def test_etapr_params_echoed_in_display_name(self):
        ctx = context(["dos", "benign"], [True, False])
        values = compute_metric(ctx, "etapr:theta_p=0.75:weight=1/4")
        assert values[0].display_name == "etap:theta_p=0.75:weight=0.25"
        thirds = compute_metric(ctx, "etapr:theta_r=1/3")
        assert thirds[1].display_name == "etar:theta_r=1/3"

    def test_affiliation_expands_to_three_scores(self):
        ctx = context(["dos", "dos", "benign"], [True, False, False])
        values = compute_metric(ctx, "affiliation")
        names = [v.name for v in values]
        assert names == ["affiliation-precision", "affiliation-recall", "affiliation-f1"]

    def test_detection_delay_adds_seconds_variants(self):
        series = make_series(["benign", "dos", "dos"], tick_seconds="0.5")
        ctx = EvalContext(series, make_alerts([False, False, True]))
        values = {v.name: v for v in compute_metric(ctx, "detection-delay")}
        assert values["detection-delay-mean"].exact == 1
        assert values["detection-delay-mean-seconds"].exact == Fraction(1, 2)
        assert values["detection-delay-median-seconds"].exact == Fraction(1, 2)
        assert values["undetected-scenarios"].exact == 0

    def test_detection_delay_seconds_undefined_when_nothing_detected(self):
        ctx = context(["dos", "benign"], [False, False])
        values = {v.name: v for v in compute_metric(ctx, "detection-delay")}
        assert not values["detection-delay-mean-seconds"].defined

    def test_per_second_ticks_make_delay_seconds_equal_ticks(self):
        series = make_series(["benign", "dos", "dos", "dos"], tick_seconds=1)
        ctx = EvalContext(series, make_alerts([False, False, False, True]))
        values = {v.name: v for v in compute_metric(ctx, "detection-delay")}
        assert values["detection-delay-mean-seconds"].exact == values["detection-delay-mean"].exact
        assert values["detection-delay-median-seconds"].exact == values["detection-delay-median"].exact

    def test_by_type_flag(self):
        ctx = context(["dos", "benign", "dos"], [True, False, False])
        plain = compute_metric(ctx, "detected-scenarios")[0]
        by_type = compute_metric(ctx, "detected-scenarios:by-type")[0]
        assert plain.exact == Fraction(1, 2)
        assert by_type.exact == 1
        assert by_type.display_name == "detected-scenarios:by-type"

    @pytest.mark.parametrize(
        "spec,match",
        [
            ("accuracy:beta=1", "takes no parameters"),
            ("fbeta", "requires beta="),
            ("fbeta:beta", "needs a value"),
            ("fbeta:beta=fast", "beta is not a number"),
            ("fbeta:beta=0", "positive"),
            ("detected-scenarios:by-type=yes", "by-type is a flag"),
            ("detected-scenarios:gap=3", "does not accept: gap"),
            ("etapr:theta_p=wide", "theta_p is not a number"),
            ("etapr:theta_p=1.5", r"\[0, 1\]"),
            ("affiliation:zones=2", "takes no parameters"),
        ],
    )
    def test_parameter_errors(self, spec, match):
        ctx = context(["dos", "benign"], [True, False])
        with pytest.raises(ParameterError, match=match):
            compute_metric(ctx, spec)


class TestEvaluateDetector:
    def test_default_metrics_report(self):
        report = evaluate_detector(
            make_series(["dos"] * 2 + ["benign"] * 8), make_alerts([True] * 4 + [False] * 6)
        )
        names = [v.name for v in report.metrics]
        assert names[:4] == ["tp", "tn", "fp", "fn"]
        assert "accuracy" in names
        assert "detection-delay-mean-seconds" in names
        assert report.detector == "det"
        assert report.dataset == "series"
        assert report.scenario_details[0].detected

    def test_explicit_metric_list_keeps_order(self):
        report = evaluate_detector(
            make_series(["dos", "benign"]),
            make_alerts([True, False]),
            metrics=["f1", "accuracy"],
        )
        assert [v.name for v in report.metrics] == ["f1", "accuracy"]
        assert report.scenario_details == ()

    def test_duplicate_requests_collapse(self):
        report = evaluate_detector(
            make_series(["dos", "benign"]),
            make_alerts([True, False]),
            metrics=["tpr", "recall", "tpr"],
        )
        assert [v.name for v in report.metrics] == ["tpr"]

    def test_same_metric_different_params_kept_apart(self):
        report = evaluate_detector(
            make_series(["dos", "benign"]),
            make_alerts([True, False]),
            metrics=["fbeta:beta=0.1", "fbeta:beta=10"],
        )
        assert [v.display_name for v in report.metrics] == [
            "fbeta:beta=0.1", "fbeta:beta=10",
        ]

    def test_gap_tolerance_flows_through(self):
        series = make_series(["dos", "benign", "dos"])
        merged = evaluate_detector(
            series, make_alerts([True, False, False]),
            metrics=["detected-scenarios"], gap_tolerance=1,
        )
        assert merged.metrics[0].exact == 1

    def test_unknown_metric_raises_before_partial_output(self):
        with pytest.raises(UnknownMetricError):
            evaluate_detector(
                make_series(["dos", "benign"]),
                make_alerts([True, False]),
                metrics=["accuracy", "f2"],
            )
