"""Point-based metrics against brute-force oracles and hand-computed cases."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idseval import (
    AlertSeries,
    ConfusionMatrix,
    EvaluationError,
    ParameterError,
    RocCurve,
    accuracy,
    auc,
    auc_single,
    collapse_multiclass,
    confusion,
    f1,
    f_beta,
    fnr,
    fpr,
    npv,
    ppv,
    roc,
    tnr,
    tpr,
)
from oracles.brute import (
    brute_auc_single,
    brute_confusion,
    brute_fbeta_from_pr,
    brute_ratios,
    brute_roc_points,
)
from support import make_alerts, make_series, random_binary_instance

METRIC_FNS = {
    "tpr": tpr,
    "fnr": fnr,
    "tnr": tnr,
    "fpr": fpr,
    "ppv": ppv,
    "npv": npv,
    "accuracy": accuracy,
    "f1": f1,
}


class TestConfusion:
    def test_hand_case(self):
        series = make_series(["benign", "attack", "attack", "benign", "benign"])
        alerts = make_alerts([True, True, False, False, False])
        cm = confusion(series, alerts)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 2, 1, 1)
        assert cm.n == 5

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_multi_class_counts_any_type_as_positive(self, data):
        n = data.draw(st.integers(1, 40))
        types = st.sampled_from(["benign", "0", "dos", "scan", "spoof"])
        multi = make_series(data.draw(st.lists(types, min_size=n, max_size=n)))
        alerts = make_alerts(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        assert confusion(multi, alerts) == confusion(collapse_multiclass(multi), alerts)

    def test_requires_boolean_alerts(self):
        series = make_series(["benign"])
        with pytest.raises(EvaluationError, match="boolean"):
            confusion(series, AlertSeries.from_scores("d", [0.1], "series"))
        multi = make_series(["benign", "dos", "scan"])
        with pytest.raises(EvaluationError, match="boolean"):
            confusion(multi, AlertSeries.from_scores("d", [0.0, 1.0, 0.5], "series"))
        with pytest.raises(EvaluationError, match="aligned to"):
            confusion(multi, make_alerts([True, False, True], aligned_to="other"))

    def test_matches_brute_counter_on_random_instances(self):
        rng = random.Random(7031)
        for _ in range(400):
            labels, alert_values = random_binary_instance(rng)
            series = make_series(labels)
            cm = confusion(series, make_alerts(alert_values))
            expected = brute_confusion([lab != "benign" for lab in labels], alert_values)
            assert (cm.tp, cm.tn, cm.fp, cm.fn) == (
                expected["tp"], expected["tn"], expected["fp"], expected["fn"],
            )


class TestRatioMetrics:
    def test_exact_values_on_hand_matrix(self):
        cm = ConfusionMatrix(tp=8, tn=84, fp=2, fn=6)
        assert tpr(cm).exact == Fraction(8, 14)
        assert fnr(cm).exact == Fraction(6, 14)
        assert tnr(cm).exact == Fraction(84, 86)
        assert fpr(cm).exact == Fraction(2, 86)
        assert ppv(cm).exact == Fraction(8, 10)
        assert npv(cm).exact == Fraction(84, 90)
        assert accuracy(cm).exact == Fraction(92, 100)
        assert f1(cm).exact == Fraction(16, 24)

    def test_zero_denominators_are_undefined_not_zero(self):
        no_attack = ConfusionMatrix(tp=0, tn=5, fp=0, fn=0)
        assert not tpr(no_attack).defined
        assert not fnr(no_attack).defined
        assert not ppv(no_attack).defined
        all_attack = ConfusionMatrix(tp=5, tn=0, fp=0, fn=0)
        assert not tnr(all_attack).defined
        assert not fpr(all_attack).defined
        assert not npv(all_attack).defined
        assert not f1(ConfusionMatrix(tp=0, tn=5, fp=0, fn=0)).defined

    def test_matches_brute_ratios_on_random_matrices(self):
        rng = random.Random(90210)
        for _ in range(1000):
            cm = ConfusionMatrix(
                tp=rng.randint(0, 50), tn=rng.randint(0, 50),
                fp=rng.randint(0, 50), fn=rng.randint(0, 50),
            )
            if cm.n == 0:
                continue
            expected = brute_ratios({"tp": cm.tp, "tn": cm.tn, "fp": cm.fp, "fn": cm.fn})
            for name, fn in METRIC_FNS.items():
                value = fn(cm)
                assert value.exact == expected[name], (name, cm)


class TestFBeta:
    def test_beta_validation(self):
        for bad in (0, -1, "0", "-0.5"):
            with pytest.raises(ParameterError, match="positive"):
                f_beta(ConfusionMatrix(1, 1, 1, 1), bad)

    def test_display_name_round_trips_decimal_beta(self):
        value = f_beta(ConfusionMatrix(1, 1, 1, 1), "0.1")
        assert value.name == "fbeta"
        assert value.display_name == "fbeta:beta=0.1"
        third = f_beta(ConfusionMatrix(1, 1, 1, 1), Fraction(1, 3))
        assert third.display_name == "fbeta:beta=1/3"

    def test_beta_one_is_f1(self):
        cm = ConfusionMatrix(tp=3, tn=1, fp=2, fn=4)
        assert f_beta(cm, 1).display_name == "f1"
        assert f_beta(cm, 1).exact == f1(cm).exact

    def test_float_beta_normalized_via_repr(self):
        cm = ConfusionMatrix(tp=3, tn=1, fp=2, fn=4)
        assert f_beta(cm, 0.1) == f_beta(cm, Fraction(1, 10))
        assert f_beta(cm, 0.1).params == {"beta": "0.1"}

    def test_matches_precision_recall_composition(self):
        rng = random.Random(5150)
        betas = [Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(10)]
        checked = 0
        for _ in range(800):
            cm = ConfusionMatrix(
                tp=rng.randint(0, 30), tn=rng.randint(0, 30),
                fp=rng.randint(0, 30), fn=rng.randint(0, 30),
            )
            ratios = brute_ratios({"tp": cm.tp, "tn": cm.tn, "fp": cm.fp, "fn": cm.fn})
            beta = rng.choice(betas)
            expected = brute_fbeta_from_pr(ratios["ppv"], ratios["tpr"], beta)
            if expected is None:
                continue
            assert f_beta(cm, beta).exact == expected
            checked += 1
        assert checked > 400


class TestRoc:
    def test_tie_alarms_at_threshold(self):
        series = make_series(["benign", "attack"])
        scores = AlertSeries.from_scores("d", [0.5, 0.5], "series")
        curve = roc(series, scores, [0.5])
        point = curve.points[1]
        assert (point.fpr, point.tpr) == (1.0, 1.0)

    def test_synthetic_endpoints_and_threshold_order(self):
        series = make_series(["benign", "attack"])
        scores = AlertSeries.from_scores("d", [0.1, 0.9], "series")
        curve = roc(series, scores, [0.5, 0.05, 2.0])
        thresholds = [p.threshold for p in curve.points]
        assert thresholds == [float("inf"), 2.0, 0.5, 0.05, float("-inf")]
        assert (curve.points[0].fpr, curve.points[0].tpr) == (0.0, 0.0)
        assert (curve.points[-1].fpr, curve.points[-1].tpr) == (1.0, 1.0)

    def test_errors(self):
        series = make_series(["benign", "attack"])
        scores = AlertSeries.from_scores("d", [0.1, 0.9], "series")
        with pytest.raises(EvaluationError, match="scored alerts; .* score them with evaluate"):
            roc(series, make_alerts([True, False]), [0.5])
        with pytest.raises(ParameterError, match="threshold"):
            roc(series, scores, [])
        with pytest.raises(ParameterError, match="finite"):
            roc(series, scores, [float("nan")])
        benign_only = make_series(["benign", "benign"])
        with pytest.raises(EvaluationError, match="both attack and benign"):
            roc(benign_only, scores, [0.5])
        multi = make_series(["a", "b"])
        with pytest.raises(EvaluationError, match="both attack and benign"):
            roc(multi, scores, [0.5])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_multi_class_counts_any_type_as_positive(self, data):
        n = data.draw(st.integers(2, 40))
        labels = data.draw(st.lists(st.sampled_from(["benign", "dos", "scan", "spoof"]),
                                    min_size=n, max_size=n))
        labels[:2] = ["benign", data.draw(st.sampled_from(["dos", "scan", "spoof"]))]
        labels = data.draw(st.permutations(labels))
        pool = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(-2.0, 2.0)
        scores = data.draw(st.lists(pool, min_size=n, max_size=n))
        thresholds = data.draw(st.lists(pool, min_size=1, max_size=8))
        series = make_series(labels)
        alerts = AlertSeries.from_scores("d", scores, "series")
        curve = roc(series, alerts, thresholds)
        expected = roc(collapse_multiclass(series), alerts, thresholds)
        for got, want in zip((curve.thresholds, curve.fpr, curve.tpr),
                             (expected.thresholds, expected.fpr, expected.tpr)):
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_matches_brute_counting_on_random_scores(self):
        rng = random.Random(314)
        for _ in range(100):
            n = rng.randint(2, 40)
            labels = ["attack" if rng.random() < 0.4 else "benign" for _ in range(n)]
            if all(l == "benign" for l in labels):
                labels[0] = "attack"
            if all(l != "benign" for l in labels):
                labels[0] = "benign"
            scores = [round(rng.random(), 2) for _ in range(n)]
            thresholds = sorted({round(rng.random(), 2) for _ in range(5)}, reverse=True)
            if not thresholds:
                continue
            series = make_series(labels)
            curve = roc(series, AlertSeries.from_scores("d", scores, "series"), thresholds)
            expected = brute_roc_points(
                [l != "benign" for l in labels], scores, thresholds
            )
            for point, (efpr, etpr) in zip(curve.points[1:-1], expected):
                assert abs(point.fpr - float(efpr)) < 1e-12
                assert abs(point.tpr - float(etpr)) < 1e-12


class TestAuc:
    def test_trapezoid_hand_value(self):
        curve = RocCurve(
            thresholds=[float("inf"), 0.5, float("-inf")],
            fpr=[0.0, 0.25, 1.0],
            tpr=[0.0, 0.75, 1.0],
        )
        assert abs(auc(curve).value - (0.09375 + 0.65625)) < 1e-12

    def test_perfectly_separated_scores_give_auc_one(self):
        labels = ["benign"] * 5 + ["attack"] * 5
        scores = [0.1, 0.2, 0.1, 0.3, 0.2, 0.8, 0.9, 0.7, 0.8, 0.9]
        series = make_series(labels)
        curve = roc(series, AlertSeries.from_scores("d", scores, "series"), sorted(set(scores)))
        assert abs(auc(curve).value - 1.0) < 1e-12

    def test_auc_single_equals_trapezoid(self):
        rng = random.Random(777)
        for _ in range(500):
            cm = ConfusionMatrix(
                tp=rng.randint(0, 40), tn=rng.randint(0, 40),
                fp=rng.randint(0, 40), fn=rng.randint(0, 40),
            )
            expected = brute_auc_single({"tp": cm.tp, "tn": cm.tn, "fp": cm.fp, "fn": cm.fn})
            got = auc_single(cm)
            if expected is None:
                assert not got.defined
            else:
                assert got.exact == expected

    def test_auc_single_undefined_without_both_classes(self):
        assert not auc_single(ConfusionMatrix(tp=3, tn=0, fp=0, fn=1)).defined
        assert not auc_single(ConfusionMatrix(tp=0, tn=3, fp=1, fn=0)).defined


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_ratio_identities_hold_for_any_counts(tp_count, tn_count, fp_count, fn_count):
    cm = ConfusionMatrix(tp=tp_count, tn=tn_count, fp=fp_count, fn=fn_count)
    if tp_count + fn_count:
        assert tpr(cm).exact + fnr(cm).exact == 1
    if tn_count + fp_count:
        assert tnr(cm).exact + fpr(cm).exact == 1
    if cm.n:
        assert 0 <= accuracy(cm).exact <= 1


def test_multiclass_collapse_then_confusion():
    series = make_series(["benign", "a", "b", "benign"])
    alerts = make_alerts([False, True, True, True])
    cm = confusion(collapse_multiclass(series), alerts)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 1, 0)


def test_benign_class_tpr_on_inverted_alerts_is_tnr():
    """Per-class scoring with benign as the positive class recovers TNR."""
    rng = random.Random(11)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 64)
        labels = [rng.choice(["benign", "dos", "spoof"]) for _ in range(n)]
        alerts = [rng.random() < 0.5 for _ in range(n)]
        cm = confusion(collapse_multiclass(make_series(labels)), make_alerts(alerts))
        benign_positive = make_series(
            ["quiet" if lab == "benign" else "benign" for lab in labels]
        )
        flipped = confusion(benign_positive, make_alerts([not v for v in alerts]))
        assert tpr(flipped).defined == tnr(cm).defined
        if tnr(cm).defined:
            assert tpr(flipped).exact == tnr(cm).exact
            checked += 1
    assert checked >= 150
