"""Acceptance gate: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. Each test pins its tolerance and, where the criterion includes a
budget, its wall-clock limit. Randomized checks use fixed seeds so a failure
is always reproducible.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from idseval import (
    AlertSeries,
    BaselineSpec,
    ConfusionMatrix,
    EtaParams,
    LabeledSeries,
    RocCurve,
    accuracy,
    affiliation,
    alerts_to_intervals,
    auc,
    auc_single,
    confusion,
    etapr,
    evaluate_detector,
    extract_scenarios,
    f1,
    f_beta,
    fnr,
    format_cell,
    fpr,
    generate,
    load_labels,
    npv,
    ppv,
    render_timeline,
    save_alerts,
    tnr,
    tpr,
    validate_pair,
)
from idseval.cli import parse_min_width
from oracles.affiliation_oracle import affiliation_oracle
from oracles.brute import brute_auc_single, brute_confusion, brute_fbeta_from_pr, brute_ratios
from oracles.eta_oracle import eta_oracle
from support import (
    alerts_from_intervals,
    labels_from_intervals,
    make_alerts,
    make_series,
    random_binary_instance,
    random_intervals,
)

RATIO_METRICS = {
    "tpr": tpr, "fnr": fnr, "tnr": tnr, "fpr": fpr,
    "ppv": ppv, "npv": npv, "accuracy": accuracy, "f1": f1,
}


def test_criterion_01_never_alarm_scores_088_accuracy_on_12pct_attacks():
    """12% attack points, never-alarm detector: accuracy exactly 88/100; <1 s."""
    started = time.perf_counter()
    labels = ["attack"] * 120 + ["benign"] * 880
    series = make_series(labels)
    alerts = generate(BaselineSpec.parse("baseline:never"), series)
    value = accuracy(confusion(series, alerts))
    elapsed = time.perf_counter() - started
    assert value.exact == Fraction(88, 100)  # exact rational, not approximate
    assert format_cell(value) == "0.880"
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_criterion_02_validate_pair_reports_exact_attack_fractions(tmp_path):
    """Label files with 22% and 12% attack points report those fractions exactly."""
    for pct, filename in ((22, "a.csv"), (12, "b.csv")):
        rows = ["timestamp,label"]
        for t in range(1000):
            rows.append(f"{t},{'attack' if t < pct * 10 else 'benign'}")
        path = tmp_path / filename
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        report = validate_pair(load_labels(path))
        assert report.attack_fraction == Fraction(pct, 100)  # exact, tolerance 0


def test_criterion_03_pointwise_metrics_match_brute_force_on_1000_instances():
    """1000 random label/alert pairs (len <= 64): counts bit-exact, ratios exact
    (criterion tolerance 1e-12; exact rational equality implies it); <10 s."""
    started = time.perf_counter()
    rng = random.Random(60601)
    betas = [Fraction(1, 10), Fraction(10)]
    for trial in range(1000):
        labels, alert_values = random_binary_instance(rng)
        series = make_series(labels)
        cm = confusion(series, make_alerts(alert_values))
        truth = [lab != "benign" for lab in labels]
        counts = brute_confusion(truth, alert_values)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (
            counts["tp"], counts["tn"], counts["fp"], counts["fn"],
        ), trial
        ratios = brute_ratios(counts)
        for name, fn in RATIO_METRICS.items():
            assert fn(cm).exact == ratios[name], (trial, name)
        for beta in betas:
            expected = brute_fbeta_from_pr(ratios["ppv"], ratios["tpr"], beta)
            if expected is not None:
                assert f_beta(cm, beta).exact == expected, (trial, beta)
        assert auc_single(cm).exact == brute_auc_single(counts), trial
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.3f}s, budget 10s"


def test_criterion_04_metric_identities_on_10k_confusion_matrices():
    """TPR+FNR=1, TNR+FPR=1, F1 counts==harmonic, min(P,R)<=Fb<=max(P,R),
    auc_single == trapezoid AuC of the one-point curve; tolerance 1e-12."""
    rng = random.Random(41414)
    for trial in range(10_000):
        cm = ConfusionMatrix(
            tp=rng.randint(0, 100), tn=rng.randint(0, 100),
            fp=rng.randint(0, 100), fn=rng.randint(0, 100),
        )
        if cm.n == 0:
            continue
        if cm.tp + cm.fn:
            assert tpr(cm).exact + fnr(cm).exact == 1, trial
        if cm.tn + cm.fp:
            assert tnr(cm).exact + fpr(cm).exact == 1, trial
        precision, recall = ppv(cm).exact, tpr(cm).exact
        if precision is not None and recall is not None:
            harmonic = brute_fbeta_from_pr(precision, recall, Fraction(1))
            assert f1(cm).exact == harmonic, trial
            beta = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            value = f_beta(cm, beta).exact
            assert min(precision, recall) <= value <= max(precision, recall), trial
        single = auc_single(cm)
        if single.defined:
            curve = RocCurve(
                thresholds=[float("inf"), 0.5, float("-inf")],
                fpr=[0.0, float(fpr(cm).exact), 1.0],
                tpr=[0.0, float(tpr(cm).exact), 1.0],
            )
            assert abs(auc(curve).value - single.value) <= 1e-12, trial


def test_criterion_05_timeaware_scores_match_oracles_on_500_instances():
    """etapr and affiliation match independent exact-arithmetic oracles within
    1e-9 on 500+ random instances (<=8 scenarios, span <= 10^4 ticks)."""
    rng = random.Random(31337)
    eta_params = EtaParams()
    checked = 0
    trial = 0
    while checked < 500:
        trial += 1
        n = rng.randint(2, 400)
        attacks = random_intervals(rng, n, 8)
        if not attacks:
            continue
        alerts = random_intervals(rng, n, 8)
        if rng.random() < 0.1:
            ts, cur = [], 0
            step_cap = max(1, 10_000 // n)
            for _ in range(n):
                ts.append(cur)
                cur += rng.randint(1, step_cap)
        else:
            ts = list(range(n))
        series = make_series(labels_from_intervals(n, attacks), timestamps=ts)
        scenarios = extract_scenarios(series)

        eta_got = etapr(scenarios, alerts, eta_params)
        eta_want = eta_oracle(attacks, alerts)
        for got, want in zip(
            (eta_got.precision_like, eta_got.recall_like, eta_got.f1_like), eta_want
        ):
            if want is None:
                assert got is None, trial
            else:
                assert got == pytest.approx(float(want), abs=1e-9), trial

        aff_got, _ = affiliation(scenarios, alerts, series)
        aff_want = affiliation_oracle(
            [(Fraction(ts[a]), Fraction(ts[b]) + 1) for a, b in attacks],
            [(Fraction(ts[a]), Fraction(ts[b]) + 1) for a, b in alerts],
            (Fraction(ts[0]), Fraction(ts[-1]) + 1),
        )
        for got, want in zip(
            (aff_got.precision_like, aff_got.recall_like, aff_got.f1_like), aff_want
        ):
            if want is None:
                assert got is None, trial
            else:
                assert got == pytest.approx(float(want), abs=1e-9), trial
        checked += 1
    assert checked >= 500


def test_criterion_06_etar_weighs_short_and_long_scenarios_equally():
    """Scenarios of 10 and 1000 points, only the short one covered: eTaR is
    exactly 1/2 (asserted to 1e-9 and exactly against the oracle)."""
    n = 1100
    attacks = [(0, 9), (100, 1099)]
    series = make_series(labels_from_intervals(n, attacks))
    scores = etapr(extract_scenarios(series), [(0, 9)])
    assert scores.recall_like == pytest.approx(0.5, abs=1e-9)
    oracle = eta_oracle(attacks, [(0, 9)])
    assert oracle[1] == Fraction(1, 2)


def test_criterion_07_random_baseline_fpr_near_p_and_regenerates_identically(tmp_path):
    """p=0.5 baseline on 10^4 benign points: FPR in [0.45, 0.55]; regeneration
    under the same seed is byte-identical on disk."""
    series = make_series(["benign"] * 10_000, name="quiet")
    spec = BaselineSpec.parse("baseline:random:p=0.5:seed=1234")
    alerts = generate(spec, series)
    rate = fpr(confusion(series, alerts))
    assert Fraction(45, 100) <= rate.exact <= Fraction(55, 100)
    again = generate(spec, series)
    assert np.array_equal(alerts.values, again.values)
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_alerts(alerts, series, first)
    save_alerts(again, series, second)
    assert first.read_bytes() == second.read_bytes()


def test_criterion_08_affiliation_prefers_coin_flip_where_etaf1_does_not():
    """Frozen instance (8 scenarios of 50 in 4000 points, sparse detector covers
    scenarios 0 and 4, coin flip p=0.5 seed=0): affiliation F1 ranks the coin
    flip above the sparse detector while eTaF1 ranks them the other way, both
    with margin > 0.05. Found by scripts/find_pathology.py."""
    n, spacing, length = 4000, 500, 50
    attack_spans = [
        (k * spacing + (spacing - length) // 2,
         k * spacing + (spacing - length) // 2 + length - 1)
        for k in range(8)
    ]
    series = make_series(labels_from_intervals(n, attack_spans), name="pathology")
    scenarios = extract_scenarios(series)

    sparse = make_alerts(
        alerts_from_intervals(n, [attack_spans[0], attack_spans[4]]),
        detector="sparse", aligned_to="pathology",
    )
    coin = generate(BaselineSpec.parse("baseline:random:p=0.5:seed=0"), series)

    def scores(alerts: AlertSeries) -> tuple[float, float]:
        intervals = alerts_to_intervals(alerts, series)
        aff, _ = affiliation(scenarios, intervals, series)
        eta = etapr(scenarios, intervals)
        return aff.f1_like, eta.f1_like

    sparse_aff, sparse_eta = scores(sparse)
    coin_aff, coin_eta = scores(coin)
    # The sparse detector's scores are exactly 0.4 on both families.
    assert sparse_aff == pytest.approx(0.4, abs=1e-12)
    assert sparse_eta == pytest.approx(0.4, abs=1e-12)
    assert coin_aff > sparse_aff + 0.05, (coin_aff, sparse_aff)
    assert sparse_eta > coin_eta + 0.05, (sparse_eta, coin_eta)


def test_criterion_09_f01_breaks_f1_tie_toward_precision():
    """(P,R)=(0.9,0.3) vs (0.3,0.9): F1 ties exactly; F0.1 strictly prefers
    the high-precision detector (exact rationals, tolerance 0 <= 1e-12)."""
    precise = ConfusionMatrix(tp=27, tn=0, fp=3, fn=63)
    sensitive = ConfusionMatrix(tp=27, tn=0, fp=63, fn=3)
    assert ppv(precise).exact == Fraction(9, 10)
    assert tpr(precise).exact == Fraction(3, 10)
    assert ppv(sensitive).exact == Fraction(3, 10)
    assert tpr(sensitive).exact == Fraction(9, 10)
    assert f1(precise).exact == f1(sensitive).exact  # exact tie
    f01_precise = f_beta(precise, "0.1").exact
    f01_sensitive = f_beta(sensitive, "0.1").exact
    assert f01_precise > f01_sensitive


def test_criterion_10_timeline_widens_one_tick_alarm_to_60_ticks():
    """--min-width 60s at 1 s ticks draws a 1-tick alarm 60 ticks wide; exempt
    detectors keep true width; the SVG is byte-deterministic."""
    assert parse_min_width("60s", Fraction(1)) == 60.0
    series = make_series(["benign"] * 300 + ["attack"] * 20 + ["benign"] * 280, name="rig")
    blip = [False] * 600
    blip[310] = True
    detector = make_alerts(blip, detector="blip", aligned_to="rig")
    exempt = make_alerts(blip, detector="coin", aligned_to="rig")

    rendering = render_timeline(
        series, [detector, exempt], min_width_ticks=parse_min_width("60s", Fraction(1)),
        exempt=["coin"],
    )
    widened_lane = rendering.lanes[1]
    assert widened_lane.true_spans.tolist() == [[310.0, 311.0]]
    drawn = widened_lane.drawn_spans[0]
    assert drawn[1] - drawn[0] == pytest.approx(60.0, abs=1e-12)
    assert widened_lane.widened.tolist() == [True]
    exempt_lane = rendering.lanes[2]
    assert exempt_lane.drawn_spans.tolist() == [[310.0, 311.0]]
    assert exempt_lane.widened.tolist() == [False]

    again = render_timeline(
        series, [detector, exempt], min_width_ticks=60.0, exempt=["coin"]
    )
    assert rendering.svg.encode("utf-8") == again.svg.encode("utf-8")


def test_criterion_11_million_point_evaluation_under_5_seconds():
    """All point metrics plus detected-scenarios and detection-delay on a
    1,000,000-point series with 50 scenarios complete in < 5 s."""
    n, n_scenarios, length = 1_000_000, 50, 1000
    codes = np.zeros(n, dtype=np.int32)
    starts = [k * (n // n_scenarios) + 5000 for k in range(n_scenarios)]
    for start in starts:
        codes[start:start + length] = 1
    series = LabeledSeries(
        name="big",
        timestamps=np.arange(n, dtype=np.int64),
        label_codes=codes,
        attack_types=("attack",),
    )
    values = np.zeros(n, dtype=bool)
    for start in starts[::2]:
        values[start + 100:start + length + 400] = True
    for pos in range(0, n, 10_000):
        values[pos:pos + 5] = True
    alerts = AlertSeries.from_bool("det", values, "big")

    metrics = [
        "confusion", "accuracy", "tpr", "fnr", "tnr", "fpr", "ppv", "npv",
        "f1", "fbeta:beta=0.1", "auc-single", "detected-scenarios", "detection-delay",
    ]
    started = time.perf_counter()
    report = evaluate_detector(series, alerts, metrics=metrics)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"
    assert report.get("detected-scenarios").exact is not None
    assert len(report.scenario_details) == n_scenarios
