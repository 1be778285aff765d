"""Array-backed ROC sweep against the per-threshold reference.

``oracles/roc_oracle.py`` keeps the loop idseval began with: one
``RocPoint`` per distinct threshold, a Python trapezoid sum and
``csv.writer``. The array sweep must give the same thresholds and
coordinates bit for bit (``0.0`` and ``-0.0`` are told apart), an equal
area and equal CSV text, for any thresholds: tied scores, signed zeros in
either order, thresholds outside the score range, duplicated and unsorted
lists and a single threshold. The templated CSV and JSON writers must give
the text of ``csv.writer`` and of ``json.dumps(payload, indent=2)`` for any
curve, with rows split into chunks of any size.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idseval import (
    AlertSeries,
    ParameterError,
    RocCurve,
    RocPoint,
    auc,
    load_alerts,
    load_labels,
    roc,
    roc_to_csv,
)
from idseval import pointwise, report
from idseval.cli import main
from idseval.model import LabeledSeries, collapse_multiclass
from idseval.report import roc_json_chunks
from oracles import roc_oracle
from support import make_series

DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"
# roc.json of ``roc --auto --format json`` on the demo data, as the per-point code wrote it.
DEMO_ROC_JSON_SHA256 = "513a7276401a591c37e7793f56160df1fe153b50e792b4e606138036d2c8d845"
# Ties, both signed zeros, neighbours one ulp apart and a subnormal.
POOL = (-1.0, -0.0, 0.0, 5e-324, 0.25, 0.5, 0.5000000000000001, 1.0, 3.0)
finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def assert_same_sweep(attack: list[bool], scores: list[float], thresholds) -> None:
    series = make_series(["attack" if a else "benign" for a in attack])
    alerts = AlertSeries.from_scores("d", scores, "series")
    curve = roc(series, alerts, thresholds)
    expected = roc_oracle.roc(series, alerts, list(thresholds))
    assert bits(curve.thresholds) == bits([p.threshold for p in expected.points])
    assert bits(curve.fpr) == bits([p.fpr for p in expected.points])
    assert bits(curve.tpr) == bits([p.tpr for p in expected.points])
    assert curve.points == tuple(
        RocPoint(p.threshold, p.fpr, p.tpr) for p in expected.points
    )
    area, expected_area = auc(curve).value, roc_oracle.auc(expected).value
    assert type(area) is float
    assert bits([area]) == bits([expected_area])
    assert roc_to_csv(curve) == roc_oracle.roc_to_csv(expected)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 60))
    attack = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    positive, negative = draw(st.permutations(range(n)))[:2]
    attack[positive], attack[negative] = True, False
    scores = draw(st.lists(st.sampled_from(POOL) | finite, min_size=n, max_size=n))
    outside = st.sampled_from((-1e6, -11.0, 11.0, 1e300))
    thresholds = draw(st.lists(
        st.sampled_from(scores) | st.sampled_from(POOL) | outside | finite,
        min_size=1, max_size=25,
    ))
    return attack, scores, thresholds


@settings(max_examples=200, deadline=None)
@given(instances())
def test_matches_reference_sweep(instance):
    attack, scores, thresholds = instance
    assert_same_sweep(attack, scores, thresholds)
    assert_same_sweep(attack, scores, tuple(thresholds))
    assert_same_sweep(attack, scores, np.array(thresholds))


@pytest.mark.parametrize(
    "scores,thresholds",
    [
        ([0.0, -0.0, 0.0, -0.0], [0.0, -0.0]),
        ([0.0, -0.0, 0.0, -0.0], [-0.0, 0.0]),
        ([-0.0, 0.0, 1.0, -1.0], [-0.0, 1.0, 0.0, -0.0]),
        ([0.5, 0.5, 0.5, 0.5], [0.5]),
        ([0.1, 0.9, 0.4, 0.4], [7.0, -7.0]),
        ([0.1, 0.9, 0.4, 0.4], [0.4, 0.1, 0.4, 0.9, 0.1, 2.0]),
        ([0.1, 0.9, 0.4, 0.4], [0.3]),
    ],
)
def test_named_cases(scores, thresholds):
    assert_same_sweep([False, True, True, False], scores, thresholds)


@pytest.mark.parametrize("first,second", [(0.0, -0.0), (-0.0, 0.0)])
def test_first_listed_signed_zero_is_kept(first, second):
    series = make_series(["benign", "attack"])
    alerts = AlertSeries.from_scores("d", [-0.0, 0.0], "series")
    curve = roc(series, alerts, [first, second])
    assert bits(curve.thresholds[1:2]) == bits([first])


def test_auto_sweep_over_many_tied_scores():
    rng = np.random.default_rng(17)
    attack = (rng.random(5000) < 0.3).tolist()
    scores = np.round(rng.random(5000), 2).tolist()
    assert_same_sweep(attack, scores, np.unique(scores))


def test_sorted_distinct_thresholds_skip_the_dedup_but_not_the_copy():
    # --auto passes np.unique output; such input is swept as given.
    attack, scores = [False, True, True, False], [0.1, 0.9, 0.4, -0.0]
    thresholds = np.array([-0.0, 0.1, 0.4, 2.0])
    assert_same_sweep(attack, scores, thresholds)
    assert_same_sweep(attack, scores, np.array([0.0, 0.0, 0.4]))  # not strictly increasing
    curve = roc(make_series(["attack" if a else "benign" for a in attack]),
                AlertSeries.from_scores("d", scores, "series"), thresholds)
    thresholds[:] = 7.0
    assert bits(curve.thresholds) == bits([np.inf, 2.0, 0.4, 0.1, -0.0, -np.inf])


def test_curve_shares_the_read_only_arrays_roc_builds(monkeypatch):
    built = []

    def record(**arrays):
        built.append(arrays)
        return RocCurve(**arrays)

    monkeypatch.setattr(pointwise, "RocCurve", record)
    attack, scores = [False, True, True, False, True], [0.1, 0.9, 0.4, -0.0, 0.4]
    for thresholds in ([0.4, -0.0, 0.4, 2.0], np.array([-0.0, 0.1, 0.4])):
        curve = roc(make_series(["attack" if a else "benign" for a in attack]),
                    AlertSeries.from_scores("d", scores, "series"), thresholds)
        for name, array in built.pop().items():
            assert not array.flags.writeable
            assert np.shares_memory(array, getattr(curve, name))
        assert_same_sweep(attack, scores, thresholds)


def test_sweep_peak_memory_is_bounded_by_the_curve():
    # ~200k distinct thresholds over 220k points. The curve's three arrays are
    # kept; besides them the sweep holds one class's sorted scores and one
    # count per threshold (each at most a third of the curve) and a mask.
    n = 220_000
    rng = np.random.default_rng(3)
    series = LabeledSeries("s", np.arange(n), (rng.random(n) < 0.1).astype(np.int32), ("attack",))
    alerts = AlertSeries.from_scores("d", np.round(rng.random(n), 6), "s")
    thresholds = np.unique(alerts.values)
    assert len(thresholds) > 190_000
    tracemalloc.start()
    try:
        curve = roc(series, alerts, thresholds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    curve_bytes = curve.thresholds.nbytes + curve.fpr.nbytes + curve.tpr.nbytes
    assert peak < 2 * curve_bytes


def assert_same_auto_sweep(attack: list[bool], scores: list[float]) -> None:
    """``roc`` without thresholds, or given the alerts' own scores, sweeps what
    ``np.unique`` gives: the same curve, bit for bit, as ``roc`` over those
    values, and the reference's."""
    series = make_series(["attack" if a else "benign" for a in attack])
    alerts = AlertSeries.from_scores("d", scores, "series")
    distinct = np.unique(alerts.values)
    listed = roc(series, alerts, distinct)
    for curve in (roc(series, alerts), roc(series, alerts, alerts.values)):
        for name in ("thresholds", "fpr", "tpr"):
            assert bits(getattr(curve, name)) == bits(getattr(listed, name)), name
    assert bits(curve.thresholds[-2:0:-1]) == bits(distinct)
    assert_same_sweep(attack, scores, distinct)


@st.composite
def auto_instances(draw):
    n = draw(st.integers(2, 80))
    attack = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    positive, negative = draw(st.permutations(range(n)))[:2]
    attack[positive], attack[negative] = True, False
    values = st.sampled_from(POOL) if draw(st.booleans()) else st.sampled_from(POOL) | finite
    return attack, draw(st.lists(values, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(auto_instances())
def test_auto_sweep_matches_reference_and_np_unique(instance):
    assert_same_auto_sweep(*instance)


@pytest.mark.parametrize(
    "attack,scores",
    [
        ([False, True, True, False], [0.5, 0.5, 0.1, 0.1]),  # ties
        ([False, True, True, False], [0.3, 0.3, 0.3, 0.3]),  # all equal
        ([True, False, False, False], [0.2, 0.9, 0.2, -1.0]),  # one attack point
        ([True, True, True, False], [0.2, 0.9, 0.2, -1.0]),  # one benign point
        ([True, False], [0.7, 0.7]),
        ([False, True, True, False], [-0.0, 0.0, 0.0, -0.0]),
        ([False, True, True, False], [0.0, -0.0, -0.0, 0.0]),
        ([False, True] * 12, [-0.0] + [0.0] * 22 + [1.0]),  # past insertion-sort sizes
        ([False, True] * 12, [0.0] + [-0.0] * 22 + [1.0]),
    ],
)
def test_auto_sweep_named_cases(attack, scores):
    assert_same_auto_sweep(attack, scores)


@pytest.mark.parametrize("scores", [[-0.0, 0.0], [0.0, -0.0]])
def test_auto_sweep_keeps_the_signed_zero_np_unique_keeps(scores):
    # Of two values np.unique keeps the first in file order; repr writes the sign.
    curve = roc(make_series(["benign", "attack"]), AlertSeries.from_scores("d", scores, "series"))
    assert bits(curve.thresholds[1:2]) == bits(scores[:1]) == bits(np.unique(scores))
    assert repr(curve.points[1].threshold) == repr(scores[0])


def test_auto_sweep_peak_memory_is_bounded_by_the_curve():
    # As above, with the distinct scores found by the sweep's own sort.
    n = 220_000
    rng = np.random.default_rng(3)
    series = LabeledSeries("s", np.arange(n), (rng.random(n) < 0.1).astype(np.int32), ("attack",))
    alerts = AlertSeries.from_scores("d", np.round(rng.random(n), 6), "s")
    tracemalloc.start()
    try:
        curve = roc(series, alerts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve.thresholds) > 190_000
    curve_bytes = curve.thresholds.nbytes + curve.fpr.nbytes + curve.tpr.nbytes
    assert peak < 2 * curve_bytes


class TestRocCurve:
    def test_holds_read_only_float64_arrays(self):
        curve = RocCurve(thresholds=[np.inf, 1, -np.inf], fpr=[0, 0.5, 1], tpr=[0, 1, 1])
        for array in (curve.thresholds, curve.fpr, curve.tpr):
            assert array.dtype == np.float64
            assert not array.flags.writeable
        assert curve.points[1] == RocPoint(1.0, 0.5, 1.0)
        assert curve == RocCurve(curve.thresholds, [0.0, 0.5, 1.0], [-0.0, 1.0, 1.0])
        assert curve != RocCurve(curve.thresholds, [0.0, 0.25, 1.0], curve.tpr)

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ValueError, match="sorted by threshold descending"):
            RocCurve(thresholds=[np.inf, 0.2, 0.5, -np.inf], fpr=[0, 0, 0, 1], tpr=[0, 0, 0, 1])

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    @pytest.mark.parametrize("axis", ["fpr", "tpr"])
    def test_coordinates_outside_unit_interval_rejected(self, bad, axis):
        coords = {"fpr": [0.0, 0.5, 1.0], "tpr": [0.0, 0.5, 1.0]}
        coords[axis][1] = bad
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            RocCurve(thresholds=[np.inf, 0.5, -np.inf], **coords)

    @pytest.mark.parametrize(
        "thresholds,fpr,tpr",
        [([np.inf, -np.inf], [0.0, 1.0], [0.0]), ([[np.inf]], [[0.0]], [[0.0]])],
    )
    def test_shape_mismatch_rejected(self, thresholds, fpr, tpr):
        with pytest.raises(ValueError, match="equal-length 1-D arrays"):
            RocCurve(thresholds, fpr, tpr)

    def test_nested_thresholds_rejected(self):
        series = make_series(["benign", "attack"])
        alerts = AlertSeries.from_scores("d", [0.1, 0.9], "series")
        with pytest.raises(ParameterError, match="flat sequence"):
            roc(series, alerts, [[0.5]])


def test_demo_roc_json_matches_the_per_point_payload(tmp_path, capsys, monkeypatch):
    """roc.json on the demo data, byte for byte as the per-point code built it."""
    monkeypatch.delenv("IDSEVAL_OUT", raising=False)
    code = main([
        "roc", "--config", str(DEMO / "manifest.json"), "--alerts", str(DEMO / "scored.jsonl"),
        "--auto", "--format", "json", "--out", str(tmp_path),
    ])
    assert code == 0
    series = collapse_multiclass(load_labels(DEMO / "labels.csv", name="demo"))
    alert = load_alerts(DEMO / "scored.jsonl", series)
    curve = roc_oracle.roc(series, alert, [float(v) for v in np.unique(alert.values)])
    area = roc_oracle.auc(curve)

    def encode(value: float) -> float | str:
        return value if np.isfinite(value) else ("inf" if value > 0 else "-inf")

    payload = {
        "dataset": series.name,
        "detector": alert.detector,
        "auc": area.value,
        "points": [
            {"threshold": encode(p.threshold), "fpr": p.fpr, "tpr": p.tpr}
            for p in curve.points
        ],
    }
    expected = json.dumps(payload, indent=2) + "\n"
    written = (tmp_path / "roc.json").read_bytes()
    assert written == expected.encode("utf-8")
    assert hashlib.sha256(written).hexdigest() == DEMO_ROC_JSON_SHA256
    assert f"auc: {area.value:.6f}" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_streams_the_writers_text_in_small_chunks(tmp_path, capsys, monkeypatch, fmt):
    """roc.csv and roc.json are written chunk by chunk, each chunk a few rows."""
    monkeypatch.delenv("IDSEVAL_OUT", raising=False)
    monkeypatch.setattr(report, "_ROWS", 3)
    code = main([
        "roc", "--config", str(DEMO / "manifest.json"), "--alerts", str(DEMO / "scored.jsonl"),
        "--auto", "--format", fmt, "--out", str(tmp_path),
    ])
    assert code == 0
    written = (tmp_path / f"roc.{fmt}").read_bytes()
    if fmt == "json":
        assert hashlib.sha256(written).hexdigest() == DEMO_ROC_JSON_SHA256
        return
    series = collapse_multiclass(load_labels(DEMO / "labels.csv", name="demo"))
    alert = load_alerts(DEMO / "scored.jsonl", series)
    curve = roc_oracle.roc(series, alert, [float(v) for v in np.unique(alert.values)])
    assert written == roc_oracle.roc_to_csv(curve).encode("utf-8")


def test_json_chunks_check_the_curve_before_any_text():
    curve = RocCurve([np.inf, np.inf, -np.inf], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="infinite only at either end"):
        report.roc_json_chunks(curve, "d", "x", None)


def payload_json(curve: RocCurve, dataset: str, detector: str, area) -> str:
    """roc.json as the per-point code built it: one dict per point, then json.dumps."""
    thresholds = curve.thresholds.tolist()
    thresholds[0], thresholds[-1] = "inf", "-inf"
    payload = {
        "dataset": dataset,
        "detector": detector,
        "auc": area,
        "points": [
            {"threshold": t, "fpr": f, "tpr": r}
            for t, f, r in zip(thresholds, curve.fpr.tolist(), curve.tpr.tolist())
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


COORDS = (0.0, -0.0, 5e-324, 1 / 3, 0.5, 0.5000000000000001, 1.0)


@st.composite
def curves(draw):
    inner = draw(st.lists(st.sampled_from(POOL) | finite | st.just(1e300), max_size=12))
    n = len(inner) + 2
    coords = st.lists(st.sampled_from(COORDS) | st.floats(0.0, 1.0), min_size=n, max_size=n)
    return RocCurve(
        thresholds=[np.inf, *sorted(inner, reverse=True), -np.inf],
        fpr=draw(coords),
        tpr=draw(coords),
    )


names = st.text() | st.sampled_from(
    ('plain', 'say "hi"\\', "d\u00e9j\u00e0 \u03bc", "\U0001f600\n\t")
)


def roc_json(curve, dataset, detector, area) -> str:
    """The text of ``roc --format json``: its pieces, joined."""
    return b"".join(roc_json_chunks(curve, dataset, detector, area)).decode()


@settings(max_examples=300, deadline=None)
@given(
    curves(),
    names,
    names,
    st.none() | st.floats(allow_infinity=False) | st.sampled_from((0.0, -0.0, 1.0)),
    st.sampled_from((1, 2, 3, None)),
)
def test_writers_match_csv_writer_and_json_dumps(curve, dataset, detector, area, rows):
    with mock.patch.object(report, "_ROWS", rows or report._ROWS):
        csv_text = roc_to_csv(curve)
        json_text = roc_json(curve, dataset, detector, area)
    assert csv_text == roc_oracle.roc_to_csv(curve)
    assert json_text == payload_json(curve, dataset, detector, area)


def test_csv_keeps_signed_zeros_apart_in_tpr():
    curve = RocCurve(
        thresholds=[np.inf, 2.0, 1.0, 0.0, -np.inf],
        fpr=[0.0, 0.0, -0.0, 0.5, 1.0],
        tpr=[0.0, -0.0, 0.0, -0.0, 1.0],
    )
    assert roc_to_csv(curve).splitlines()[2:-1] == ["2.0,0.0,-0.0", "1.0,-0.0,0.0", "0.0,0.5,-0.0"]
    assert roc_to_csv(curve) == roc_oracle.roc_to_csv(curve)


def test_json_of_a_two_point_curve():
    curve = RocCurve(thresholds=[np.inf, -np.inf], fpr=[0.0, 1.0], tpr=[0.0, 1.0])
    for area in (0.5, None):
        assert roc_json(curve, "d", "x", area) == payload_json(curve, "d", "x", area)


@pytest.mark.parametrize("inner", [[np.inf], [np.nan], [1.0, -np.inf, -np.inf]])
def test_json_rejects_infinite_inner_thresholds(inner):
    curve = RocCurve([np.inf, *inner, -np.inf], [0.0] * (len(inner) + 2), [0.0] * (len(inner) + 2))
    with pytest.raises(ValueError, match="infinite only at either end"):
        roc_json(curve, "d", "x", None)
