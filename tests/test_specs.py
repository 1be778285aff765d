"""One spec grammar: metric and baseline specs, their declared parameters and the catalog."""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from idseval import CATALOG, BaselineSpec, ParameterError, catalog_lines, evaluate_detector
from idseval import ConfusionMatrix, EtaParams, IngestError, LabeledSeries, load_labels
from idseval import load_manifest
from idseval import cli, confusion, evaluate, f_beta, load_alerts
from idseval.evaluate import bind_metric
from idseval.model import exact_param, format_fraction
from support import make_alerts, make_series

README = Path(__file__).resolve().parents[1] / "README.md"

CATALOG_LINES = [
    "  confusion: TP/TN/FP/FN counts",
    "  accuracy: fraction of correctly classified points",
    "  tpr (alias: recall): true positive rate (recall)",
    "  fnr: false negative rate",
    "  tnr: true negative rate",
    "  fpr: false positive rate",
    "  ppv (alias: precision): positive predictive value (precision)",
    "  npv: negative predictive value",
    "  f1: harmonic mean of precision and recall",
    "  fbeta: F-score weighting recall by beta [beta=<positive number> (required)]",
    "  auc-single: area under the one-point ROC: 1 - (FPR + FNR)/2",
    "  scenario-recall: mean per-scenario fraction of alerted points",
    "  detected-scenarios: fraction of attack instances with any alert"
    " [by-type (flag: count attack types instead)]",
    "  detection-delay: ticks from scenario start to first alert",
    "  etapr: enhanced time-aware precision/recall (etap, etar, etaf1)"
    " [theta_p=, theta_r=, weight= (defaults 0.5, 0.1, 0.5)]",
    "  affiliation: zone-based affiliation precision/recall/F1",
]


def test_catalog_lines_are_pinned():
    assert catalog_lines() == CATALOG_LINES


def _readme_catalog_rows() -> dict[str, str]:
    """README's "Metric catalog" table rows, by the metric name in their first cell."""
    section = README.read_text(encoding="utf-8").split("## Metric catalog", 1)[1]
    rows = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        if line.startswith("| `"):
            rows[line.split("`")[1]] = line
    return rows


def test_readme_catalog_names_every_metric_alias_and_parameter():
    rows = _readme_catalog_rows()
    assert list(rows) == [definition.name for definition in CATALOG]
    for definition in CATALOG:
        row = rows[definition.name]
        for word in definition.aliases + tuple(param.key for param in definition.params):
            assert f"`{word}" in row, (definition.name, word)


def test_every_spec_is_bound_before_the_first_metric_runs(monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("affiliation ran before every spec was checked")

    monkeypatch.setattr(evaluate, "affiliation", not_called)
    with pytest.raises(ParameterError, match="beta must be positive"):
        evaluate_detector(
            make_series(["dos", "benign"]),
            make_alerts([True, False]),
            metrics=["affiliation", "fbeta:beta=0"],
        )


@pytest.mark.parametrize(
    "spec,match",
    [
        ("etapr:weight=2", r"weight must lie in \[0, 1\], got 2"),
        ("etapr:theta_r=1/0", "malformed parameter: theta_r is not a number"),
        ("recall:beta=1", "metric 'tpr' takes no parameters, got: beta"),
    ],
)
def test_metric_parameters_are_checked_when_bound(spec, match):
    with pytest.raises(ParameterError, match=match):
        evaluate_detector(make_series(["dos", "benign"]), make_alerts([True, False]), [spec])


@pytest.mark.parametrize(
    "text,match",
    [
        ("baseline:random:p=1/2", "malformed parameter: p is not a number: '1/2'"),
        ("baseline:random:p=0.5:seed=1.5", "malformed parameter: seed is not an integer"),
        ("baseline:random:p=0.5:", "empty parameter in baseline spec"),
        ("baseline:", "empty baseline name"),
    ],
)
def test_baseline_specs_use_the_metric_grammar(text, match):
    with pytest.raises(ParameterError, match=match):
        BaselineSpec.parse(text)


def _labels(tmp_path: Path) -> Path:
    path = tmp_path / "labels.csv"
    path.write_text("timestamp,label\n0,benign\n1,dos\n", encoding="utf-8")
    return path


def _manifest_tick(tmp_path: Path, raw) -> Fraction:
    _labels(tmp_path)
    value = str(raw) if isinstance(raw, Fraction) else raw  # JSON holds no Fraction
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": "m", "labels": "labels.csv", "tick_seconds": value}))
    return load_manifest(path).tick_seconds


def _cli_tick(tmp_path: Path, raw) -> Fraction:
    argv = ["baseline", "--labels", str(_labels(tmp_path)), f"--tick-seconds={raw}",
            "--detector", "baseline:never"]
    series, _ = cli._load_dataset(cli.build_parser().parse_args(argv))
    return series.tick_seconds


# Every entry that reads an exact parameter: (the name it reports, its range, the reading).
ENTRIES = {
    "fbeta-spec": ("beta", "positive",
                   lambda tmp_path, raw: bind_metric(f"fbeta:beta={raw}")[1]["beta"]),
    "etapr-spec": ("theta_p", "unit",
                   lambda tmp_path, raw: bind_metric(f"etapr:theta_p={raw}")[1]["theta_p"]),
    "f_beta": ("beta", "positive", lambda tmp_path, raw: Fraction(
        f_beta(ConfusionMatrix(1, 1, 1, 1), raw).params["beta"])),
    "EtaParams": ("theta_p", "unit", lambda tmp_path, raw: EtaParams(theta_p=raw).theta_p),
    "LabeledSeries": ("tick_seconds", "positive", lambda tmp_path, raw: LabeledSeries(
        "x", np.array([0]), np.array([0]), (), raw).tick_seconds),
    "load_labels": ("tick_seconds", "positive", lambda tmp_path, raw: load_labels(
        _labels(tmp_path), tick_seconds=raw).tick_seconds),
    "manifest": ("tick_seconds", "positive", _manifest_tick),
    "--tick-seconds": ("tick_seconds", "positive", _cli_tick),
}

TENTH = Fraction(1, 10)
MALFORMED = "malformed parameter: {name} is not a number: "
TOO_LONG = "{name} needs more than 2100 digits"
# Each raw value and what it reads as: a Fraction, or the error text, in a
# positive range and in the unit interval.
RAW_VALUES = [
    (0.1, TENTH, TENTH),
    ("0.1", TENTH, TENTH),
    ("1/10", TENTH, TENTH),
    (TENTH, TENTH, TENTH),
    ("0", "{name} must be positive, got 0", Fraction(0)),
    ("-1", "{name} must be positive, got -1", "{name} must lie in [0, 1], got -1"),
    ("fast", MALFORMED + "'fast'", MALFORMED + "'fast'"),
    ("nan", MALFORMED + "'nan'", MALFORMED + "'nan'"),
    (float("inf"), MALFORMED + "'inf'", MALFORMED + "'inf'"),
    ("1/0", MALFORMED + "'1/0'", MALFORMED + "'1/0'"),
    ("1e5000", TOO_LONG, TOO_LONG),
    ("-1e5000", TOO_LONG, TOO_LONG),
    ("1e-5000", TOO_LONG, TOO_LONG),
]


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("raw,positive,unit", RAW_VALUES, ids=[repr(v[0]) for v in RAW_VALUES])
def test_every_entry_reads_a_parameter_by_one_rule(tmp_path, entry, raw, positive, unit):
    name, within, read = ENTRIES[entry]
    expected = positive if within == "positive" else unit
    if isinstance(expected, Fraction):
        value = read(tmp_path, raw)
        assert type(value) is Fraction and value == expected
        return
    error = IngestError if entry == "manifest" else ParameterError
    with pytest.raises(error) as caught:
        read(tmp_path, raw)
    prefix = f"{tmp_path / 'm.json'}: " if entry == "manifest" else ""
    assert str(caught.value) == prefix + expected.format(name=name)


def test_load_labels_reads_its_tick_before_the_file(tmp_path):
    with pytest.raises(ParameterError, match="tick_seconds must be positive, got 0"):
        load_labels(tmp_path / "missing.csv", tick_seconds=0)


HUGE = ["1e5000", "-1e5000", "1e-5000", "1e3000000", "1e10000000", "1E+2_101 ", "1e2100",
        "0.5e2101", 10**2100, Fraction(1, 10**2100),
        # Exponents in Arabic-Indic and fullwidth digits, which Fraction reads too.
        "1e\u0661" + "\u0660" * 7, "1e" + "\uff11" + "\uff10" * 6]


@pytest.mark.parametrize("raw", HUGE, ids=[str(k) for k in range(len(HUGE))])
def test_parameters_past_the_digit_limit_are_refused_at_once(raw):
    # Fraction would write the exponent out first: 1e10000000 took ~10 s.
    began = time.perf_counter()
    with pytest.raises(ParameterError) as caught:
        exact_param("beta", raw, None)
    assert time.perf_counter() - began < 0.1
    assert str(caught.value) == TOO_LONG.format(name="beta")


# The last two have decimal forms past str()'s limit, so they print as num/den.
WITHIN = ["1e2099", "-1e-2099", "9" * 2100, "0.1e2100", "1e0000004", "1e\u0660" * 1 + "\u0664",
          f"1/{2**6900}", f"{10**2100 - 1}/{2**6900}"]


@pytest.mark.parametrize("raw", WITHIN, ids=[str(k) for k in range(len(WITHIN))])
def test_parameters_within_the_digit_limit_are_read_and_printable(raw):
    value = exact_param("beta", raw, None)
    assert value == Fraction(raw)
    assert Fraction(format_fraction(value)) == value


def test_a_huge_exponent_in_malformed_text_is_reported_as_malformed():
    with pytest.raises(ParameterError, match="^" + MALFORMED.format(name="beta")):
        exact_param("beta", "x1e99999", None)


def test_cli_prints_a_value_whose_decimal_form_passes_the_digit_limit(tmp_path, capsys):
    # 1/2**6900 reads as a 4823-digit decimal; the metric is named with num/den instead.
    demo = Path(__file__).resolve().parents[1] / "data" / "demo" / "manifest.json"
    spec = f"fbeta:beta=1/{2**6900}"
    code = cli.main(["evaluate", "--config", str(demo), "--metrics", spec, "--format", "csv",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert f"beta=1/{2**6900}" in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["evaluate", "compare"])
def test_cli_writes_out_every_exact_value_at_the_largest_beta(tmp_path, capsys, verb):
    # F-beta's exact value carries beta squared, so it has about twice beta's digits.
    beta = Fraction(10**2100 - 1, 10**2100 - 2)
    demo = Path(__file__).resolve().parents[1] / "data" / "demo"
    code = cli.main([verb, "--config", str(demo / "manifest.json"), "--metrics",
                     f"fbeta:beta={beta}", "--format", "json", "--out", str(tmp_path / "out")])
    assert code == 0
    written = json.loads(capsys.readouterr().out)
    series = load_manifest(demo / "manifest.json").load()
    expected = f_beta(confusion(series, load_alerts(demo / "lagged.jsonl", series)), beta)
    if verb == "evaluate":
        exact = written["metrics"][0]["exact"]
    else:
        exact = written["rows"][0]["exact"][expected.display_name]
    assert Fraction(exact) == expected.exact


@pytest.mark.parametrize("spec", ["fbeta:beta=1e5000", "fbeta:beta=-1e5000", "fbeta:beta=1e2200",
                                  "fbeta:beta=1e3000000", "etapr:theta_p=1e-5000"])
def test_cli_refuses_a_huge_exponent_with_one_error_line(tmp_path, capsys, monkeypatch, spec):
    monkeypatch.delenv("IDSEVAL_OUT", raising=False)
    demo = Path(__file__).resolve().parents[1] / "data" / "demo" / "manifest.json"
    began = time.perf_counter()
    code = cli.main(["evaluate", "--config", str(demo), "--metrics", spec,
                     "--out", str(tmp_path / "out")])
    assert time.perf_counter() - began < 1.0
    assert code == 2
    name = spec.split(":")[1].split("=")[0]
    assert capsys.readouterr().err == f"error: {TOO_LONG.format(name=name)}\n"
