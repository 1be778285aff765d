"""One spec grammar: metric and baseline specs, their declared parameters and the catalog."""

from __future__ import annotations

from pathlib import Path

import pytest

from idseval import CATALOG, BaselineSpec, ParameterError, catalog_lines, evaluate_detector
from idseval import evaluate
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
