"""The package root: every public name resolves lazily, and submodules still import."""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

import idseval
from support import fresh_python

ROOT_NAMES = [
    "AffiliationZone", "AlertKind", "AlertSeries", "AlignmentError", "AttackScenario",
    "BaselineKind", "BaselineSpec", "CATALOG", "ComparisonTable", "ConfusionMatrix",
    "DEFAULT_METRICS", "DatasetManifest", "EtaParams", "EvalContext", "EvaluationError",
    "IngestError", "Intervals", "LabeledSeries", "MetricDefinition",
    "MetricReport", "MetricValue", "ParameterError", "RocCurve", "RocPoint",
    "ScenarioDetection", "Scenarios", "TimeAwareScores", "TimelineLane", "TimelineRendering",
    "UNDEFINED_CELL", "UnknownMetricError", "ValidationReport", "accuracy", "affiliation",
    "alerts_to_intervals", "auc", "auc_single", "build_table", "catalog_lines",
    "collapse_multiclass", "compute_metric", "confusion", "detected_scenarios",
    "detection_delay", "etapr", "evaluate_detector", "extract_scenarios", "f1", "f_beta",
    "fnr", "format_cell", "format_fraction", "fpr", "generate", "harmonic_f1",
    "intervals_to_mask", "is_baseline_name", "load_alerts", "load_labels", "load_manifest",
    "mask_to_intervals", "npv", "ppv", "render_timeline",
    "report_to_dict", "report_to_json", "resolve_metric", "roc", "roc_to_csv",
    "save_alerts", "save_labels", "scenario_normalized_recall", "tnr", "tpr",
    "validate_pair",
]


def test_all_lists_the_public_names_and_each_resolves():
    assert idseval.__all__ == ROOT_NAMES
    for name in ROOT_NAMES:
        assert not isinstance(getattr(idseval, name), types.ModuleType), name
    assert set(ROOT_NAMES) <= set(dir(idseval))


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'idseval' has no attribute 'no_such_name'$"):
        idseval.no_such_name  # noqa: B018
    assert not hasattr(idseval, "no_such_name")


def test_submodules_import_from_the_root():
    from idseval import cli, floattext, ingest, pointwise, report

    for module in (cli, floattext, ingest, pointwise, report):
        assert isinstance(module, types.ModuleType)
        assert module.__name__.startswith("idseval.")


def test_affiliation_stays_the_function_once_its_module_loads():
    """``idseval.affiliation`` names both a submodule and the function it defines."""
    code = (
        "import idseval.cli\n"
        "from idseval import affiliation\n"
        "from idseval.affiliation import affiliation as function\n"
        "print(affiliation is function)"
    )
    assert fresh_python("-c", code) == "True\n"


def test_pointwise_loads_neither_timeaware_nor_evaluate():
    """The point metrics sit below the scenario metrics and the metric catalog:
    importing them (``roc`` and ``confusion`` among them) loads neither."""
    code = (
        "import sys, idseval.pointwise\n"
        "print([name in sys.modules for name in ('idseval.timeaware', 'idseval.evaluate')])"
    )
    assert fresh_python("-c", code).splitlines()[-1] == "[False, False]"


def test_every_name_the_benchmark_patches_resolves(monkeypatch):
    """``benchmarks/spans.py`` times layers by patching names on idseval's
    modules, so a name it patches must stay where it looks for it."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("idseval_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    sites = spans.call_sites()
    missing = [(owner.__name__, attr) for owner, attr, _, _ in sites if not hasattr(owner, attr)]
    assert sites
    assert missing == []


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        entry = tomllib.load(handle)["project"]["scripts"]["idseval"]
    module, _, name = entry.partition(":")
    from idseval import cli

    assert getattr(importlib.import_module(module), name) is cli.run
