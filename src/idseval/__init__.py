"""Detector-agnostic evaluation toolkit for labeled intrusion detection time series.

Load labels and alert streams, pick metrics by name, compare detectors
against trivial baselines and render alert timelines. Point-based ratio
metrics are exact rationals; a metric whose denominator vanishes reports
Undefined instead of a silent zero.

The public names below are imported from their modules on first use, so
``import idseval`` itself loads no numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "affiliation": "AffiliationZone affiliation",
        "baselines": "BaselineKind BaselineSpec generate is_baseline_name",
        "evaluate": """CATALOG DEFAULT_METRICS EvalContext MetricDefinition
            UnknownMetricError catalog_lines compute_metric evaluate_detector
            resolve_metric""",
        "ingest": """DatasetManifest IngestError ValidationReport load_alerts
            load_labels load_manifest save_alerts save_labels validate_pair""",
        "model": """AlertKind AlertSeries AlignmentError AttackScenario
            ConfusionMatrix EvaluationError Intervals LabeledSeries MetricReport
            MetricValue ParameterError Scenarios alerts_to_intervals collapse_multiclass
            extract_scenarios format_fraction intervals_to_mask mask_to_intervals""",
        "pointwise": """RocCurve RocPoint accuracy auc auc_single
            confusion f1 f_beta fnr fpr npv ppv roc tnr tpr""",
        "report": """UNDEFINED_CELL ComparisonTable TimelineLane TimelineRendering
            build_table format_cell render_timeline report_to_dict report_to_json
            roc_to_csv""",
        "timeaware": """EtaParams ScenarioDetection TimeAwareScores
            detected_scenarios detection_delay etapr harmonic_f1
            scenario_normalized_recall""",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Loading a submodule binds it on the package under its own name. For
        # ``affiliation`` that name belongs to the function the submodule
        # defines, so keep the function bound.
        if isinstance(value, types.ModuleType) and _EXPORTS.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
