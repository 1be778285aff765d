"""Metric catalog, request parsing and the per-detector evaluation pipeline.

Metrics are requested by name with optional colon-separated parameters, for
example ``fbeta:beta=0.1`` or ``detected-scenarios:by-type``. One request may
expand into several reported values (``etapr`` yields etap, etar and etaf1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

from . import pointwise
from .affiliation import affiliation
from .model import (
    AlertKind,
    AlertSeries,
    AttackScenario,
    ConfusionMatrix,
    EvaluationError,
    Intervals,
    LabeledSeries,
    MetricReport,
    MetricValue,
    Param,
    alerts_to_intervals,
    bind_params,
    collapse_multiclass,  # noqa: F401  (not called here; benchmarks/spans.py patches this name)
    extract_scenarios,
    format_fraction,
    parse_spec as parse_metric_spec,
    require_alignment,
)
from .timeaware import (
    EtaParams,
    ScenarioDetection,
    as_unit_fraction,
    detected_scenarios,
    detection_delay,
    etapr,
)


class UnknownMetricError(EvaluationError):
    """A metric name that is not in the catalog."""


class EvalContext:
    """Shared intermediate results for one (dataset, detector) pair.

    Everything expensive is computed once and cached: the confusion matrix,
    the typed scenario list and the alert run intervals.
    """

    def __init__(self, series: LabeledSeries, alerts: AlertSeries, gap_tolerance: int = 0):
        if alerts.kind is not AlertKind.BOOLEAN:
            raise EvaluationError(
                "scored alerts have no fixed operating point; pick a threshold "
                "or sweep one with roc"
            )
        require_alignment(series, alerts)
        self.series = series
        self.alerts = alerts
        self.gap_tolerance = gap_tolerance

    @cached_property
    def cm(self) -> ConfusionMatrix:
        # Point metrics count any attack type as positive, so the attack mask
        # of the multi-class series is that of its binary collapse.
        return pointwise.count_confusion(self.series.attack_mask, self.alerts.values)

    @cached_property
    def scenarios(self) -> list[AttackScenario]:
        return extract_scenarios(self.series, gap_tolerance=self.gap_tolerance)

    @cached_property
    def alert_intervals(self) -> Intervals:
        return alerts_to_intervals(self.alerts, self.series)

    @cached_property
    def delay_results(self) -> tuple[list[ScenarioDetection], list[MetricValue]]:
        return detection_delay(self.scenarios, self.alert_intervals, self.series)


ComputeFn = Callable[[EvalContext, dict[str, object]], list[MetricValue]]


@dataclass(frozen=True)
class MetricDefinition:
    name: str
    summary: str
    compute: ComputeFn
    params_help: str = ""
    aliases: tuple[str, ...] = ()
    params: tuple[Param, ...] = ()


def _cm_metric(fn: Callable[[ConfusionMatrix], MetricValue]) -> ComputeFn:
    return lambda ctx, params: [fn(ctx.cm)]


def _compute_confusion(ctx: EvalContext, params: dict[str, object]) -> list[MetricValue]:
    cm = ctx.cm
    return [
        MetricValue.from_fraction(field, Fraction(getattr(cm, field)))
        for field in ("tp", "tn", "fp", "fn")
    ]


def _compute_fbeta(ctx: EvalContext, params: dict[str, object]) -> list[MetricValue]:
    return [pointwise.f_beta(ctx.cm, params["beta"])]


def _compute_detected(ctx: EvalContext, params: dict[str, object]) -> list[MetricValue]:
    group_by_type = "by-type" in params
    value, _ = detected_scenarios(ctx.scenarios, ctx.alert_intervals, group_by_type=group_by_type)
    return [value]


def _compute_delay(ctx: EvalContext, params: dict[str, object]) -> list[MetricValue]:
    _, values = ctx.delay_results
    tick = ctx.series.tick_seconds
    out = list(values)
    for value in values:
        if not value.name.startswith("detection-delay"):
            continue
        seconds_name = value.name + "-seconds"
        if value.exact is None:
            out.append(MetricValue.undefined(seconds_name))
        else:
            out.append(MetricValue.from_fraction(seconds_name, value.exact * tick))
    return out


def _compute_etapr(ctx: EvalContext, params: dict[str, object]) -> list[MetricValue]:
    fields = {("detection_weight" if key == "weight" else key): value
              for key, value in params.items()}
    scores = etapr(ctx.scenarios, ctx.alert_intervals, EtaParams(**fields))
    display = {key: format_fraction(value) for key, value in params.items()}
    pairs = (
        ("etap", scores.precision_like),
        ("etar", scores.recall_like),
        ("etaf1", scores.f1_like),
    )
    return [
        MetricValue(name=name, value=value, params=dict(display)) for name, value in pairs
    ]


def _compute_affiliation(ctx: EvalContext, params: dict[str, object]) -> list[MetricValue]:
    scores, _ = affiliation(ctx.scenarios, ctx.alert_intervals, ctx.series)
    pairs = (
        ("affiliation-precision", scores.precision_like),
        ("affiliation-recall", scores.recall_like),
        ("affiliation-f1", scores.f1_like),
    )
    return [MetricValue(name=name, value=value) for name, value in pairs]


def _compute_scenario_recall(ctx: EvalContext, params: dict[str, object]) -> list[MetricValue]:
    return [pointwise.scenario_normalized_recall(ctx.series, ctx.alerts, ctx.scenarios)]


CATALOG: tuple[MetricDefinition, ...] = (
    MetricDefinition("confusion", "TP/TN/FP/FN counts", _compute_confusion),
    MetricDefinition("accuracy", "fraction of correctly classified points",
                     _cm_metric(pointwise.accuracy)),
    MetricDefinition("tpr", "true positive rate (recall)",
                     _cm_metric(pointwise.tpr), aliases=("recall",)),
    MetricDefinition("fnr", "false negative rate",
                     _cm_metric(pointwise.fnr)),
    MetricDefinition("tnr", "true negative rate",
                     _cm_metric(pointwise.tnr)),
    MetricDefinition("fpr", "false positive rate",
                     _cm_metric(pointwise.fpr)),
    MetricDefinition("ppv", "positive predictive value (precision)",
                     _cm_metric(pointwise.ppv), aliases=("precision",)),
    MetricDefinition("npv", "negative predictive value",
                     _cm_metric(pointwise.npv)),
    MetricDefinition("f1", "harmonic mean of precision and recall",
                     _cm_metric(pointwise.f1)),
    MetricDefinition("fbeta", "F-score weighting recall by beta",
                     _compute_fbeta, params_help="beta=<positive number> (required)",
                     params=(Param("beta", pointwise.as_beta, required=True),)),
    MetricDefinition("auc-single", "area under the one-point ROC: 1 - (FPR + FNR)/2",
                     _cm_metric(pointwise.auc_single)),
    MetricDefinition("scenario-recall", "mean per-scenario fraction of alerted points",
                     _compute_scenario_recall),
    MetricDefinition("detected-scenarios", "fraction of attack instances with any alert",
                     _compute_detected, params_help="by-type (flag: count attack types instead)",
                     params=(Param("by-type"),)),
    MetricDefinition("detection-delay", "ticks from scenario start to first alert",
                     _compute_delay),
    MetricDefinition("etapr", "enhanced time-aware precision/recall (etap, etar, etaf1)",
                     _compute_etapr,
                     params_help="theta_p=, theta_r=, weight= (defaults 0.5, 0.1, 0.5)",
                     params=tuple(Param(key, partial(as_unit_fraction, key))
                                  for key in ("theta_p", "theta_r", "weight"))),
    MetricDefinition("affiliation", "zone-based affiliation precision/recall/F1",
                     _compute_affiliation),
)

_BY_NAME: dict[str, MetricDefinition] = {}
for _definition in CATALOG:
    _BY_NAME[_definition.name] = _definition
    for _alias in _definition.aliases:
        _BY_NAME[_alias] = _definition

DEFAULT_METRICS: tuple[str, ...] = (
    "confusion",
    "accuracy",
    "tpr",
    "fnr",
    "tnr",
    "fpr",
    "ppv",
    "npv",
    "f1",
    "auc-single",
    "detected-scenarios",
    "detection-delay",
)


def resolve_metric(name: str) -> MetricDefinition:
    definition = _BY_NAME.get(name)
    if definition is None:
        known = ", ".join(sorted(_BY_NAME))
        raise UnknownMetricError(f"unknown metric {name!r}; available: {known}")
    return definition


def catalog_lines() -> list[str]:
    """Human-readable catalog listing, one metric per line."""
    lines = []
    for definition in CATALOG:
        names = definition.name
        if definition.aliases:
            names += " (alias: " + ", ".join(definition.aliases) + ")"
        line = f"  {names}: {definition.summary}"
        if definition.params_help:
            line += f" [{definition.params_help}]"
        lines.append(line)
    return lines


def bind_metric(spec: str) -> tuple[MetricDefinition, dict[str, object]]:
    """Resolve a metric spec and its parameters, typed and range-checked."""
    name, given = parse_metric_spec(spec)
    definition = resolve_metric(name)
    return definition, bind_params(definition.params, given, "metric", definition.name)


def compute_metric(ctx: EvalContext, spec: str) -> list[MetricValue]:
    definition, params = bind_metric(spec)
    return definition.compute(ctx, params)


def evaluate_detector(
    series: LabeledSeries,
    alerts: AlertSeries,
    metrics: tuple[str, ...] | list[str] | None = None,
    gap_tolerance: int = 0,
) -> MetricReport:
    """Score one boolean-alert detector on one dataset.

    ``metrics`` is a list of metric specs (see ``parse_metric_spec``);
    duplicates collapsing to the same reported value are kept once. Every spec
    is checked before the first metric runs. Scenario detection details ride
    along whenever detection-delay was requested.
    """
    ctx = EvalContext(series, alerts, gap_tolerance=gap_tolerance)
    bound = [bind_metric(spec) for spec in (DEFAULT_METRICS if metrics is None else metrics)]
    values: list[MetricValue] = []
    seen: set[str] = set()
    for definition, params in bound:
        for value in definition.compute(ctx, params):
            if value.display_name in seen:
                continue
            seen.add(value.display_name)
            values.append(value)
    wants_details = any(definition.name == "detection-delay" for definition, _ in bound)
    details = ctx.delay_results[0] if wants_details else []
    return MetricReport(
        dataset=series.name,
        detector=alerts.detector,
        metrics=tuple(values),
        scenario_details=tuple(details),
        tick_seconds=series.tick_seconds,
    )
