"""Metric catalog, request parsing and the per-detector evaluation pipeline.

Metrics are requested by name with optional colon-separated parameters, for
example ``fbeta:beta=0.1`` or ``detected-scenarios:by-type``. One request may
expand into several reported values (``etapr`` yields etap, etar and etaf1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    ParameterError,
    alerts_to_intervals,
    collapse_multiclass,
    extract_scenarios,
    format_fraction,
    require_alignment,
)
from .timeaware import (
    EtaParams,
    ScenarioDetection,
    detected_scenarios,
    detection_delay,
    etapr,
)


class UnknownMetricError(EvaluationError):
    """A metric name that is not in the catalog."""


def parse_metric_spec(text: str) -> tuple[str, dict[str, str | bool]]:
    """Split ``name:key=value:flag`` into the name and its parameter dict."""
    parts = [part.strip() for part in text.split(":")]
    name = parts[0]
    if not name:
        raise ParameterError(f"empty metric name in {text!r}")
    params: dict[str, str | bool] = {}
    for part in parts[1:]:
        if not part:
            raise ParameterError(f"empty parameter in metric spec {text!r}")
        key, sep, value = part.partition("=")
        key = key.strip()
        if not key:
            raise ParameterError(f"empty parameter name in metric spec {text!r}")
        if key in params:
            raise ParameterError(f"duplicate parameter {key!r} in metric spec {text!r}")
        params[key] = value.strip() if sep else True
    return name, params


class EvalContext:
    """Shared intermediate results for one (dataset, detector) pair.

    Everything expensive is computed once and cached: the binary collapse of
    multi-class labels, the confusion matrix, the typed scenario list and the
    alert run intervals.
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
    def binary(self) -> LabeledSeries:
        return self.series if self.series.is_binary else collapse_multiclass(self.series)

    @cached_property
    def cm(self) -> ConfusionMatrix:
        return pointwise.confusion(self.binary, self.alerts)

    @cached_property
    def scenarios(self) -> list[AttackScenario]:
        return extract_scenarios(self.series, gap_tolerance=self.gap_tolerance)

    @cached_property
    def alert_intervals(self) -> Intervals:
        return alerts_to_intervals(self.alerts, self.series)

    @cached_property
    def delay_results(self) -> tuple[list[ScenarioDetection], list[MetricValue]]:
        return detection_delay(self.scenarios, self.alert_intervals, self.series)


ComputeFn = Callable[[EvalContext, dict[str, "str | bool"]], list[MetricValue]]


@dataclass(frozen=True)
class MetricDefinition:
    name: str
    summary: str
    compute: ComputeFn
    params_help: str = ""
    aliases: tuple[str, ...] = ()


def _reject_unknown(name: str, params: dict[str, str | bool], allowed: tuple[str, ...]) -> None:
    unknown = set(params) - set(allowed)
    if unknown:
        extras = ", ".join(sorted(unknown))
        if allowed:
            raise ParameterError(
                f"metric {name!r} does not accept: {extras} (allowed: {', '.join(allowed)})"
            )
        raise ParameterError(f"metric {name!r} takes no parameters, got: {extras}")


def _require_value(name: str, params: dict[str, str | bool], key: str) -> str:
    value = params.get(key)
    if value is None:
        raise ParameterError(f"metric {name!r} requires {key}=..., e.g. {name}:{key}=0.1")
    if value is True:
        raise ParameterError(f"parameter {key!r} of metric {name!r} needs a value")
    return value


def _cm_metric(fn: Callable[[ConfusionMatrix], MetricValue], name: str) -> ComputeFn:
    def compute(ctx: EvalContext, params: dict[str, str | bool]) -> list[MetricValue]:
        _reject_unknown(name, params, ())
        return [fn(ctx.cm)]

    return compute


def _compute_confusion(ctx: EvalContext, params: dict[str, str | bool]) -> list[MetricValue]:
    _reject_unknown("confusion", params, ())
    cm = ctx.cm
    return [
        MetricValue.from_fraction(field, Fraction(getattr(cm, field)))
        for field in ("tp", "tn", "fp", "fn")
    ]


def _compute_fbeta(ctx: EvalContext, params: dict[str, str | bool]) -> list[MetricValue]:
    _reject_unknown("fbeta", params, ("beta",))
    raw = _require_value("fbeta", params, "beta")
    try:
        beta = pointwise.as_beta(raw)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"beta is not a number: {raw!r}") from None
    return [pointwise.f_beta(ctx.cm, beta)]


def _compute_detected(ctx: EvalContext, params: dict[str, str | bool]) -> list[MetricValue]:
    _reject_unknown("detected-scenarios", params, ("by-type",))
    by_type = params.get("by-type", False)
    if by_type is not True and by_type is not False:
        raise ParameterError("by-type is a flag and takes no value")
    value, _ = detected_scenarios(ctx.scenarios, ctx.alert_intervals, group_by_type=bool(by_type))
    return [value]


def _compute_delay(ctx: EvalContext, params: dict[str, str | bool]) -> list[MetricValue]:
    _reject_unknown("detection-delay", params, ())
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


def _parse_eta_params(params: dict[str, str | bool]) -> tuple[EtaParams, dict[str, object]]:
    _reject_unknown("etapr", params, ("theta_p", "theta_r", "weight"))
    kwargs: dict[str, Fraction] = {}
    display: dict[str, object] = {}
    mapping = {"theta_p": "theta_p", "theta_r": "theta_r", "weight": "detection_weight"}
    for key, attr in mapping.items():
        if key not in params:
            continue
        raw = _require_value("etapr", params, key)
        try:
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"{key} is not a number: {raw!r}") from None
        kwargs[attr] = value
        display[key] = format_fraction(value)
    return EtaParams(**kwargs), display


def _compute_etapr(ctx: EvalContext, params: dict[str, str | bool]) -> list[MetricValue]:
    eta_params, display = _parse_eta_params(params)
    scores = etapr(ctx.scenarios, ctx.alert_intervals, eta_params)
    pairs = (
        ("etap", scores.precision_like),
        ("etar", scores.recall_like),
        ("etaf1", scores.f1_like),
    )
    return [
        MetricValue(name=name, value=value, params=dict(display)) for name, value in pairs
    ]


def _compute_affiliation(ctx: EvalContext, params: dict[str, str | bool]) -> list[MetricValue]:
    _reject_unknown("affiliation", params, ())
    scores, _ = affiliation(ctx.scenarios, ctx.alert_intervals, ctx.series)
    pairs = (
        ("affiliation-precision", scores.precision_like),
        ("affiliation-recall", scores.recall_like),
        ("affiliation-f1", scores.f1_like),
    )
    return [MetricValue(name=name, value=value) for name, value in pairs]


def _compute_scenario_recall(ctx: EvalContext, params: dict[str, str | bool]) -> list[MetricValue]:
    _reject_unknown("scenario-recall", params, ())
    return [pointwise.scenario_normalized_recall(ctx.series, ctx.alerts, ctx.scenarios)]


CATALOG: tuple[MetricDefinition, ...] = (
    MetricDefinition("confusion", "TP/TN/FP/FN counts", _compute_confusion),
    MetricDefinition("accuracy", "fraction of correctly classified points",
                     _cm_metric(pointwise.accuracy, "accuracy")),
    MetricDefinition("tpr", "true positive rate (recall)",
                     _cm_metric(pointwise.tpr, "tpr"), aliases=("recall",)),
    MetricDefinition("fnr", "false negative rate",
                     _cm_metric(pointwise.fnr, "fnr")),
    MetricDefinition("tnr", "true negative rate",
                     _cm_metric(pointwise.tnr, "tnr")),
    MetricDefinition("fpr", "false positive rate",
                     _cm_metric(pointwise.fpr, "fpr")),
    MetricDefinition("ppv", "positive predictive value (precision)",
                     _cm_metric(pointwise.ppv, "ppv"), aliases=("precision",)),
    MetricDefinition("npv", "negative predictive value",
                     _cm_metric(pointwise.npv, "npv")),
    MetricDefinition("f1", "harmonic mean of precision and recall",
                     _cm_metric(pointwise.f1, "f1")),
    MetricDefinition("fbeta", "F-score weighting recall by beta",
                     _compute_fbeta, params_help="beta=<positive number> (required)"),
    MetricDefinition("auc-single", "area under the one-point ROC: 1 - (FPR + FNR)/2",
                     _cm_metric(pointwise.auc_single, "auc-single")),
    MetricDefinition("scenario-recall", "mean per-scenario fraction of alerted points",
                     _compute_scenario_recall),
    MetricDefinition("detected-scenarios", "fraction of attack instances with any alert",
                     _compute_detected, params_help="by-type (flag: count attack types instead)"),
    MetricDefinition("detection-delay", "ticks from scenario start to first alert",
                     _compute_delay),
    MetricDefinition("etapr", "enhanced time-aware precision/recall (etap, etar, etaf1)",
                     _compute_etapr,
                     params_help="theta_p=, theta_r=, weight= (defaults 0.5, 0.1, 0.5)"),
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


def compute_metric(ctx: EvalContext, spec: str) -> list[MetricValue]:
    name, params = parse_metric_spec(spec)
    return resolve_metric(name).compute(ctx, params)


def evaluate_detector(
    series: LabeledSeries,
    alerts: AlertSeries,
    metrics: tuple[str, ...] | list[str] | None = None,
    gap_tolerance: int = 0,
) -> MetricReport:
    """Score one boolean-alert detector on one dataset.

    ``metrics`` is a list of metric specs (see ``parse_metric_spec``);
    duplicates collapsing to the same reported value are kept once. Scenario
    detection details ride along whenever detection-delay was requested.
    """
    ctx = EvalContext(series, alerts, gap_tolerance=gap_tolerance)
    requested = DEFAULT_METRICS if metrics is None else tuple(metrics)
    values: list[MetricValue] = []
    seen: set[str] = set()
    wants_details = False
    for spec in requested:
        name, _ = parse_metric_spec(spec)
        if resolve_metric(name).name == "detection-delay":
            wants_details = True
        for value in compute_metric(ctx, spec):
            if value.display_name in seen:
                continue
            seen.add(value.display_name)
            values.append(value)
    details = ctx.delay_results[0] if wants_details else []
    return MetricReport(
        dataset=series.name,
        detector=alerts.detector,
        metrics=tuple(values),
        scenario_details=tuple(details),
        tick_seconds=series.tick_seconds,
    )
