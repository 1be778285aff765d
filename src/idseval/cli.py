"""Command-line interface: evaluate, compare, timeline, roc and baseline verbs.

Exit codes: 0 on success, 1 on data or I/O errors, 2 on usage errors
(including unknown metrics, which also print the catalog). Every run that
reads or generates alerts copies the raw alert streams into the output
directory, so a results folder is always reproducible on its own.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .baselines import BaselineSpec, generate, is_baseline_name
from .evaluate import (
    UnknownMetricError,
    catalog_lines,
    evaluate_detector,
)
from .ingest import load_alerts, load_labels, load_manifest, save_alerts, validate_pair
from .model import (
    AlertKind,
    AlertSeries,
    EvaluationError,
    LabeledSeries,
    ParameterError,
    collapse_multiclass,
)
from .pointwise import auc, roc
from .report import build_table, render_timeline, report_to_json, roc_to_csv

OUT_ENV_VAR = "IDSEVAL_OUT"
DEFAULT_OUT = "idseval-out"

AlertSource = tuple[AlertSeries, Path | None]


def _load_dataset(args: argparse.Namespace):
    if args.config and args.labels:
        raise ParameterError("pass either --labels or --config, not both")
    if args.config:
        manifest = load_manifest(args.config)
        return manifest.load(), manifest
    if not args.labels:
        raise ParameterError("a dataset is required: pass --labels FILE or --config MANIFEST")
    try:
        tick = Fraction(str(args.tick_seconds))
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"--tick-seconds is not a duration: {args.tick_seconds!r}") from None
    if tick <= 0:
        raise ParameterError(f"--tick-seconds must be positive, got {args.tick_seconds!r}")
    return load_labels(args.labels, name=args.name, tick_seconds=tick), None


def _alert_tokens(args: argparse.Namespace, manifest) -> list[str]:
    tokens = list(args.alerts or []) + list(getattr(args, "detector", None) or [])
    if not tokens and manifest is not None:
        tokens = [str(path) for path in manifest.alert_paths]
    if not tokens:
        raise ParameterError(
            "no alert sources: pass --alerts FILE or --detector baseline:never"
        )
    return tokens


def _resolve_alerts(
    tokens: list[str], series: LabeledSeries, seed: int
) -> list[AlertSource]:
    resolved: list[AlertSource] = []
    for token in tokens:
        if is_baseline_name(token):
            spec = BaselineSpec.parse(token).with_seed(seed)
            resolved.append((generate(spec, series), None))
        else:
            path = Path(token)
            resolved.append((load_alerts(path, series), path))
    names = [alert.detector for alert, _ in resolved]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise EvaluationError(f"duplicate detector names: {', '.join(dupes)}")
    return resolved


def _safe_filename(name: str, used: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "detector"
    candidate = base
    counter = 2
    while candidate in used:
        candidate = f"{base}-{counter}"
        counter += 1
    used.add(candidate)
    return candidate


def _prepare_outdir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get(OUT_ENV_VAR) or DEFAULT_OUT
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _copy_alerts(sources: list[AlertSource], series: LabeledSeries, outdir: Path) -> None:
    """Keep a byte-faithful copy of every consumed alert stream in the run folder."""
    alert_dir = outdir / "alerts"
    alert_dir.mkdir(parents=True, exist_ok=True)
    used: set[str] = set()
    for alert, src in sources:
        dest = alert_dir / (_safe_filename(alert.detector, used) + ".jsonl")
        if src is None:
            save_alerts(alert, series, dest)
        else:
            shutil.copyfile(src, dest)


def _gather_metrics(raw: list[str] | None) -> list[str] | None:
    if not raw:
        return None
    metrics: list[str] = []
    for chunk in raw:
        metrics.extend(part.strip() for part in chunk.split(",") if part.strip())
    if not metrics:
        raise ParameterError("--metrics was given but names no metrics")
    return metrics


def _print_warnings(series: LabeledSeries, gap_tolerance: int) -> None:
    for warning in validate_pair(series, gap_tolerance=gap_tolerance).warnings:
        print(f"warning: {warning}", file=sys.stderr)


def cmd_evaluate(args: argparse.Namespace) -> int:
    series, manifest = _load_dataset(args)
    tokens = _alert_tokens(args, manifest)
    if len(tokens) != 1:
        raise ParameterError("evaluate scores one detector; use compare for several")
    sources = _resolve_alerts(tokens, series, args.seed)
    outdir = _prepare_outdir(args)
    _copy_alerts(sources, series, outdir)
    _print_warnings(series, args.gap_tolerance)
    alert = sources[0][0]
    report = evaluate_detector(
        series, alert, metrics=_gather_metrics(args.metrics), gap_tolerance=args.gap_tolerance
    )
    if args.format == "json":
        text = report_to_json(report)
    else:
        text = build_table([report]).render(args.format)
    target = outdir / f"report.{args.format}"
    target.write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    series, manifest = _load_dataset(args)
    tokens = _alert_tokens(args, manifest)
    sources = _resolve_alerts(tokens, series, args.seed)
    outdir = _prepare_outdir(args)
    _copy_alerts(sources, series, outdir)
    _print_warnings(series, args.gap_tolerance)
    metrics = _gather_metrics(args.metrics)
    reports = [
        evaluate_detector(series, alert, metrics=metrics, gap_tolerance=args.gap_tolerance)
        for alert, _ in sources
    ]
    table = build_table(reports, rank_by=args.rank_by)
    text = table.render(args.format)
    target = outdir / f"comparison.{args.format}"
    target.write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


_WIDTH_RE = re.compile(r"([0-9]+(?:\.[0-9]+)?)\s*(s|m|h)?\Z")
_UNIT_SECONDS = {"s": 1, "m": 60, "h": 3600}


def parse_min_width(text: str, tick_seconds: Fraction) -> float:
    """Minimum drawn alarm width: plain ticks, or a duration like ``60s``."""
    match = _WIDTH_RE.match(text.strip())
    if not match:
        raise ParameterError(
            f"cannot parse --min-width {text!r}; use a tick count or a duration like 60s"
        )
    value = Fraction(match.group(1))
    unit = match.group(2)
    if unit is None:
        return float(value)
    return float(value * _UNIT_SECONDS[unit] / tick_seconds)


def cmd_timeline(args: argparse.Namespace) -> int:
    series, manifest = _load_dataset(args)
    tokens = _alert_tokens(args, manifest)
    sources = _resolve_alerts(tokens, series, args.seed)
    outdir = _prepare_outdir(args)
    _copy_alerts(sources, series, outdir)
    rendering = render_timeline(
        series,
        [alert for alert, _ in sources],
        min_width_ticks=parse_min_width(args.min_width, series.tick_seconds),
        exempt=args.exempt or (),
    )
    target = outdir / "timeline.svg"
    rendering.save(target)
    widened = sum(sum(lane.widened) for lane in rendering.lanes)
    print(f"wrote {target} ({len(rendering.lanes)} lanes, {widened} alarms widened)")
    return 0


def _roc_thresholds(args: argparse.Namespace, alert: AlertSeries) -> list[float]:
    if args.thresholds and args.auto:
        raise ParameterError("pass either --thresholds or --auto, not both")
    if args.thresholds:
        try:
            return [float(part) for part in args.thresholds.split(",") if part.strip()]
        except ValueError:
            raise ParameterError(
                f"--thresholds must be comma-separated numbers, got {args.thresholds!r}"
            ) from None
    if not args.auto:
        raise ParameterError("pass --thresholds LIST or --auto to choose operating points")
    return [float(v) for v in np.unique(alert.values)]


def cmd_roc(args: argparse.Namespace) -> int:
    series, manifest = _load_dataset(args)
    tokens = _alert_tokens(args, manifest)
    if len(tokens) != 1:
        raise ParameterError("roc sweeps one scored detector at a time")
    sources = _resolve_alerts(tokens, series, args.seed)
    outdir = _prepare_outdir(args)
    _copy_alerts(sources, series, outdir)
    alert = sources[0][0]
    if alert.kind is not AlertKind.SCORED:
        raise EvaluationError(
            "roc requires scored alerts; boolean alerts already fix an operating "
            "point, score them with evaluate instead"
        )
    if not series.is_binary:
        series = collapse_multiclass(series)
    curve = roc(series, alert, _roc_thresholds(args, alert))
    area = auc(curve)
    if args.format == "json":
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
        text = json.dumps(payload, indent=2) + "\n"
        target = outdir / "roc.json"
    else:
        text = roc_to_csv(curve)
        target = outdir / "roc.csv"
    target.write_text(text, encoding="utf-8")
    print(f"auc: {area.value:.6f}")
    print(f"wrote {target}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    series, _ = _load_dataset(args)
    outdir = _prepare_outdir(args)
    used: set[str] = set()
    for token in args.detector:
        spec = BaselineSpec.parse(token).with_seed(args.seed)
        alert = generate(spec, series)
        target = outdir / (_safe_filename(alert.detector, used) + ".jsonl")
        save_alerts(alert, series, target)
        print(f"wrote {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idseval",
        description="Score intrusion detectors against labeled time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--labels", metavar="CSV", help="label file (timestamp,label)")
    dataset.add_argument("--config", metavar="JSON", help="dataset manifest")
    dataset.add_argument("--name", help="dataset display name (with --labels)")
    dataset.add_argument(
        "--tick-seconds", default="1", metavar="SECONDS",
        help="tick duration in seconds, e.g. 1 or 0.1 (with --labels; default 1)",
    )

    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument(
        "--out", metavar="DIR",
        help=f"output directory (default: ${OUT_ENV_VAR} or ./{DEFAULT_OUT})",
    )

    alerts = argparse.ArgumentParser(add_help=False)
    alerts.add_argument(
        "--alerts", action="append", metavar="SRC",
        help="alert JSONL file or baseline spec (baseline:never, baseline:always, "
             "baseline:random:p=0.5:seed=7); repeatable",
    )
    alerts.add_argument(
        "--detector", action="append", metavar="SRC",
        help="additional alert source, same syntax as --alerts; repeatable",
    )
    alerts.add_argument(
        "--seed", type=int, default=0,
        help="seed for random baselines given without one (default 0)",
    )

    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument(
        "--metrics", action="append", metavar="SPECS",
        help="comma-separated metric specs, e.g. accuracy,fbeta:beta=0.1; repeatable",
    )
    scoring.add_argument(
        "--gap-tolerance", type=int, default=0, metavar="N",
        help="merge same-type attack runs separated by at most N benign points",
    )

    p_eval = sub.add_parser(
        "evaluate", parents=[dataset, alerts, scoring, outputs],
        help="score one detector and write its report",
    )
    p_eval.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser(
        "compare", parents=[dataset, alerts, scoring, outputs],
        help="score several detectors side by side",
    )
    p_cmp.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p_cmp.add_argument(
        "--rank-by", metavar="METRIC",
        help="sort rows best-first by this metric column (undefined values last)",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_tl = sub.add_parser(
        "timeline", parents=[dataset, alerts, outputs],
        help="render ground truth and alert lanes as an SVG timeline",
    )
    p_tl.add_argument(
        "--min-width", default="0", metavar="W",
        help="minimum drawn alarm width: ticks or a duration like 60s (default 0)",
    )
    p_tl.add_argument(
        "--exempt", action="append", metavar="DETECTOR",
        help="draw this detector at true width even below --min-width; repeatable",
    )
    p_tl.add_argument("--format", choices=("svg",), default="svg")
    p_tl.set_defaults(func=cmd_timeline)

    p_roc = sub.add_parser(
        "roc", parents=[dataset, alerts, outputs],
        help="sweep thresholds over scored alerts and report the curve and AUC",
    )
    p_roc.add_argument(
        "--thresholds", metavar="LIST", help="comma-separated threshold values"
    )
    p_roc.add_argument(
        "--auto", action="store_true",
        help="use every distinct observed score as a threshold",
    )
    p_roc.add_argument("--format", choices=("csv", "json"), default="csv")
    p_roc.set_defaults(func=cmd_roc)

    p_base = sub.add_parser(
        "baseline", parents=[dataset, outputs],
        help="materialize baseline detectors as alert JSONL files",
    )
    p_base.add_argument(
        "--detector", action="append", required=True, metavar="SPEC",
        help="baseline spec such as baseline:never or baseline:random:p=0.5:seed=7; repeatable",
    )
    p_base.add_argument(
        "--seed", type=int, default=0,
        help="seed for random baselines given without one (default 0)",
    )
    p_base.set_defaults(func=cmd_baseline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownMetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("metric catalog:", file=sys.stderr)
        for line in catalog_lines():
            print(line, file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EvaluationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
