"""Command-line interface: evaluate, compare, timeline, roc and baseline verbs.

Exit codes: 0 on success, 1 on data or I/O errors, 2 on usage errors
(including unknown metrics, which also print the catalog). Every run that
reads or generates alerts copies the raw alert streams into the output
directory, so a results folder is always reproducible on its own. The output
directory is created only after a run's checks and computation succeed, so a
rejected run writes nothing, and each artifact is written to a temporary file
and renamed once whole, so a failed write leaves no partial one. Artifact text
that grows with the input, such as ROC rows and timeline ``<rect>`` rows, is
formatted as it is written, so it is never held whole.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import shutil
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

# idseval makes no BLAS call, and each idle OpenBLAS worker that numpy starts
# at import spins on a core before it sleeps. This must run before numpy's
# first import in the process; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .baselines import BaselineSpec, generate, is_baseline_name
from .evaluate import (
    UnknownMetricError,
    bind_metric,
    catalog_lines,
    evaluate_detector,
)
from .ingest import alarm_warnings, load_alerts, load_labels, load_manifest
from .ingest import save_alerts, validate_pair
from .model import (
    AlertSeries,
    EvaluationError,
    LabeledSeries,
    ParameterError,
    collapse_multiclass,  # noqa: F401  (not called here; benchmarks/spans.py patches this name)
    exact_param,
    read_gap_tolerance,
    require_distinct_detectors,
)
from .pointwise import auc, listed_thresholds, roc
from .report import (
    build_table,
    render_timeline,
    report_to_json,
    roc_csv_chunks,
    roc_json_chunks,
    roc_to_csv,  # noqa: F401  (not called here; benchmarks/spans.py patches this name)
)

OUT_ENV_VAR = "IDSEVAL_OUT"
DEFAULT_OUT = "idseval-out"

AlertSource = tuple[AlertSeries, Path | None]
# What the output directory keeps of a source: the detector's name, and the
# file to copy or, for a generated source, the series to write.
AlertCopy = tuple[str, "Path | AlertSeries"]


def _load_dataset(args: argparse.Namespace):
    if args.config and args.labels:
        raise ParameterError("pass either --labels or --config, not both")
    if args.config:
        for flag, value in (("--name", args.name), ("--tick-seconds", args.tick_seconds)):
            if value is not None:
                raise ParameterError(f"{flag} goes with --labels; a manifest sets its own")
        manifest = load_manifest(args.config)
        return manifest.load(), manifest
    if not args.labels:
        raise ParameterError("a dataset is required: pass --labels FILE or --config MANIFEST")
    tick = 1 if args.tick_seconds is None else args.tick_seconds
    return load_labels(args.labels, name=args.name, tick_seconds=tick), None


def _alert_specs(args: argparse.Namespace) -> list[BaselineSpec | Path]:
    """The ``--alerts`` and ``--detector`` sources: baseline specs parsed, files as paths."""
    return [
        BaselineSpec.parse(token).with_seed(args.seed) if is_baseline_name(token) else Path(token)
        for token in [*(args.alerts or ()), *(args.detector or ())]
    ]


def _inputs(
    args: argparse.Namespace, specs: list[BaselineSpec | Path], one: str | None = None
) -> tuple[LabeledSeries, list[AlertSource]]:
    """Load the dataset, then its alert sources: ``specs``, or else the manifest's files.

    The verbs read their specs and flags before they call this, so a rejected
    one costs no load. ``one`` is the usage error of a verb that takes a
    single alert source.
    """
    series, manifest = _load_dataset(args)
    if not specs and manifest is not None:
        specs = list(manifest.alert_paths)
    if not specs:
        raise ParameterError("no alert sources: pass --alerts FILE or --detector baseline:never")
    if one is not None and len(specs) != 1:
        raise ParameterError(one)
    sources: list[AlertSource] = [
        (load_alerts(spec, series), spec) if isinstance(spec, Path)
        else (generate(spec, series), None)
        for spec in specs
    ]
    require_distinct_detectors(alert.detector for alert, _ in sources)
    return series, sources


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


def _write_atomic(target: Path, write: Callable[[Path], object]) -> None:
    """Call ``write`` on a temporary file beside ``target``, then rename it onto ``target``.

    A write that fails removes the temporary file and leaves ``target`` as
    it was, so an artifact is either whole or absent.
    """
    partial = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        write(partial)
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _copies(sources: list[AlertSource]) -> list[AlertCopy]:
    """What ``_outputs`` needs of each source; a file source's values are not in it."""
    return [(alert.detector, alert if src is None else src) for alert, src in sources]


def _outputs(
    args: argparse.Namespace,
    series: LabeledSeries,
    copies: list[AlertCopy],
    name: str,
    write: Callable[[Path], object],
) -> Path:
    """Create the output directory, keep a byte-faithful copy of every consumed
    alert stream in it, then write the artifact ``name``; return its path."""
    outdir = _prepare_outdir(args)
    alert_dir = outdir / "alerts"
    alert_dir.mkdir(parents=True, exist_ok=True)
    used: set[str] = set()
    for detector, source in copies:
        dest = alert_dir / (_safe_filename(detector, used) + ".jsonl")
        if isinstance(source, Path):
            _write_atomic(dest, lambda partial: shutil.copyfile(source, partial))
        else:
            _write_atomic(dest, lambda partial: save_alerts(source, series, partial))
    target = outdir / name
    _write_atomic(target, write)
    return target


def cmd_score(args: argparse.Namespace) -> int:
    """``evaluate`` (one detector, ``report.*``) and ``compare`` (``comparison.*``)."""
    raw = args.metrics or ()
    metrics = [part.strip() for chunk in raw for part in chunk.split(",") if part.strip()] or None
    if raw and metrics is None:
        raise ParameterError("--metrics was given but names no metrics")
    for metric in metrics or ():
        bind_metric(metric)
    specs = _alert_specs(args)
    gap_tolerance = read_gap_tolerance(args.gap_tolerance)
    compare = args.command == "compare"
    one = None if compare else "evaluate scores one detector; use compare for several"
    series, sources = _inputs(args, specs, one)
    for warning in validate_pair(series, gap_tolerance=gap_tolerance).warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for alert, _ in sources:
        for warning in alarm_warnings(alert):
            print(f"warning: {alert.detector}: {warning}", file=sys.stderr)
    reports = [
        evaluate_detector(series, alert, metrics=metrics, gap_tolerance=gap_tolerance)
        for alert, _ in sources
    ]
    if args.format == "json" and not compare:
        text = report_to_json(reports[0])
    else:
        text = build_table(reports, rank_by=getattr(args, "rank_by", None)).render(args.format)
    _outputs(
        args, series, _copies(sources), f"{'comparison' if compare else 'report'}.{args.format}",
        lambda partial: partial.write_text(text, encoding="utf-8"),
    )
    print(text, end="")
    return 0


_WIDTH_RE = re.compile(r"\s*([0-9]+(?:\.[0-9]+)?)\s*(s|m|h)?\s*")
_UNIT_SECONDS = {"s": 1, "m": 60, "h": 3600}


def _width_match(text: str) -> re.Match[str]:
    match = _WIDTH_RE.fullmatch(text)
    if not match:
        raise ParameterError(
            f"cannot parse --min-width {text!r}; use a tick count or a duration like 60s"
        )
    return match


def _width_ticks(match: re.Match[str], tick_seconds: Fraction) -> float:
    number, unit = match.groups()
    value = exact_param("--min-width", number, within=None)
    if unit is not None:
        value = value * _UNIT_SECONDS[unit] / tick_seconds
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(
            f"--min-width {match.string!r} is too large:"
            " the width in ticks overflows a 64-bit float"
        ) from None


def parse_min_width(text: str, tick_seconds: Fraction) -> float:
    """Minimum drawn alarm width: plain ticks, or a duration like ``60s``."""
    return _width_ticks(_width_match(text), tick_seconds)


def cmd_timeline(args: argparse.Namespace) -> int:
    specs = _alert_specs(args)
    width = _width_match(args.min_width)
    series, sources = _inputs(args, specs)
    rendering = render_timeline(
        series,
        [alert for alert, _ in sources],
        min_width_ticks=_width_ticks(width, series.tick_seconds),
        exempt=args.exempt or (),
    )
    target = _outputs(args, series, _copies(sources), "timeline.svg", rendering.save)
    widened = sum(np.count_nonzero(lane.widened) for lane in rendering.lanes)
    print(f"wrote {target} ({len(rendering.lanes)} lanes, {widened} alarms widened)")
    return 0


def _roc_thresholds(args: argparse.Namespace) -> np.ndarray | None:
    """The ``--thresholds`` values, or None for ``--auto``."""
    if args.thresholds and args.auto:
        raise ParameterError("pass either --thresholds or --auto, not both")
    if args.auto:
        return None
    if not args.thresholds:
        raise ParameterError("pass --thresholds LIST or --auto to choose operating points")
    try:
        thresholds = [float(part) for part in args.thresholds.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(
            f"--thresholds must be comma-separated numbers, got {args.thresholds!r}"
        ) from None
    return listed_thresholds(thresholds)


def cmd_roc(args: argparse.Namespace) -> int:
    specs = _alert_specs(args)
    thresholds = _roc_thresholds(args)
    series, sources = _inputs(args, specs, one="roc sweeps one scored detector at a time")
    alert = sources[0][0]
    curve = roc(series, alert, alert.values if thresholds is None else thresholds)
    # The curve is all the writer reads, so the scores go before it runs.
    copies, detector = _copies(sources), alert.detector
    del sources, alert
    area = auc(curve)
    if args.format == "json":
        chunks = roc_json_chunks(curve, series.name, detector, area.value)
    else:
        chunks = roc_csv_chunks(curve)

    def stream(partial: Path) -> None:
        with open(partial, "wb") as handle:
            handle.writelines(chunks)

    target = _outputs(args, series, copies, f"roc.{args.format}", stream)
    print(f"auc: {area.value:.6f}")
    print(f"wrote {target}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    specs = [BaselineSpec.parse(token).with_seed(args.seed) for token in args.detector]
    series, _ = _load_dataset(args)
    outdir = _prepare_outdir(args)
    used: set[str] = set()
    for spec in specs:
        alert = generate(spec, series)
        target = outdir / (_safe_filename(alert.detector, used) + ".jsonl")
        _write_atomic(target, lambda partial: save_alerts(alert, series, partial))
        print(f"wrote {target}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help and usage writes raise ``OSError`` when
    they fail, as every other write does; its subparsers share the class."""

    def _print_message(self, message: str, file=None) -> None:
        if message:
            with contextlib.suppress(AttributeError):  # no stream to write to
                (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="idseval",
        description="Score intrusion detectors against labeled time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--labels", metavar="CSV", help="label file (timestamp,label)")
    dataset.add_argument("--config", metavar="JSON", help="dataset manifest")
    dataset.add_argument("--name", help="dataset display name (with --labels)")
    dataset.add_argument(
        "--tick-seconds", metavar="SECONDS",
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
        help="non-negative seed for random baselines given without one (default 0)",
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
    p_eval.set_defaults(func=cmd_score)

    p_cmp = sub.add_parser(
        "compare", parents=[dataset, alerts, scoring, outputs],
        help="score several detectors side by side",
    )
    p_cmp.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p_cmp.add_argument(
        "--rank-by", metavar="METRIC",
        help="sort rows best-first by this metric column (undefined values last)",
    )
    p_cmp.set_defaults(func=cmd_score)

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
    p_tl.set_defaults(func=cmd_timeline)

    p_roc = sub.add_parser(
        "roc", parents=[dataset, alerts, outputs],
        help="sweep thresholds over scored alerts and report the curve and AUC",
    )
    p_roc.add_argument(
        "--thresholds", metavar="LIST",
        help="comma-separated threshold values; write a list that starts with a "
             "negative number as --thresholds=-0.5,0.1",
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
        help="non-negative seed for random baselines given without one (default 0)",
    )
    p_base.set_defaults(func=cmd_baseline)

    return parser


def _error(code: int, exc: BaseException, *more: str) -> int:
    """Print ``error: exc`` and the ``more`` lines on stderr and return ``code``.

    A stderr that cannot take them changes nothing: the exit code still tells.
    """
    with contextlib.suppress(OSError):
        print(f"error: {exc}", *more, sep="\n", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UnknownMetricError as exc:
        return _error(2, exc, "metric catalog:", *catalog_lines())
    except ParameterError as exc:
        return _error(2, exc)
    except (EvaluationError, OSError) as exc:
        return _error(1, exc)


def run() -> None:
    """Process entry of ``python -m idseval.cli`` and the ``idseval`` script.

    Runs ``main``, flushes stdout and stderr, and skips the interpreter's
    finalization with ``os._exit``: ``main`` has closed every artifact, and
    idseval registers no ``atexit`` handler and starts no thread. A failed
    flush is an I/O error: one ``error:`` line on stderr, exit code 1. The
    exception is stderr's after a failed run: what it held was that run's
    ``error:`` line, and the run's exit code stands.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        if not (exc.code is None or isinstance(exc.code, int)):
            raise
        code = exc.code or 0
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None and not stream.closed:
                stream.flush()
        except OSError as exc:  # not retried: a failed flush may have dropped its bytes
            if code == 0 or stream is sys.stdout:
                code = _error(1, exc)
    os._exit(code)


if __name__ == "__main__":
    run()
