"""Comparison tables, report serialization and SVG alert timelines.

Tables render metric values to three decimals and show an em dash for
Undefined values so that a missing denominator never masquerades as a score
of zero. Timelines widen sub-threshold alarms to a configurable minimum
width so that short alarms stay visible at screen resolution; widened lanes
are flagged in the metadata and detectors can be exempted (for a coin-flip
detector, widening would paint the whole lane solid).
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .model import (
    AlertKind,
    AlertSeries,
    EvaluationError,
    Intervals,
    LabeledSeries,
    MetricReport,
    MetricValue,
    ParameterError,
    Record,
    alerts_to_intervals,
    extract_scenarios,
    float_ticks,
)
from .jsonl import without_nuls
from .pointwise import RocCurve

UNDEFINED_CELL = "—"
# Rows per chunk of the ROC writers and of a timeline's <rect> rows;
# bounds the transient arrays.
_ROWS = 1 << 14


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for XML character data.

    The same replacements, in the same order, as ``xml.sax.saxutils.escape``,
    whose import pulls in ``urllib.request``, ``http.client`` and ``email``.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def format_cell(value: MetricValue | None) -> str:
    """Display form of one table cell: dash, integer count or three decimals."""
    if value is None or value.value is None:
        return UNDEFINED_CELL
    if value.exact is not None and value.exact.denominator == 1:
        return str(value.exact.numerator)
    return f"{value.value:.3f}"


class ComparisonTable(NamedTuple):
    """Detectors as rows, metric display names as columns, one dataset."""

    dataset: str
    columns: tuple[str, ...]
    detectors: tuple[str, ...]
    cells: tuple[tuple[MetricValue | None, ...], ...]
    rank_by: str | None = None

    def to_markdown(self) -> str:
        header = ["detector", *self.columns]
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        for detector, row in zip(self.detectors, self.cells):
            rendered = [detector, *map(format_cell, row)]
            lines.append("| " + " | ".join(rendered) + " |")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """Machine-readable form: full-precision floats, empty cell if undefined."""
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["detector", *self.columns])
        for detector, row in zip(self.detectors, self.cells):
            rendered = [
                "" if value is None or value.value is None else repr(value.value)
                for value in row
            ]
            writer.writerow([detector, *rendered])
        return buffer.getvalue()

    def to_json(self) -> str:
        rows = []
        for detector, row in zip(self.detectors, self.cells):
            values: dict[str, float | None] = {}
            exact: dict[str, str] = {}
            for column, value in zip(self.columns, row):
                values[column] = None if value is None else value.value
                if value is not None and value.exact is not None:
                    exact[column] = str(value.exact)
            rows.append({"detector": detector, "values": values, "exact": exact})
        payload = {
            "dataset": self.dataset,
            "columns": list(self.columns),
            "rank_by": self.rank_by,
            "rows": rows,
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "md":
            return self.to_markdown()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ParameterError(f"unknown table format {fmt!r}; expected csv, md or json")


def build_table(reports: Iterable[MetricReport], rank_by: str | None = None) -> ComparisonTable:
    """Merge per-detector reports from one dataset into a comparison table.

    Column order follows first appearance; row order is input order. With
    ``rank_by``, rows are sorted descending on that column and rows where it
    is Undefined sink to the bottom.
    """
    reports = list(reports)
    if not reports:
        raise EvaluationError("nothing to compare: no reports given")
    datasets = {report.dataset for report in reports}
    if len(datasets) > 1:
        raise EvaluationError(
            "cannot compare across datasets: " + ", ".join(sorted(datasets))
        )
    detectors = [report.detector for report in reports]
    if len(set(detectors)) != len(detectors):
        dupes = sorted({d for d in detectors if detectors.count(d) > 1})
        raise EvaluationError(f"duplicate detector names: {', '.join(dupes)}")

    columns: list[str] = []
    for report in reports:
        for metric in report.metrics:
            if metric.display_name not in columns:
                columns.append(metric.display_name)

    if rank_by is not None:
        if rank_by not in columns:
            raise ParameterError(
                f"rank-by metric {rank_by!r} is not in the table; "
                f"columns: {', '.join(columns)}"
            )

        def key(report: MetricReport) -> tuple[bool, float]:
            value = report.get(rank_by)
            if value is None or value.value is None:
                return (True, 0.0)
            return (False, -value.value)

        reports.sort(key=key)

    cells = tuple(
        tuple(report.get(column) for column in columns) for report in reports
    )
    return ComparisonTable(
        dataset=reports[0].dataset,
        columns=tuple(columns),
        detectors=tuple(report.detector for report in reports),
        cells=cells,
        rank_by=rank_by,
    )


def report_to_dict(report: MetricReport) -> dict:
    """JSON-ready form of one detector's full report."""
    metrics = []
    for value in report.metrics:
        entry: dict[str, object] = {
            "name": value.name,
            "display_name": value.display_name,
            "value": value.value,
        }
        if value.params:
            entry["params"] = dict(value.params)
        if value.exact is not None:
            entry["exact"] = str(value.exact)
        metrics.append(entry)
    return {
        "dataset": report.dataset,
        "detector": report.detector,
        "tick_seconds": float(report.tick_seconds),
        "tick_seconds_exact": str(report.tick_seconds),
        "metrics": metrics,
        "scenarios": [row._asdict() for row in report.scenario_details],
    }


def report_to_json(report: MetricReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


class TimelineLane(Record):
    """One horizontal band of the timeline and what was drawn in it.

    ``true_spans`` and ``drawn_spans`` are read-only float64 arrays of
    half-open ``[start, end)`` tick spans, shape ``(runs, 2)``; ``widened``
    is a read-only bool array, one flag per run. When no run was widened,
    ``drawn_spans`` is ``true_spans``.
    """

    __slots__ = _fields = ("name", "kind", "true_spans", "drawn_spans", "widened")

    def __init__(
        self,
        name: str,
        kind: str,
        true_spans: np.ndarray,
        drawn_spans: np.ndarray,
        widened: np.ndarray,
    ) -> None:
        self._set(name, kind, true_spans, drawn_spans, widened)


class TimelineRendering(Record):
    """An SVG timeline, held as what its text is made from.

    ``frame`` is the UTF-8 text before, between and after the ``<rect>`` rows
    of ``lanes``; the rows are formatted from each lane's ``drawn_spans`` and
    ``widened`` as they are written, a tick ``t`` at x ``_MARGIN_LEFT + (t -
    t0) * scale``. Given ``svg`` text, the whole text is the frame and no rows
    are drawn. ``svg`` is derived: the decoded join of ``chunks()``.
    """

    __slots__ = _fields = ("frame", "lanes", "min_width_ticks", "t0", "scale")

    def __init__(
        self, svg: str | tuple[bytes, ...], lanes: tuple[TimelineLane, ...],
        min_width_ticks: float, t0: float = 0.0, scale: float = 0.0,
    ) -> None:
        frame = (svg.encode("utf-8"),) if isinstance(svg, str) else svg
        self._set(frame, lanes, min_width_ticks, t0, scale)

    @property
    def svg(self) -> str:
        return b"".join(self.chunks()).decode("utf-8")

    def chunks(self) -> Iterator[bytes]:
        """The SVG's UTF-8 bytes in pieces; each chunk of rows is made as it is consumed."""
        yield self.frame[0]
        for row, (lane, text) in enumerate(zip(self.lanes, self.frame[1:])):
            for start in range(0, len(lane.widened), _ROWS):
                rows = slice(start, start + _ROWS)
                yield from without_nuls(_rect_rows(lane, row, rows, self.t0, self.scale))
            yield text

    def save(self, path: Path | str) -> None:
        with open(path, "wb") as handle:
            handle.writelines(self.chunks())


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


_GT_COLOR = "#c0392b"
_ALERT_COLOR = "#2e6da4"
_WIDENED_COLOR = "#7aa6d2"
_MARGIN_LEFT, _MARGIN_RIGHT, _PLOT_WIDTH = 160.0, 20.0, 720.0
_TOP, _BOTTOM, _LANE_HEIGHT, _LANE_GAP = 42.0, 28.0, 26.0, 8.0


def _rows(n: int, columns: Iterable[np.ndarray]) -> np.ndarray:
    """``n`` rows of uint8 text, the ``columns`` side by side: a 1-D column is
    a piece repeated on every row, a 2-D one holds a field per row."""
    return np.concatenate([np.broadcast_to(column, (n, column.shape[-1])) for column in columns], 1)


def _rect_rows(lane: TimelineLane, row: int, rows: slice, t0: float, scale: float) -> np.ndarray:
    """The ``rows`` of the ``row``-th lane's ``<rect>`` rows as one uint8 matrix
    (``_rows``): the template's pieces, the ``'%.2f'`` fields of x and width
    (``floattext.fixed2_fields``) and the fill colour between them; dropping
    the NULs leaves the text."""
    # Imported on use, so that verbs without a timeline never compile it.
    from .floattext import fixed2_fields

    lo, hi = lane.drawn_spans[rows].T
    lane_top = _TOP + row * (_LANE_HEIGHT + _LANE_GAP)
    palette = _ascii((_GT_COLOR if lane.kind == "labels" else _ALERT_COLOR) + _WIDENED_COLOR)
    return _rows(len(lo), (
        _ascii('<rect x="'), fixed2_fields(_MARGIN_LEFT + (lo - t0) * scale),
        _ascii(f'" y="{lane_top + 4:.2f}" width="'),
        fixed2_fields(np.maximum(0.01, (hi - lo) * scale)),
        _ascii(f'" height="{_LANE_HEIGHT - 8:.1f}" fill="'),
        palette.reshape(2, -1)[lane.widened[rows].view(np.uint8)], _ascii('"/>\n'),
    ))


def render_timeline(
    series: LabeledSeries,
    alerts: list[AlertSeries],
    min_width_ticks: float | int | Fraction = 0,
    exempt: Iterable[str] = (),
) -> TimelineRendering:
    """Draw ground truth plus one lane per detector as an SVG timeline.

    Alert runs narrower than ``min_width_ticks`` are drawn centered at that
    minimum width (clipped to the series span); the ground-truth lane and
    detectors named in ``exempt`` always show true widths. The output string
    depends only on the inputs, so identical calls produce identical bytes.
    Spans are widened in numpy; the lanes' ``<rect>`` rows are formatted
    only as the rendering is written or read (``TimelineRendering.chunks``).
    """
    try:
        min_width = float(min_width_ticks)
    except OverflowError:  # an int or Fraction past the float range
        min_width = np.inf
    if not 0 <= min_width < np.inf:
        raise ParameterError("min_width_ticks must be finite and non-negative")
    exempt_names = set(exempt)
    for alert_series in alerts:
        if alert_series.kind is not AlertKind.BOOLEAN:
            raise EvaluationError(
                f"timeline requires boolean alerts; detector "
                f"'{alert_series.detector}' produced scores"
            )
    names = [a.detector for a in alerts]
    if len(set(names)) != len(names):
        raise EvaluationError("duplicate detector names in timeline")
    unknown_exempt = exempt_names - set(names)
    if unknown_exempt:
        raise ParameterError(
            "exempt names not among the detectors: " + ", ".join(sorted(unknown_exempt))
        )

    t0, last = float_ticks(series.timestamps, [0, -1]).tolist()
    t1 = last + 1.0

    def frozen(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        spans = np.column_stack((lo, hi))
        spans.setflags(write=False)
        return spans

    def lane(name: str, kind: str, runs: Intervals) -> TimelineLane:
        lo, hi = runs.spans(series.timestamps)
        true_spans = drawn_spans = frozen(lo, hi)
        widened = np.zeros(len(lo), dtype=bool)
        if kind != "labels" and name not in exempt_names:
            widened = hi - lo < min_width
            if widened.any():
                # The operations and order of widening one run at a time, so
                # the drawn spans are bit-identical to it.
                center = (lo[widened] + hi[widened]) / 2.0
                new_start = np.maximum(t0, center - min_width / 2.0)
                new_end = np.minimum(t1, new_start + min_width)
                new_start = np.maximum(t0, new_end - min_width)
                lo[widened], hi[widened] = new_start, new_end
                drawn_spans = frozen(lo, hi)
        widened.setflags(write=False)
        return TimelineLane(name, kind, true_spans, drawn_spans, widened)

    lanes = (lane("ground truth", "labels", extract_scenarios(series).runs),)
    lanes += tuple(lane(a.detector, "alerts", alerts_to_intervals(a, series)) for a in alerts)

    width = _MARGIN_LEFT + _PLOT_WIDTH + _MARGIN_RIGHT
    height = _TOP + len(lanes) * (_LANE_HEIGHT + _LANE_GAP) + _BOTTOM
    scale = _PLOT_WIDTH / (t1 - t0)

    def x(t: float) -> float:
        return _MARGIN_LEFT + (t - t0) * scale

    # Every part is one line of the SVG, newline included; each lane's rect rows
    # go after its label.
    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
    )
    parts.append(
        '<style>text { font-family: monospace; font-size: 12px; fill: #222; }</style>\n'
    )
    parts.append(f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>\n')
    title = f"{series.name} (1 tick = {series.tick_seconds}s)"
    parts.append(f'<text x="{_MARGIN_LEFT:.1f}" y="20">{_escape(title)}</text>\n')
    axis_y = _TOP - 6.0
    parts.append(
        f'<line x1="{x(t0):.2f}" y1="{axis_y:.2f}" x2="{x(t1):.2f}" y2="{axis_y:.2f}" '
        'stroke="#999" stroke-width="1"/>\n'
    )
    parts.append(f'<text x="{x(t0):.2f}" y="{axis_y - 4:.2f}">{series.timestamps[0]}</text>\n')
    end_label = str(int(series.timestamps[-1]) + 1)
    parts.append(
        f'<text x="{x(t1):.2f}" y="{axis_y - 4:.2f}" text-anchor="end">{end_label}</text>\n'
    )

    frame: list[bytes] = []
    for row, lane in enumerate(lanes):
        lane_top = _TOP + row * (_LANE_HEIGHT + _LANE_GAP)
        label_y = lane_top + _LANE_HEIGHT / 2.0 + 4.0
        parts.append(
            f'<rect x="{_MARGIN_LEFT:.1f}" y="{lane_top:.2f}" width="{_PLOT_WIDTH:.1f}" '
            f'height="{_LANE_HEIGHT:.1f}" fill="#f4f4f4"/>\n'
        )
        parts.append(f'<text x="8" y="{label_y:.2f}">{_escape(lane.name)}</text>\n')
        frame.append("".join(parts).encode("utf-8"))
        parts = []
    frame.append(b"</svg>\n")
    return TimelineRendering(tuple(frame), lanes, min_width, t0, scale)


def _roc_rows(
    curve: RocCurve, pieces: tuple[bytes, ...], ends: tuple[bytes, bytes] | None = None
) -> Iterator[bytes]:
    """Per point, ``pieces`` interleaved with the reprs of threshold, fpr and tpr.

    Each yielded chunk covers up to ``_ROWS`` points. A chunk is ``_rows`` of
    the pieces and each column's NUL-padded field (``floattext.repr_fields``);
    dropping the NULs leaves the text. ``ends`` replaces the first and last
    thresholds.
    """
    # Imported on use, so that verbs without a ROC never compile it.
    from .floattext import WIDTH, repr_fields

    fixed = [np.frombuffer(piece, dtype=np.uint8) for piece in pieces]
    if ends is not None:
        first, last = (np.frombuffer(end.ljust(WIDTH, b"\0"), dtype=np.uint8) for end in ends)
    n = len(curve.thresholds)
    for start in range(0, n, _ROWS):
        stop = min(start + _ROWS, n)
        columns = [fixed[0]]  # then each field, the piece after it
        for column, piece in zip((curve.thresholds, curve.fpr, curve.tpr), fixed[1:]):
            columns += (repr_fields(column[start:stop]), piece)
        if ends is not None:
            if start == 0:
                columns[1][0] = first
            if stop == n:
                columns[1][-1] = last
        rows = _rows(stop - start, columns)
        yield rows[rows != 0].tobytes()


def roc_csv_chunks(curve: RocCurve) -> Iterator[bytes]:
    """The UTF-8 text of ``roc_to_csv`` in pieces, made as they are consumed."""
    yield b"threshold,fpr,tpr\n"
    yield from _roc_rows(curve, (b"", b",", b",", b"\n"))


def roc_to_csv(curve: RocCurve) -> str:
    """CSV form of a ROC sweep: threshold, fpr, tpr per row.

    Float reprs need no CSV quoting, so each row is the three reprs joined
    by commas, byte-equal to ``csv.writer`` over the same reprs.
    """
    return b"".join(roc_csv_chunks(curve)).decode()


def roc_json_chunks(
    curve: RocCurve, dataset: str, detector: str, area: float | None
) -> Iterator[bytes]:
    """JSON form of a ROC sweep as UTF-8 pieces: dataset, detector, auc and one
    object per point. The curve is checked before the first piece.

    The text equals ``json.dumps(payload, indent=2) + "\\n"`` of that payload,
    with the first and last thresholds (the synthetic infinite endpoints;
    JSON has no infinity) written as the strings ``"inf"`` and ``"-inf"``.
    ``json.dumps`` writes a finite float as its repr, so the points are rows
    of reprs between fixed pieces, without the pure-Python encoder that
    ``indent`` selects.
    """
    if len(curve.thresholds) == 0 or not np.all(np.isfinite(curve.thresholds[1:-1])):
        raise ValueError("a ROC curve in JSON needs points, infinite only at either end")
    # json.dumps writes a finite float as its repr; the endpoints go in quoted.
    pieces = (
        b'    {\n      "threshold": ',
        b',\n      "fpr": ',
        b',\n      "tpr": ',
        b"\n    },\n",
    )
    head = (
        "{\n"
        f'  "dataset": {json.dumps(dataset)},\n'
        f'  "detector": {json.dumps(detector)},\n'
        f'  "auc": {json.dumps(area)},\n'
        '  "points": [\n'
    ).encode()

    def chunks() -> Iterator[bytes]:
        yield head
        rows = _roc_rows(curve, pieces, (b'"inf"', b'"-inf"'))
        last = next(rows)
        for chunk in rows:
            yield last
            last = chunk
        yield last[:-2] + b"\n  ]\n}\n"  # the last point takes no comma

    return chunks()
