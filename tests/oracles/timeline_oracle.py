"""Reference SVG timeline: the per-rect renderer idseval began with.

``_widen`` and ``render_timeline`` here are kept exactly as first written:
a Python loop widens each short alert run, and each ``<rect>`` is one
f-string. The array-backed renderer in ``idseval.report`` must give the
same SVG text and equal lane metadata. This file never changes to match
the fast code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable
from xml.sax.saxutils import escape

from idseval.model import (
    AlertKind,
    AlertSeries,
    EvaluationError,
    Intervals,
    LabeledSeries,
    ParameterError,
    alerts_to_intervals,
    extract_scenarios,
)
from idseval.report import TimelineLane, TimelineRendering


def _widen(
    spans: list[tuple[float, float]],
    min_width: float,
    lo: float,
    hi: float,
) -> tuple[list[tuple[float, float]], list[bool]]:
    drawn: list[tuple[float, float]] = []
    widened: list[bool] = []
    for start, end in spans:
        width = end - start
        if width >= min_width:
            drawn.append((start, end))
            widened.append(False)
            continue
        center = (start + end) / 2.0
        new_start = max(lo, center - min_width / 2.0)
        new_end = min(hi, new_start + min_width)
        new_start = max(lo, new_end - min_width)
        drawn.append((new_start, new_end))
        widened.append(True)
    return drawn, widened


_GT_COLOR = "#c0392b"
_ALERT_COLOR = "#2e6da4"
_WIDENED_COLOR = "#7aa6d2"


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
    """
    min_width = float(min_width_ticks)
    if min_width < 0:
        raise ParameterError("min_width_ticks must be non-negative")
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

    t0 = float(series.timestamps[0])
    t1 = float(series.timestamps[-1]) + 1.0

    def lane(name: str, kind: str, runs: Intervals) -> TimelineLane:
        lo, hi = runs.spans(series.timestamps)
        true_spans = list(zip(lo.tolist(), hi.tolist()))
        if kind == "labels" or name in exempt_names:
            drawn, widened = true_spans, [False] * len(true_spans)
        else:
            drawn, widened = _widen(true_spans, min_width, t0, t1)
        return TimelineLane(
            name=name,
            kind=kind,
            true_spans=tuple(true_spans),
            drawn_spans=tuple(drawn),
            widened=tuple(widened),
        )

    lanes = [lane("ground truth", "labels", Intervals.of_scenarios(extract_scenarios(series)))]
    lanes += [lane(a.detector, "alerts", alerts_to_intervals(a, series)) for a in alerts]

    margin_left, margin_right = 160.0, 20.0
    lane_height, lane_gap = 26.0, 8.0
    top, bottom = 42.0, 28.0
    plot_width = 720.0
    width = margin_left + plot_width + margin_right
    height = top + len(lanes) * (lane_height + lane_gap) + bottom
    scale = plot_width / (t1 - t0)

    def x(t: float) -> float:
        return margin_left + (t - t0) * scale

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    parts.append(
        '<style>text { font-family: monospace; font-size: 12px; fill: #222; }</style>'
    )
    parts.append(f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>')
    title = f"{series.name} (1 tick = {series.tick_seconds}s)"
    parts.append(f'<text x="{margin_left:.1f}" y="20">{escape(title)}</text>')
    axis_y = top - 6.0
    parts.append(
        f'<line x1="{x(t0):.2f}" y1="{axis_y:.2f}" x2="{x(t1):.2f}" y2="{axis_y:.2f}" '
        'stroke="#999" stroke-width="1"/>'
    )
    parts.append(f'<text x="{x(t0):.2f}" y="{axis_y - 4:.2f}">{series.timestamps[0]}</text>')
    end_label = str(int(series.timestamps[-1]) + 1)
    parts.append(
        f'<text x="{x(t1):.2f}" y="{axis_y - 4:.2f}" text-anchor="end">{end_label}</text>'
    )

    for row, lane in enumerate(lanes):
        lane_top = top + row * (lane_height + lane_gap)
        label_y = lane_top + lane_height / 2.0 + 4.0
        parts.append(
            f'<rect x="{margin_left:.1f}" y="{lane_top:.2f}" width="{plot_width:.1f}" '
            f'height="{lane_height:.1f}" fill="#f4f4f4"/>'
        )
        parts.append(f'<text x="8" y="{label_y:.2f}">{escape(lane.name)}</text>')
        base_color = _GT_COLOR if lane.kind == "labels" else _ALERT_COLOR
        for span, flag in zip(lane.drawn_spans, lane.widened):
            color = _WIDENED_COLOR if flag else base_color
            rect_x = x(span[0])
            rect_w = max(0.01, (span[1] - span[0]) * scale)
            parts.append(
                f'<rect x="{rect_x:.2f}" y="{lane_top + 4:.2f}" width="{rect_w:.2f}" '
                f'height="{lane_height - 8:.1f}" fill="{color}"/>'
            )

    parts.append("</svg>")
    return TimelineRendering(
        svg="\n".join(parts) + "\n",
        lanes=tuple(lanes),
        min_width_ticks=min_width,
    )
