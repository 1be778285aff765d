"""Per-layer spans for one in-process CLI run.

``Tracer.installed()`` replaces each layer's public functions at the names
they are called through (``idseval.cli`` imports most of them by name, so
patching the defining module alone would miss those calls) and restores them
afterwards. Each wrapper records a span (name, start, end, parent) in memory
and, for some layers, a count of the work done. Nothing under ``src/`` is
changed.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


def _read(counts, args, kwargs, result) -> None:
    counts["ingest.rows_read"] += len(result)
    counts["ingest.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _written(counts, args, kwargs, result) -> None:
    counts["ingest.rows_written"] += len(args[0])
    counts["ingest.bytes_written"] += os.path.getsize(args[2] if len(args) > 2 else kwargs["path"])


def _scenarios(counts, args, kwargs, result) -> None:
    counts["model.scenarios"] += len(result)


def _alert_runs(counts, args, kwargs, result) -> None:
    counts["model.alert_runs"] += len(result)
    counts[f"model.alert_runs[{args[0].detector}]"] = len(result)


def _generated(counts, args, kwargs, result) -> None:
    counts["baselines.points_generated"] += len(result)


def _thresholds(counts, args, kwargs, result) -> None:
    counts["pointwise.roc.thresholds"] += len(args[2] if len(args) > 2 else kwargs["thresholds"])


def _zones(counts, args, kwargs, result) -> None:
    counts["affiliation.zones"] += len(result[1])


def _rects(counts, args, kwargs, result) -> None:
    counts["report.svg_rects"] += result.svg.count("<rect")


def call_sites():
    """(namespace, attribute, span name, counter) for every patched call site."""
    from idseval import cli, evaluate, ingest, pointwise, report

    return [
        (cli, "load_labels", "ingest.load_labels", _read),
        # DatasetManifest.load (``--config``) reaches load_labels through ingest.
        (ingest, "load_labels", "ingest.load_labels", _read),
        (cli, "load_alerts", "ingest.load_alerts", _read),
        (cli, "save_alerts", "ingest.save_alerts", _written),
        (cli, "validate_pair", "ingest.validate_pair", None),
        (ingest, "extract_scenarios", "model.extract_scenarios", _scenarios),
        (evaluate, "extract_scenarios", "model.extract_scenarios", _scenarios),
        (report, "extract_scenarios", "model.extract_scenarios", _scenarios),
        (cli, "collapse_multiclass", "model.collapse_multiclass", None),
        (evaluate, "collapse_multiclass", "model.collapse_multiclass", None),
        (evaluate, "alerts_to_intervals", "model.alerts_to_intervals", _alert_runs),
        (report, "alerts_to_intervals", "model.alerts_to_intervals", _alert_runs),
        (cli, "generate", "baselines.generate", _generated),
        (pointwise, "confusion", "pointwise.confusion", None),
        (cli, "roc", "pointwise.roc", _thresholds),
        (cli, "auc", "pointwise.auc", None),
        (evaluate, "etapr", "timeaware.etapr", None),
        (evaluate, "detection_delay", "timeaware.detection_delay", None),
        (evaluate, "detected_scenarios", "timeaware.detected_scenarios", None),
        (evaluate, "affiliation", "affiliation.affiliation", _zones),
        (cli, "evaluate_detector", "evaluate.evaluate_detector", None),
        (cli, "build_table", "report.build_table", None),
        (cli, "roc_to_csv", "report.roc_to_csv", None),
        (cli, "render_timeline", "report.render_timeline", _rects),
        (report.TimelineRendering, "save", "report.timeline_save", None),
    ]


class Tracer:
    """Spans and counts of one traced run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = Span(name, start, time.perf_counter(), parent)
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        sites = call_sites()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in sites]
        for owner, attr, name, counter in sites:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), counter))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Summed wall seconds per span name (``<name>.s``), self seconds and counts."""
        spans = [span for span in self.spans if span is not None]
        child_time = [0.0] * len(self.spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        metrics: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            metrics[f"{span.name}.s"] = metrics.get(f"{span.name}.s", 0.0) + span.duration
            self_key = f"{span.name}.self_s"
            metrics[self_key] = metrics.get(self_key, 0.0) + span.duration - child_time[index]
        metrics.update(self.counts)
        return metrics

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
            if s is not None
        ]

