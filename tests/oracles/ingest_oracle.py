"""Reference label and alert loaders: the line-by-line readers idseval began with.

``load_labels`` and ``load_alerts`` here are kept exactly as first written:
``csv.reader`` and ``json.loads`` on every line, a Python loop over every
record, errors raised in file order. The block-parsed loaders in
``idseval.ingest`` must give the same series, or the same ``IngestError``
message, for every input these accept or reject with an ``IngestError``.
This file never changes to match the fast code.

``save_alerts`` is the string-template writer that ``idseval.ingest`` used
before it built boolean records in numpy; both must write the same bytes.

One fix has been made here as in ``idseval.ingest``, because both numbered
order errors wrongly: a duplicate or decreasing timestamp is reported at its
record's own line, where blank lines before it used to shift the number.
"""

from __future__ import annotations

import csv
import json
import re
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from idseval.ingest import IngestError
from idseval.model import AlertKind, AlertSeries, LabeledSeries, require_alignment

LABEL_HEADER = ("timestamp", "label")
_INT_RE = re.compile(r"[+-]?\d+\Z")
_WRITE_ROWS = 1 << 14


def _fail(path: Path | str, line: int | None, message: str) -> "IngestError":
    where = f"{path}: line {line}: " if line is not None else f"{path}: "
    return IngestError(where + message)


def _parse_timestamp(raw: object, path: Path | str, line: int) -> int:
    """Integer ticks pass through; ISO-8601 strings become epoch seconds."""
    if isinstance(raw, bool):
        raise _fail(path, line, f"timestamp must be an integer or ISO-8601 string, got {raw!r}")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        text = raw.strip()
        if _INT_RE.match(text):
            return int(text)
        try:
            moment = datetime.fromisoformat(text)
        except ValueError:
            raise _fail(
                path, line, f"timestamp must be an integer or ISO-8601 string, got {raw!r}"
            ) from None
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        epoch = moment.timestamp()
        if epoch != int(epoch):
            raise _fail(path, line, f"sub-second timestamps are not supported: {raw!r}")
        return int(epoch)
    raise _fail(path, line, f"timestamp must be an integer or ISO-8601 string, got {raw!r}")


def _check_increasing(timestamps: list[int], lines: list[int], path: Path | str) -> None:
    for i in range(1, len(timestamps)):
        if timestamps[i] <= timestamps[i - 1]:
            kind = "duplicate" if timestamps[i] == timestamps[i - 1] else "non-increasing"
            raise _fail(
                path,
                lines[i],
                f"{kind} timestamp {timestamps[i]} (previous was {timestamps[i - 1]})",
            )


def load_labels(
    path: Path | str,
    name: str | None = None,
    tick_seconds: Fraction | int | str = 1,
) -> LabeledSeries:
    """Read a ``timestamp,label`` CSV into a LabeledSeries.

    The label ``benign`` (or ``0``) marks benign points; any other non-empty
    string names an attack type. Timestamps must be strictly increasing.
    """
    path = Path(path)
    timestamps: list[int] = []
    lines: list[int] = []
    labels: list[str] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise _fail(path, None, "empty file, expected a 'timestamp,label' header") from None
        if tuple(cell.strip() for cell in header) != LABEL_HEADER:
            raise _fail(path, 1, f"expected header 'timestamp,label', got {','.join(header)!r}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise _fail(path, line, f"expected 2 fields, got {len(row)}")
            timestamps.append(_parse_timestamp(row[0], path, line))
            label = row[1].strip()
            if not label:
                raise _fail(path, line, "empty label")
            labels.append(label)
            lines.append(line)
    if not timestamps:
        raise _fail(path, None, "no data rows")
    _check_increasing(timestamps, lines, path)
    return LabeledSeries.from_labels(
        name=name or path.stem,
        timestamps=timestamps,
        labels=labels,
        tick_seconds=tick_seconds,
    )


def load_alerts(
    path: Path | str,
    series: LabeledSeries,
    detector: str | None = None,
) -> AlertSeries:
    """Read an alert JSONL file and align it against one labeled series.

    Every record needs ``timestamp`` plus exactly one of ``alert`` (bool) or
    ``score`` (number); a file may not mix the two. The timestamps must match
    the dataset's exactly, in order; misalignment errors quote up to ten
    missing and ten unexpected timestamps. The detector name comes from the
    ``detector`` argument, else a consistent ``"detector"`` field, else the
    file stem.
    """
    path = Path(path)
    timestamps: list[int] = []
    lines: list[int] = []
    payload: list[object] = []
    kind: AlertKind | None = None
    field_detector: str | None = None
    with open(path, encoding="utf-8") as handle:
        for line, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
            except json.JSONDecodeError as exc:
                raise _fail(path, line, f"invalid JSON: {exc.msg}") from None
            if not isinstance(record, dict):
                raise _fail(path, line, "expected a JSON object")
            unknown = set(record) - {"timestamp", "alert", "score", "detector"}
            if unknown:
                raise _fail(path, line, f"unknown fields: {', '.join(sorted(unknown))}")
            if "timestamp" not in record:
                raise _fail(path, line, "missing 'timestamp'")
            has_alert = "alert" in record
            has_score = "score" in record
            if has_alert == has_score:
                raise _fail(path, line, "each record needs exactly one of 'alert' or 'score'")
            record_kind = AlertKind.BOOLEAN if has_alert else AlertKind.SCORED
            if kind is None:
                kind = record_kind
            elif kind is not record_kind:
                raise _fail(
                    path, line, "file mixes 'alert' and 'score' records; use one throughout"
                )
            if has_alert:
                value = record["alert"]
                if not isinstance(value, bool):
                    raise _fail(path, line, f"'alert' must be true or false, got {value!r}")
            else:
                value = record["score"]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise _fail(path, line, f"'score' must be a number, got {value!r}")
                value = float(value)
                if not np.isfinite(value):
                    raise _fail(path, line, f"'score' must be finite, got {value!r}")
            name = record.get("detector")
            if name is not None:
                if not isinstance(name, str) or not name:
                    raise _fail(path, line, f"'detector' must be a non-empty string, got {name!r}")
                if field_detector is None:
                    field_detector = name
                elif field_detector != name:
                    raise _fail(
                        path,
                        line,
                        f"conflicting detector names {field_detector!r} and {name!r}",
                    )
            timestamps.append(_parse_timestamp(record["timestamp"], path, line))
            payload.append(value)
            lines.append(line)
    if not timestamps:
        raise _fail(path, None, "no alert records")
    _check_increasing(timestamps, lines, path)

    got = np.asarray(timestamps, dtype=np.int64)
    want = series.timestamps
    if len(got) != len(want) or not np.array_equal(got, want):
        missing = np.setdiff1d(want, got)
        extra = np.setdiff1d(got, want)
        parts = [f"alerts do not align with dataset '{series.name}'"]
        if len(missing):
            shown = ", ".join(str(t) for t in missing[:10])
            parts.append(f"{len(missing)} dataset timestamps missing (first: {shown})")
        if len(extra):
            shown = ", ".join(str(t) for t in extra[:10])
            parts.append(f"{len(extra)} unexpected timestamps (first: {shown})")
        raise _fail(path, None, "; ".join(parts))

    name = detector or field_detector or path.stem
    if kind is AlertKind.BOOLEAN:
        return AlertSeries.from_bool(detector=name, values=payload, aligned_to=series.name)
    return AlertSeries.from_scores(detector=name, values=payload, aligned_to=series.name)


def save_alerts(alerts: AlertSeries, series: LabeledSeries, path: Path | str) -> None:
    """Write an alert series as JSONL, one record per point.

    Output is deterministic: fixed key order, fixed float formatting, one
    line per point in series order. Each line is byte for byte
    ``json.dumps({"timestamp": t, key: v, "detector": d}) + "\\n"``, built
    from a string template: ``%d`` formats ints and ``%r`` floats exactly as
    ``json`` does.
    """
    require_alignment(series, alerts)
    path = Path(path)
    detector = json.dumps(alerts.detector).replace("%", "%%")
    boolean = alerts.kind is AlertKind.BOOLEAN
    if boolean:
        line = '{"timestamp": %d, "alert": %s, "detector": ' + detector + "}\n"
    else:
        line = '{"timestamp": %d, "score": %r, "detector": ' + detector + "}\n"
    with open(path, "w", encoding="utf-8") as handle:
        for start in range(0, len(alerts), _WRITE_ROWS):
            timestamps = series.timestamps[start : start + _WRITE_ROWS].tolist()
            values = alerts.values[start : start + _WRITE_ROWS]
            if boolean:
                values = np.where(values, "true", "false")
            fields: list[object] = [None] * (2 * len(timestamps))
            fields[0::2] = timestamps
            fields[1::2] = values.tolist()
            handle.write((line * len(timestamps)) % tuple(fields))
