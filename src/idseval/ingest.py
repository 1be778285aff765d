"""File formats: label CSV, alert JSONL, dataset manifests, validation.

Labels travel as a two-column CSV (``timestamp,label``); alerts as JSON
Lines, one record per point, either ``{"timestamp": ..., "alert": bool}`` or
``{"timestamp": ..., "score": number}`` with an optional ``"detector"``
field. Timestamps are integer ticks or ISO-8601 instants (converted to epoch
seconds); a file must stick to one style. All malformed-input errors carry
the file path and 1-based line number.

Files are read in blocks of whole lines. A block in the exact layout that
``save_labels`` or ``save_alerts`` writes is parsed with numpy, every byte
checked against that layout; any other block goes through ``csv`` or
``json`` record by record. Both routes accept and reject the same files with
the same messages, so the layout only decides the speed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .model import (
    BENIGN_LABELS,
    AlertKind,
    AlertSeries,
    EvaluationError,
    LabeledSeries,
    extract_scenarios,
    require_alignment,
)

LABEL_HEADER = ("timestamp", "label")
_INT_RE = re.compile(r"[+-]?\d+\Z")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

# Small blocks keep each block's numpy temporaries small. 1 MiB blocks
# loaded about 25% faster, but what they left in glibc's heap made the later
# `roc` stage on 3e5 scored points peak 9 MB higher (127 MB, against 118 MB
# with line-by-line reading); with 64 KiB blocks it peaks at 120 MB.
_BLOCK_BYTES = 1 << 16
_WRITE_ROWS = 1 << 14
# Zero bytes appended to a block so that fixed-width gathers near its end
# stay inside the array; no valid line contains a zero byte.
_PAD = 64
_LABEL_HEADER_LINE = b"timestamp,label\n"
_ALERT_PREFIX = b'{"timestamp": '
_DETECTOR_KEY = b', "detector": '
# Longest label and score token the block parser handles; longer ones are
# valid but go through csv/json.
_MAX_LABEL_BYTES = 64
_MAX_NUMBER_BYTES = 32

# A DFA for the JSON number grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
# over byte classes: end of token, '-', '0', '1'-'9', '.', 'e'/'E', '+', other.
_NUM_CLASS = np.full(256, 7, dtype=np.uint8)
_NUM_CLASS[ord("-")] = 1
_NUM_CLASS[ord("0")] = 2
_NUM_CLASS[ord("1") : ord("9") + 1] = 3
_NUM_CLASS[ord(".")] = 4
_NUM_CLASS[[ord("e"), ord("E")]] = 5
_NUM_CLASS[ord("+")] = 6
_END, _ACCEPT = 0, 9  # state 10 rejects
_NUM_NEXT = np.array(
    [
        # end  -   0   1-9  .   e   +  other
        [10, 1, 2, 3, 10, 10, 10, 10],  # 0: start
        [10, 10, 2, 3, 10, 10, 10, 10],  # 1: after '-'
        [9, 10, 10, 10, 4, 6, 10, 10],  # 2: integer part "0"
        [9, 10, 3, 3, 4, 6, 10, 10],  # 3: integer part [1-9][0-9]*
        [10, 10, 5, 5, 10, 10, 10, 10],  # 4: after '.'
        [9, 10, 5, 5, 10, 6, 10, 10],  # 5: fraction digits
        [10, 7, 8, 8, 10, 10, 7, 10],  # 6: after 'e'
        [10, 10, 8, 8, 10, 10, 10, 10],  # 7: exponent sign
        [9, 10, 8, 8, 10, 10, 10, 10],  # 8: exponent digits
        [9, 10, 10, 10, 10, 10, 10, 10],  # 9: accepted (only padding may follow)
        [10] * 8,  # 10: rejected
    ],
    dtype=np.uint8,
)


class IngestError(EvaluationError):
    """A file could not be parsed or failed validation."""


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
            try:
                return int(text)
            except ValueError:  # more digits than int() converts
                raise _fail(path, line, "timestamp has too many digits") from None
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


def _check_increasing(timestamps: np.ndarray, path: Path | str, first_line: int) -> None:
    """Raise at the first record whose timestamp does not exceed its predecessor's.

    Its line is given as ``first_line`` plus the record's index, so blank
    lines before it are not counted.
    """
    bad = np.flatnonzero(timestamps[1:] <= timestamps[:-1])
    if len(bad):
        i = int(bad[0]) + 1
        current, previous = int(timestamps[i]), int(timestamps[i - 1])
        kind = "duplicate" if current == previous else "non-increasing"
        raise _fail(path, first_line + i, f"{kind} timestamp {current} (previous was {previous})")


def _int_column(timestamps: list[int]) -> np.ndarray:
    """int64, or an object array if some value lies outside int64.

    ``_check_range`` rejects such values only after ``_check_increasing``
    has run, so an order error keeps precedence over a range error.
    """
    try:
        return np.array(timestamps, dtype=np.int64)
    except OverflowError:
        return np.array(timestamps, dtype=object)


def _check_range(timestamps: np.ndarray, path: Path | str, first_line: int) -> None:
    """Raise at the first timestamp outside int64, numbering lines as ``_check_increasing``."""
    if timestamps.dtype == object:
        inside = (timestamps >= _INT64_MIN) & (timestamps <= _INT64_MAX)
        i = int(np.flatnonzero(~inside.astype(bool))[0])
        raise _fail(
            path, first_line + i, f"timestamp {timestamps[i]} is outside the 64-bit integer range"
        )


def _read_blocks(handle) -> Iterator[bytes]:
    """Yield a binary file in blocks of whole lines; only the last may lack its newline."""
    tail = b""
    while chunk := handle.read(_BLOCK_BYTES):
        chunk = tail + chunk
        cut = chunk.rfind(b"\n") + 1
        tail = chunk[cut:]
        if cut:
            yield chunk[:cut]
    if tail:
        yield tail


def _text_lines(
    path: Path | str, blocks: Iterable[bytes], first_line: int, newline: str | None
) -> Iterator[str]:
    """Decode blocks into lines, split as ``open(path, newline=newline)`` splits them.

    A byte that is not UTF-8 raises an IngestError for its line once every
    line before it has been yielded, so earlier errors keep precedence.
    """
    line = first_line
    for block in blocks:
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            good = block[: exc.start]
            cut = max(good.rfind(b"\n"), good.rfind(b"\r")) + 1
            lines = io.StringIO(good[:cut].decode("utf-8"), newline=newline).readlines()
            yield from lines
            raise _fail(
                path, line + len(lines), f"not valid UTF-8 (byte 0x{block[exc.start]:02x})"
            ) from None
        lines = io.StringIO(text, newline=newline).readlines()
        line += len(lines)
        yield from lines


def _padded(block: bytes) -> np.ndarray:
    return np.frombuffer(block + bytes(_PAD), dtype=np.uint8)


def _line_bounds(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and newline offsets of the lines in a padded block."""
    ends = np.flatnonzero(arr == ord("\n"))
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    return starts, ends


def _words(arr: np.ndarray) -> np.ndarray:
    """The eight bytes at every offset of ``arr``, each read as one little-endian uint64."""
    return np.ndarray((len(arr) - 7,), dtype="<u8", buffer=arr, strides=(1,))


def _has(words: np.ndarray, at: np.ndarray, text: bytes) -> np.ndarray:
    """Whether ``text`` (eight bytes or more) starts at each offset in ``at``."""
    found = np.ones(len(at), dtype=bool)
    for offset in (*range(0, len(text) - 8, 8), len(text) - 8):
        found &= words[at + offset] == int.from_bytes(text[offset : offset + 8], "little")
    return found


def _gather(arr: np.ndarray, start: np.ndarray, width: np.ndarray, columns: int) -> np.ndarray:
    """``arr[start : start + width]`` per row, left-aligned in ``columns`` bytes, zero-filled."""
    chars = arr[start[:, None] + np.arange(columns)]
    chars[np.arange(columns) >= width[:, None]] = 0
    return chars


def _block_ints(arr: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The integers ``arr[start:end]``, or None unless each is an optional '-' then
    1-19 digits without a leading zero, within int64.

    The digits are right-aligned in a matrix and summed column by column.
    """
    negative = arr[start] == ord("-")
    first = start + negative
    width = end - first
    if not ((width >= 1) & (width <= 19)).all():
        return None
    if not ((width == 1) | (arr[first] != ord("0"))).all():
        return None
    columns = int(width.max())
    # Offsets left of a row's first digit may wrap to the padded end of the
    # block; they are masked to zero either way.
    digits = arr[(end - columns)[:, None] + np.arange(columns)] - np.uint8(ord("0"))
    digits[np.arange(columns) < (columns - width)[:, None]] = 0
    if (digits > 9).any():
        return None
    value = np.zeros(len(start), dtype=np.uint64)
    for column in digits.T:
        value = value * np.uint64(10) + column
    if (value > np.where(negative, np.uint64(2**63), np.uint64(_INT64_MAX))).any():
        return None
    result = value.astype(np.int64)  # 2**63 wraps to -2**63, which negation keeps
    np.negative(result, out=result, where=negative)
    return result


def _block_floats(arr: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The JSON numbers ``arr[start:end]`` as float64, or None unless every token
    matches the JSON number grammar and is finite.

    numpy's bytes-to-float cast also accepts ``1.``, ``.5``, ``nan``, ``inf``,
    ``+1`` and ``1_0``, so tokens are checked by the grammar first.
    """
    width = end - start
    if not ((width >= 1) & (width <= _MAX_NUMBER_BYTES)).all():
        return None
    columns = int(width.max())
    chars = _gather(arr, start, width, columns)
    classes = _NUM_CLASS[chars]
    classes[np.arange(columns) >= width[:, None]] = _END
    state = np.zeros(len(start), dtype=np.uint8)
    for column in classes.T:
        state = _NUM_NEXT[state, column]
    if not (_NUM_NEXT[state, _END] == _ACCEPT).all():
        return None
    values = chars.view(f"S{columns}").ravel().astype(np.float64)
    # Out of range ("1e400", a 400-digit integer): json reports these per line.
    return values if np.isfinite(values).all() else None


def _json_string(token: bytes) -> str | None:
    """The non-empty string a JSON string literal spells, else None."""
    if len(token) < 2 or token[:1] != b'"' or token[-1:] != b'"':
        return None
    try:
        value = json.loads(token.decode("utf-8"))
    except ValueError:
        return None
    return value if isinstance(value, str) and value else None


def _fast_labels(
    block: bytes, index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray] | None:
    """Timestamps and label codes of a block of ``ts,label`` lines, or None.

    None means some byte leaves the layout ``save_labels`` writes for plain
    labels (no quotes, no control bytes, no surrounding whitespace); the
    block then goes through ``csv``. New attack types join ``index`` in the
    order they first appear.
    """
    if not block.endswith(b"\n") or b'"' in block:
        return None
    arr = _padded(block)
    starts, ends = _line_bounds(arr)
    commas = np.flatnonzero(arr == ord(","))
    # One comma per line, and no control byte but the line ends (csv also
    # splits lines at '\r').
    if len(commas) != len(ends) or np.count_nonzero(arr[: len(block)] < 0x20) != len(ends):
        return None
    width = ends - commas - 1
    if not ((commas >= starts) & (width >= 1) & (width <= _MAX_LABEL_BYTES)).all():
        return None
    timestamps = _block_ints(arr, starts, commas)
    if timestamps is None:
        return None
    names = _gather(arr, commas + 1, width, int(width.max()))
    names = names.view(f"S{names.shape[1]}").ravel()
    distinct, first_row, inverse = np.unique(names, return_index=True, return_inverse=True)
    lookup = np.zeros(len(distinct), dtype=np.int32)
    added: dict[str, int] = {}
    for k in np.argsort(first_row):
        try:
            label = distinct[k].decode("utf-8")
        except UnicodeDecodeError:
            return None
        if label != label.strip():
            return None
        if label not in BENIGN_LABELS:
            lookup[k] = index.get(label) or added.setdefault(label, len(index) + len(added) + 1)
    index.update(added)
    return timestamps, lookup[inverse.ravel()]


def _label_rows(
    path: Path, lines: Iterable[str], first_line: int, index: dict[str, int], header: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and label codes of CSV lines, parsed and checked row by row.

    With ``header``, the first row must be the ``timestamp,label`` header.
    """
    reader = csv.reader(lines)
    timestamps: list[int] = []
    codes: list[int] = []
    try:
        if header:
            try:
                row = next(reader)
            except StopIteration:
                raise _fail(path, None, "empty file, expected a 'timestamp,label' header") from None
            if tuple(cell.strip() for cell in row) != LABEL_HEADER:
                raise _fail(path, 1, f"expected header 'timestamp,label', got {','.join(row)!r}")
        for line, row in enumerate(reader, start=first_line + header):
            if not row:
                continue
            if len(row) != 2:
                raise _fail(path, line, f"expected 2 fields, got {len(row)}")
            timestamps.append(_parse_timestamp(row[0], path, line))
            label = row[1].strip()
            if not label:
                raise _fail(path, line, "empty label")
            codes.append(0 if label in BENIGN_LABELS else index.setdefault(label, len(index) + 1))
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise _fail(path, first_line - 1 + reader.line_num, f"malformed CSV: {exc}") from None
    return _int_column(timestamps), np.array(codes, dtype=np.int32)


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
    index: dict[str, int] = {}  # attack type -> code, in order of first appearance
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    with open(path, "rb") as handle:
        blocks = _read_blocks(handle)
        first = next(blocks, b"")
        if first.startswith(_LABEL_HEADER_LINE):
            line = 2
            for block in itertools.chain([first[len(_LABEL_HEADER_LINE) :]], blocks):
                part = _fast_labels(block, index)
                if part is None:
                    # csv quoting can span lines, so the rest of the file goes to csv.
                    rest = _text_lines(path, itertools.chain([block], blocks), line, "")
                    parts.append(_label_rows(path, rest, line, index, header=False))
                    break
                parts.append(part)
                line += len(part[0])
        else:
            lines = _text_lines(path, itertools.chain([first], blocks), 1, "")
            parts.append(_label_rows(path, lines, 1, index, header=True))
    timestamps = np.concatenate([ts for ts, _ in parts])
    if not len(timestamps):
        raise _fail(path, None, "no data rows")
    _check_increasing(timestamps, path, first_line=2)
    _check_range(timestamps, path, first_line=2)
    return LabeledSeries(
        name=name or path.stem,
        timestamps=timestamps,
        label_codes=np.concatenate([codes for _, codes in parts]),
        attack_types=tuple(index),
        tick_seconds=Fraction(tick_seconds),
    )


def save_labels(series: LabeledSeries, path: Path | str) -> None:
    """Write a series back out as a ``timestamp,label`` CSV."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(LABEL_HEADER)
        for ts, label in zip(series.timestamps, series.labels_as_strings()):
            writer.writerow((int(ts), label))


@dataclass
class _AlertColumns:
    """Alert records of one block, or of the whole file once joined."""

    timestamps: np.ndarray
    values: np.ndarray
    kind: AlertKind | None
    detector: str | None  # the "detector" field, if any record had one


def _fast_alerts(block: bytes) -> _AlertColumns | None:
    """The records of a block in the layout ``save_alerts`` writes, or None.

    Every line must read ``{"timestamp": N, "alert": true|false, "detector":
    "D"}`` or ``{"timestamp": N, "score": X, "detector": "D"}``, with one kind
    and one detector name throughout the block.
    """
    if len(block) < 8 or not block.endswith(b"\n"):
        return None
    arr = _padded(block)
    starts, ends = _line_bounds(arr)
    first = block[: ends[0]]
    at = first.find(_DETECTOR_KEY)
    if at < 0 or not first.endswith(b"}"):
        return None
    suffix = first[at:]  # ', "detector": "D"}', the same on every line
    detector = _json_string(suffix[len(_DETECTOR_KEY) : -1])
    if detector is None:
        return None
    head = first[:at]
    if head.endswith((b', "alert": true', b', "alert": false')):
        kind, key = AlertKind.BOOLEAN, b', "alert": true'
    elif b', "score": ' in head:
        kind, key = AlertKind.SCORED, b', "score": 0'
    else:
        return None
    if (ends - starts < len(_ALERT_PREFIX) + 1 + len(key) + len(suffix)).any():
        return None
    words = _words(arr)
    tail = ends - len(suffix)
    found = _has(words, starts, _ALERT_PREFIX) & _has(words, tail, suffix)
    if kind is AlertKind.BOOLEAN:
        # ', "alert": true' is 15 bytes and ', "alert": false' 16; two
        # overlapping 8-byte words cover either.
        falses = arr[tail - 16] == ord(",")
        comma = tail - 15 - falses
        found &= words[comma] == int.from_bytes(b', "alert', "little")
        found &= words[comma + 7 + falses] == np.where(
            falses, int.from_bytes(b'": false', "little"), int.from_bytes(b't": true', "little")
        )
        values = ~falses
    else:
        commas = np.flatnonzero(arr == ord(","))
        after = np.searchsorted(commas, starts + len(_ALERT_PREFIX))
        comma = commas[np.minimum(after, len(commas) - 1)]
        found &= _has(words, comma, b', "score": ')
        values = _block_floats(arr, comma + 11, tail)
    if not found.all() or values is None:
        return None
    timestamps = _block_ints(arr, starts + len(_ALERT_PREFIX), comma)
    if timestamps is None:
        return None
    return _AlertColumns(timestamps, values, kind, detector)


def _alert_records(
    path: Path, block: bytes, first_line: int, kind: AlertKind | None, field_detector: str | None
) -> tuple[_AlertColumns, int]:
    """Parse and check a block record by record with ``json``.

    ``kind`` and ``field_detector`` are what earlier blocks established;
    returns the block's columns (with the updated kind and detector) and its
    number of lines.
    """
    timestamps: list[int] = []
    payload: list[object] = []
    line = first_line - 1
    for line, raw in enumerate(_text_lines(path, [block], first_line, None), start=first_line):
        text = raw.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _fail(path, line, f"invalid JSON: {exc.msg}") from None
        except ValueError:  # an integer past the interpreter's digit limit
            raise _fail(path, line, "invalid JSON: number has too many digits") from None
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
            raise _fail(path, line, "file mixes 'alert' and 'score' records; use one throughout")
        if has_alert:
            value = record["alert"]
            if not isinstance(value, bool):
                raise _fail(path, line, f"'alert' must be true or false, got {value!r}")
        else:
            value = record["score"]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _fail(path, line, f"'score' must be a number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:
                raise _fail(path, line, "'score' is too large for a 64-bit float") from None
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
                    path, line, f"conflicting detector names {field_detector!r} and {name!r}"
                )
        timestamps.append(_parse_timestamp(record["timestamp"], path, line))
        payload.append(value)
    dtype = np.bool_ if kind is AlertKind.BOOLEAN else np.float64
    columns = _AlertColumns(
        _int_column(timestamps), np.array(payload, dtype=dtype), kind, field_detector
    )
    return columns, line - first_line + 1


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
    parts: list[_AlertColumns] = []
    kind: AlertKind | None = None
    field_detector: str | None = None
    line = 1
    with open(path, "rb") as handle:
        for block in _read_blocks(handle):
            part = _fast_alerts(block)
            if part is None:
                part, lines = _alert_records(path, block, line, kind, field_detector)
            else:
                lines = len(part.timestamps)
                # The block's first record is the first to differ, if any does.
                if kind is not None and part.kind is not kind:
                    raise _fail(
                        path, line, "file mixes 'alert' and 'score' records; use one throughout"
                    )
                if field_detector is not None and part.detector != field_detector:
                    raise _fail(
                        path,
                        line,
                        f"conflicting detector names {field_detector!r} and {part.detector!r}",
                    )
            kind = part.kind or kind
            field_detector = part.detector or field_detector
            parts.append(part)
            line += lines
    got = np.concatenate([part.timestamps for part in parts]) if parts else np.empty(0, np.int64)
    if not len(got):
        raise _fail(path, None, "no alert records")
    _check_increasing(got, path, first_line=1)
    _check_range(got, path, first_line=1)

    want = series.timestamps
    if len(got) != len(want) or not np.array_equal(got, want):
        missing = np.setdiff1d(want, got)
        extra = np.setdiff1d(got, want)
        parts_text = [f"alerts do not align with dataset '{series.name}'"]
        if len(missing):
            shown = ", ".join(str(t) for t in missing[:10])
            parts_text.append(f"{len(missing)} dataset timestamps missing (first: {shown})")
        if len(extra):
            shown = ", ".join(str(t) for t in extra[:10])
            parts_text.append(f"{len(extra)} unexpected timestamps (first: {shown})")
        raise _fail(path, None, "; ".join(parts_text))

    name = detector or field_detector or path.stem
    values = np.concatenate([part.values for part in parts])
    if kind is AlertKind.BOOLEAN:
        return AlertSeries.from_bool(detector=name, values=values, aligned_to=series.name)
    return AlertSeries.from_scores(detector=name, values=values, aligned_to=series.name)


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


@dataclass(frozen=True)
class ValidationReport:
    """Structural facts about a dataset (and optionally one alert series)."""

    dataset: str
    n_points: int
    attack_fraction: Fraction
    n_scenarios: int
    scenarios_by_type: dict[str, int]
    duration_seconds: Fraction
    alert_kind: AlertKind | None = None
    alert_fraction: Fraction | None = None
    warnings: tuple[str, ...] = ()

    def summary_lines(self) -> list[str]:
        lines = [
            f"dataset: {self.dataset}",
            f"points: {self.n_points}",
            f"attack fraction: {float(self.attack_fraction):.6g}"
            f" ({self.attack_fraction.numerator}/{self.attack_fraction.denominator})",
            f"scenarios: {self.n_scenarios}",
        ]
        for attack_type, count in sorted(self.scenarios_by_type.items()):
            lines.append(f"  {attack_type}: {count}")
        lines.append(f"duration: {float(self.duration_seconds):.6g} s")
        if self.alert_kind is not None:
            lines.append(f"alerts: {self.alert_kind.value}")
        if self.alert_fraction is not None:
            lines.append(f"alert fraction: {float(self.alert_fraction):.6g}")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return lines


def validate_pair(
    series: LabeledSeries,
    alerts: AlertSeries | None = None,
    gap_tolerance: int = 0,
) -> ValidationReport:
    """Check a dataset (and optionally an aligned alert series) for pitfalls.

    The attack fraction is exact (a ratio of point counts). Warnings flag
    conditions that make headline metrics misleading or undefined rather
    than wrong: missing scenarios, single-class data, heavy imbalance.
    """
    n = len(series)
    attack_points = int(series.attack_mask.sum())
    attack_fraction = Fraction(attack_points, n)
    scenarios = extract_scenarios(series, gap_tolerance=gap_tolerance)
    by_type: dict[str, int] = {}
    for scenario in scenarios:
        by_type[scenario.attack_type] = by_type.get(scenario.attack_type, 0) + 1
    duration = (int(series.timestamps[-1]) - int(series.timestamps[0]) + 1) * series.tick_seconds

    warnings: list[str] = []
    if not scenarios:
        warnings.append("no attack scenarios; time-aware metrics will be undefined")
    if attack_points == n:
        warnings.append("every point is an attack; FPR, TNR and NPV will be undefined")
    if 0 < attack_points < n and attack_fraction < Fraction(1, 100):
        warnings.append(
            "attacks cover under 1% of points; accuracy will reward detectors that never alarm"
        )

    alert_kind = None
    alert_fraction = None
    if alerts is not None:
        require_alignment(series, alerts)
        alert_kind = alerts.kind
        if alerts.kind is AlertKind.BOOLEAN:
            alert_fraction = Fraction(int(np.count_nonzero(alerts.values)), n)
            if alert_fraction == 0:
                warnings.append("detector never alarms; recall-style metrics will be 0")
            elif alert_fraction == 1:
                warnings.append("detector always alarms; precision equals the attack fraction")
        else:
            warnings.append(
                "scored alerts need a threshold before point metrics apply; see the roc command"
            )

    return ValidationReport(
        dataset=series.name,
        n_points=n,
        attack_fraction=attack_fraction,
        n_scenarios=len(scenarios),
        scenarios_by_type=by_type,
        duration_seconds=duration,
        alert_kind=alert_kind,
        alert_fraction=alert_fraction,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class DatasetManifest:
    """Pointer to a labeled dataset plus its display name and tick duration."""

    name: str
    labels_path: Path
    tick_seconds: Fraction = Fraction(1)
    description: str = ""
    alert_paths: tuple[Path, ...] = ()

    def load(self) -> LabeledSeries:
        return load_labels(self.labels_path, name=self.name, tick_seconds=self.tick_seconds)


def load_manifest(path: Path | str) -> DatasetManifest:
    """Read a dataset manifest (JSON). Relative paths resolve next to it.

    Required keys: ``name``, ``labels``. Optional: ``tick_seconds`` (number
    or string, e.g. ``0.1``), ``description``, ``alerts`` (list of paths).
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise _fail(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    except UnicodeDecodeError:
        raise _fail(path, None, "not valid UTF-8") from None
    if not isinstance(data, dict):
        raise _fail(path, None, "manifest must be a JSON object")
    unknown = set(data) - {"name", "labels", "tick_seconds", "description", "alerts"}
    if unknown:
        raise _fail(path, None, f"unknown manifest keys: {', '.join(sorted(unknown))}")
    for key in ("name", "labels"):
        if key not in data or not isinstance(data[key], str) or not data[key]:
            raise _fail(path, None, f"manifest needs a non-empty string {key!r}")
    tick_raw = data.get("tick_seconds", 1)
    if isinstance(tick_raw, bool) or not isinstance(tick_raw, (int, float, str)):
        raise _fail(path, None, f"tick_seconds must be a number or string, got {tick_raw!r}")
    try:
        tick = Fraction(str(tick_raw))
    except (ValueError, ZeroDivisionError):
        raise _fail(path, None, f"tick_seconds is not a valid duration: {tick_raw!r}") from None
    if tick <= 0:
        raise _fail(path, None, f"tick_seconds must be positive, got {tick_raw!r}")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise _fail(path, None, "description must be a string")
    alerts_raw = data.get("alerts", [])
    if not isinstance(alerts_raw, list) or not all(
        isinstance(item, str) and item for item in alerts_raw
    ):
        raise _fail(path, None, "alerts must be a list of paths")
    base = path.parent
    return DatasetManifest(
        name=data["name"],
        labels_path=base / data["labels"],
        tick_seconds=tick,
        description=description,
        alert_paths=tuple(base / item for item in alerts_raw),
    )
