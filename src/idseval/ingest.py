"""File formats: label CSV, alert JSONL, dataset manifests, validation.

Labels travel as a two-column CSV (``timestamp,label``); alerts as JSON
Lines, one record per point, either ``{"timestamp": ..., "alert": bool}`` or
``{"timestamp": ..., "score": number}`` with an optional ``"detector"``
field. Timestamps are integer ticks or ISO-8601 instants (converted to epoch
seconds), each read on its own, so one file may mix the two. A label file
with any ISO-8601 timestamp takes only a one-second tick, so its integer
ticks count epoch seconds too. All malformed-input errors carry the file
path and 1-based line number.

Files are read in blocks of whole lines, each read into one reused buffer
(about 1 MiB for alerts, 256 KiB for labels, to bound the label parse's
temporaries). A block in the exact layout that ``save_labels`` or
``save_alerts`` writes is parsed with numpy, every byte checked against that
layout: numbers are read eight digits at a time from 64-bit words (``swar``),
each alert line through two fixed-width records, one gathered at its start
and one at its end, and labels are decoded once per run of equal labels.
Any other block goes through ``csv`` or ``json`` record by record. Both
routes accept and reject the same files with the same messages, so the
layout only decides the speed.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import swar
from .jsonl import ALERT_FALSE, ALERT_PREFIX, ALERT_TRUE, DETECTOR_KEY, SCORE_KEY
from .jsonl import write_flags, write_scores
from .model import (
    BENIGN_LABELS,
    AlertKind,
    AlertSeries,
    EvaluationError,
    LabeledSeries,
    ParameterError,
    Record,
    exact_param,
    extract_scenarios,
    format_fraction,
    require_alignment,
)

LABEL_HEADER = ("timestamp", "label")
_INT_RE = re.compile(r"[+-]?\d+\Z")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

# Alert files are read through one buffer of this many bytes, reused for
# every block. An alert parse costs a fixed number of numpy operations per
# block (about ninety on a boolean block) whatever its size, so large blocks
# spread that cost over many lines. The buffer is reused, not allocated per
# block, so that a load leaves no freed 1 MiB blocks in glibc's heap to raise
# the peak RSS of the stages after it.
_BLOCK_BYTES = 1 << 20
# Label files are read in smaller blocks: ``_fast_labels`` holds about nine
# int64-wide temporaries per line. At 10^6 points that is ~1.5 MiB for a
# block's ~21k lines, about what a 1 MiB alert block's parse holds, against
# ~5.8 MiB for a 1 MiB label block.
_LABEL_BLOCK_BYTES = 1 << 18
_WRITE_ROWS = 1 << 14
# Bytes before a block, so that what is read before its first line stays
# inside the buffer: the three 8-byte words ending at a 19-digit token, and
# an alert line's head record, which starts two bytes before the line.
_FRONT = 24
# Bytes after a block, so that words and fixed-width gathers reaching past
# its last line stay inside the buffer; their values are masked.
_PAD = 64
_LABEL_HEADER_LINE = b"timestamp,label\n"
# Longest label the block parser handles; longer ones are valid but go
# through csv.
_MAX_LABEL_BYTES = 64

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


def _line_of(lines: Iterable[Sequence[int]], i: int) -> int:
    """The line of record ``i``, given the lines of each part's records in file order."""
    for part in lines:
        if i < len(part):
            return part[i]
        i -= len(part)
    raise IndexError(i)


def _check_ticks(timestamps: np.ndarray, path: Path | str, lines: Iterable[Sequence[int]]) -> None:
    """Raise at the first record whose timestamp does not exceed its predecessor's,
    else at the first timestamp outside int64, so an order error wins.

    ``lines`` holds the line of every record, part by part (see ``_line_of``).
    """
    bad = np.flatnonzero(timestamps[1:] <= timestamps[:-1])
    if len(bad):
        i = int(bad[0]) + 1
        current, previous = int(timestamps[i]), int(timestamps[i - 1])
        kind = "duplicate" if current == previous else "non-increasing"
        message = f"{kind} timestamp {current} (previous was {previous})"
    elif timestamps.dtype == object:
        inside = (timestamps >= _INT64_MIN) & (timestamps <= _INT64_MAX)
        i = int(np.flatnonzero(~inside.astype(bool))[0])
        message = f"timestamp {timestamps[i]} is outside the 64-bit integer range"
    else:
        return
    raise _fail(path, _line_of(lines, i), message)


def _int_column(timestamps: list[int]) -> np.ndarray:
    """int64, or an object array if some value lies outside int64, which
    ``_check_ticks`` rejects after its order check."""
    try:
        return np.array(timestamps, dtype=np.int64)
    except OverflowError:
        return np.array(timestamps, dtype=object)


def _read_blocks(handle, size: int) -> Iterator[tuple[np.ndarray, int, int]]:
    """Read a binary file in blocks of whole lines of at most ``size`` bytes,
    unless a line is longer; only the last block may lack its newline.

    Each block is ``buf[lo:hi]`` of one buffer, which the next block is
    read into, so a caller must be done with a block, and keep no view of
    it, before it asks for the next. The buffer holds ``_FRONT`` bytes
    before a block and at least ``_PAD`` after it; they are not part of the
    block. The partial line after a block's last newline moves to the front
    for the next read, and a line longer than the buffer grows it.
    """
    raw = bytearray(_FRONT + size + _PAD)
    buf = np.frombuffer(raw, dtype=np.uint8)
    have = 0  # bytes held from _FRONT on: a carried partial line, then new reads
    while True:
        scanned = _FRONT + have
        got = handle.readinto(memoryview(raw)[scanned : _FRONT + size])
        have += got
        end = _FRONT + have
        cut = raw.rfind(b"\n", scanned, end) + 1
        if cut:
            yield buf, _FRONT, cut
            have = end - cut
            raw[_FRONT : _FRONT + have] = raw[cut:end]
        elif not got:
            if have:
                yield buf, _FRONT, end
            return
        elif have == size:
            size *= 2
            grown = bytearray(_FRONT + size + _PAD)
            grown[:end] = raw[:end]
            raw, buf = grown, np.frombuffer(grown, dtype=np.uint8)


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


def _line_bounds(buf: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and newline offsets, in ``buf``, of the lines of block ``buf[lo:hi]``."""
    ends = np.flatnonzero(buf[lo:hi] == ord("\n"))
    ends += lo
    starts = np.empty_like(ends)
    starts[0] = lo
    starts[1:] = ends[:-1] + 1
    return starts, ends


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
    buf: np.ndarray, lo: int, hi: int, index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Timestamps, then label codes run by run and rows per run, of a block
    ``buf[lo:hi]`` of ``ts,label`` lines, or None.

    None means some byte leaves the layout ``save_labels`` writes for plain
    labels (no quotes, no control bytes, no surrounding whitespace); the
    file from that block on then goes through ``csv``. New attack types join
    ``index`` in the order they first appear.

    Labels come in runs, so each row is keyed by its label's masked 8-byte
    words and compared with the row before it; only the first row of each
    run is decoded. ``load_labels`` repeats each code over its run once the
    whole file is read.
    """
    block = buf[lo:hi]
    if block[-1] != ord("\n"):
        return None
    starts, ends = _line_bounds(buf, lo, hi)
    commas = np.flatnonzero(block == ord(","))
    commas += lo
    # One comma per line, no quote, and no control byte but the line ends
    # (csv also splits lines at '\r').
    if len(commas) != len(ends) or np.count_nonzero(block < 0x20) != len(ends):
        return None
    if (block == ord('"')).any():
        return None
    width = ends - commas - 1
    if not ((commas >= starts) & (width >= 1) & (width <= _MAX_LABEL_BYTES)).all():
        return None
    timestamps = swar.block_ints(buf, starts, commas)
    if timestamps is None:
        return None
    # No label byte is zero, so a label's words with the bytes past its end
    # masked to zero tell it apart from every other label.
    words = swar.words(buf)
    keys = []
    changed = np.zeros(len(width), dtype=bool)
    changed[0] = True
    for k in range((int(width.max()) + 7) // 8):
        word = words[commas + 1 + 8 * k] & swar.LOW_BYTES[np.clip(width - 8 * k, 0, 8)]
        changed[1:] |= word[1:] != word[:-1]
        keys.append(word)
    heads = np.flatnonzero(changed)
    # Group equal run heads: a stable sort by their words, then the first
    # head of each group (the earliest) and every head's group.
    order = np.lexsort([key[heads] for key in keys])
    new_group = np.zeros(len(heads), dtype=bool)
    new_group[0] = True
    for key in keys:
        ordered = key[heads[order]]
        new_group[1:] |= ordered[1:] != ordered[:-1]
    first_head = order[new_group]
    group = np.empty(len(heads), dtype=np.intp)
    group[order] = np.cumsum(new_group) - 1
    lookup = np.zeros(len(first_head), dtype=np.int32)
    added: dict[str, int] = {}
    for k in np.argsort(first_head):
        row = heads[first_head[k]]
        try:
            label = buf[commas[row] + 1 : ends[row]].tobytes().decode("utf-8")
        except UnicodeDecodeError:
            return None
        if label != label.strip():
            return None
        if label not in BENIGN_LABELS:
            lookup[k] = index.get(label) or added.setdefault(label, len(index) + len(added) + 1)
    index.update(added)
    return timestamps, lookup[group], np.diff(heads, append=len(width))


def _label_rows(
    path: Path, lines: Iterable[str], first: int, index: dict[str, int], tick: Fraction, header: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """CSV rows parsed and checked row by row, as ``_fast_labels`` returns them
    (each row a run of one), then the line of each row.

    With ``header``, the first row must be the ``timestamp,label`` header.
    """
    import csv  # imported on use: files in the save_labels layout never need it

    reader = csv.reader(lines)
    timestamps: list[int] = []
    codes: list[int] = []
    record_lines: list[int] = []
    try:
        if header:
            try:
                row = next(reader)
            except StopIteration:
                raise _fail(path, None, "empty file, expected a 'timestamp,label' header") from None
            if tuple(cell.strip() for cell in row) != LABEL_HEADER:
                raise _fail(path, 1, f"expected header 'timestamp,label', got {','.join(row)!r}")
        for line, row in enumerate(reader, start=first + header):
            if not row:
                continue
            if len(row) != 2:
                raise _fail(path, line, f"expected 2 fields, got {len(row)}")
            timestamps.append(_parse_timestamp(row[0], path, line))
            if tick != 1 and not _INT_RE.match(row[0].strip()):
                raise ParameterError(
                    f"{path}: line {line}: ISO-8601 timestamps are epoch seconds,"
                    f" so tick_seconds must be 1, got {format_fraction(tick)}"
                )
            label = row[1].strip()
            if not label:
                raise _fail(path, line, "empty label")
            codes.append(0 if label in BENIGN_LABELS else index.setdefault(label, len(index) + 1))
            record_lines.append(line)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise _fail(path, first - 1 + reader.line_num, f"malformed CSV: {exc}") from None
    runs = np.ones(len(codes), dtype=np.int64)
    return _int_column(timestamps), np.array(codes, dtype=np.int32), runs, record_lines


def _label_parts(
    path: Path, handle, index: dict[str, int], tick: Fraction
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, Sequence[int], int | None]]:
    """The parts of an open label file in order: timestamps, label codes run by
    run, rows per run, each record's line, and the bytes the part covers.

    After the header, each block in the ``save_labels`` layout is one part.
    From the first block out of it, or the first line if the header is not
    canonical, the rest of the file goes through csv as one last part, whose
    byte count is None.
    """
    line = 1  # the next part's first line; 1 until the canonical header is read
    blocks = _read_blocks(handle, _LABEL_BLOCK_BYTES)
    for buf, lo, hi in blocks:
        if line == 1 and buf[lo:hi][: len(_LABEL_HEADER_LINE)].tobytes() == _LABEL_HEADER_LINE:
            lo, line = lo + len(_LABEL_HEADER_LINE), 2
            if lo == hi:  # the header was the whole block
                continue
        part = _fast_labels(buf, lo, hi, index) if line > 1 else None
        if part is None:
            blocks = itertools.chain([(buf, lo, hi)], blocks)
            break
        yield *part, range(line, line + len(part[0])), hi - lo
        line += len(part[0])
    else:
        if line > 1:  # every block was in the layout; an empty file goes on to csv
            return
    # csv quoting can span lines, so the rest of the file goes to csv.
    rest = (buf[lo:hi].tobytes() for buf, lo, hi in blocks)
    yield *_label_rows(path, _text_lines(path, rest, line, ""), line, index, tick, line == 1), None


def load_labels(
    path: Path | str,
    name: str | None = None,
    tick_seconds: Fraction | int | float | str = 1,
) -> LabeledSeries:
    """Read a ``timestamp,label`` CSV into a LabeledSeries.

    The label ``benign`` (or ``0``) marks benign points; any other non-empty
    string names an attack type. Timestamps must be strictly increasing.
    ISO-8601 timestamps are epoch seconds, so they require ``tick_seconds`` 1.
    """
    tick = exact_param("tick_seconds", tick_seconds)
    path = Path(path)
    index: dict[str, int] = {}  # attack type -> code, in order of first appearance
    # Each part's timestamps are written into one column, sized for the
    # file's size at the bytes per line so far. Its unwritten tail never
    # becomes resident, and the column is cut to its length at the end. A
    # column that proves too short grows by ``resize``, which zero-fills,
    # so it is first allocated with ``np.empty``.
    column = np.empty(0, np.int64)
    count = 0  # timestamps in the column
    done = 0  # bytes of the file the block-route parts cover
    codes: list[np.ndarray] = []
    runs: list[np.ndarray] = []
    lines: list[Sequence[int]] = []
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        for stamps, part_codes, part_runs, part_lines, part_bytes in _label_parts(
            path, handle, index, tick
        ):
            end = count + len(stamps)
            if part_bytes is None:  # the csv part, the last
                column = stamps if not count else np.concatenate((column[:count], stamps))
            else:
                done += part_bytes
                if end > len(column):
                    length = max(end, end * size // done, len(column) * 9 // 8)
                    if count:
                        column.resize(length, refcheck=False)  # no view of it is alive
                    else:
                        column = np.empty(length, np.int64)
                column[count:end] = stamps
            count = end
            codes.append(part_codes)
            runs.append(part_runs)
            lines.append(part_lines)
    if not count:
        raise _fail(path, None, "no data rows")
    if len(column) > count:
        column.resize(count, refcheck=False)  # no view of it is alive
    _check_ticks(column, path, lines)
    label_codes = np.repeat(np.concatenate(codes), np.concatenate(runs))
    for array in (column, label_codes):
        array.setflags(write=False)  # so that LabeledSeries shares it
    return LabeledSeries(
        name=name or path.stem,
        timestamps=column,
        label_codes=label_codes,
        attack_types=tuple(index),
        tick_seconds=tick,
    )


def save_labels(series: LabeledSeries, path: Path | str) -> None:
    """Write a series back out as a ``timestamp,label`` CSV.

    Each line is byte for byte what ``csv.writer`` writes for the row
    ``(timestamp, label)``: ``csv.writer`` quotes each distinct label once,
    and the rows are a ``%d,%s`` template filled from ``tolist()`` chunks.
    """
    import csv

    cells = []
    for label in ("benign", *series.attack_types):
        row = io.StringIO()
        csv.writer(row, lineterminator="\n").writerow((0, label))
        cells.append(row.getvalue()[2:-1])  # the label as quoted after "0,"
    names = np.array(cells, dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(_LABEL_HEADER_LINE.decode())
        for start in range(0, len(series), _WRITE_ROWS):
            timestamps = series.timestamps[start : start + _WRITE_ROWS].tolist()
            fields: list[object] = [None] * (2 * len(timestamps))
            fields[0::2] = timestamps
            fields[1::2] = names[series.label_codes[start : start + _WRITE_ROWS]].tolist()
            handle.write(("%d,%s\n" * len(timestamps)) % tuple(fields))


class _AlertColumns(Record):
    """Alert records of one block: timestamps, values, kind, the "detector"
    field if any record had one, and the line of each record."""

    __slots__ = _fields = ("timestamps", "values", "kind", "detector", "lines")

    def __init__(
        self, timestamps: np.ndarray, values: np.ndarray, kind: AlertKind | None,
        detector: str | None, lines: Sequence[int],
    ) -> None:
        self._set(timestamps, values, kind, detector, lines)


# ALERT_PREFIX and SCORE_KEY as ``swar.pattern``s, each ending 16 bytes into
# its record (a line's head record starts two bytes before the line), and a
# comma in every byte, for ``swar.byte_offsets``.
_HEAD, _SCORE_KEY = swar.pattern(ALERT_PREFIX, 16), swar.pattern(SCORE_KEY, 16)
_COMMAS = np.uint64(0x2C2C2C2C2C2C2C2C)


def _alert_layout(first: bytes) -> tuple | None:
    """The kind, detector, suffix length, tail record size and tail patterns that
    a block's first line fixes for every line, or None if it is out of the layout.

    A tail record is the least multiple of 8 bytes that holds a line's fixed
    end: the suffix ``, "detector": "D"}`` after, on a boolean line, its value.
    A scored block has one pattern; a boolean block one for false, then true.
    """
    at = first.find(DETECTOR_KEY)
    if at < 0 or not first.endswith(b"}"):
        return None
    suffix = first[at:]  # ', "detector": "D"}', the same on every line
    detector = _json_string(suffix[len(DETECTOR_KEY) : -1])
    if detector is None:
        return None
    if first[:at].endswith((ALERT_TRUE, ALERT_FALSE)):
        kind, ends = AlertKind.BOOLEAN, (ALERT_FALSE + suffix, ALERT_TRUE + suffix)
    elif SCORE_KEY in first[:at]:
        kind, ends = AlertKind.SCORED, (suffix,)
    else:
        return None
    size = -(-len(ends[0]) // 8) * 8
    return kind, detector, len(suffix), size, [swar.pattern(end, size) for end in ends]


def _fast_alerts(buf: np.ndarray, lo: int, hi: int, first_line: int) -> _AlertColumns | None:
    """The records of block ``buf[lo:hi]`` in the layout ``save_alerts`` writes, or None.

    Every line must read ``{"timestamp": N, "alert": true|false, "detector":
    "D"}`` or ``{"timestamp": N, "score": X, "detector": "D"}``, with the kind
    and detector of the first line. Each line is read through two records: a
    head record of ALERT_PREFIX and the timestamp's first eight bytes, and a
    tail record ending at its newline. A boolean line's value is the tail
    pattern it matches, and its timestamp fills the bytes between. A scored
    line's timestamp ends at its first comma, where SCORE_KEY must start, and
    its score fills the bytes up to the suffix. So the pieces tile each line
    and every byte is checked: the numbers by ``swar.block_ints`` and
    ``swar.block_floats``, the rest against the patterns.
    """
    if hi - lo < 8 or buf[hi - 1] != ord("\n"):
        return None
    starts, ends = _line_bounds(buf, lo, hi)
    layout = _alert_layout(buf[lo : ends[0]].tobytes())
    if layout is None:
        return None
    kind, detector, suffix, size, patterns = layout
    # A line in the layout is longer than ALERT_PREFIX and its tail pattern,
    # so no line's records are much larger than the line: the block's
    # records then hold about as many bytes as the block, however long the
    # detector name and however many blank lines follow.
    if (ends - starts < len(ALERT_PREFIX) + size - 8).any():
        return None
    records = swar.records(buf, ends - size, size)  # each line's tail record
    matches = [swar.match(records, *pattern) for pattern in patterns]
    del records  # each record array is freed once read, to bound the block's temporaries
    head = swar.records(buf, starts + len(ALERT_PREFIX) - 16, 24)
    found = swar.match(head, *_HEAD)
    word = head[:, 2].copy()  # the first eight bytes of each timestamp
    del head
    token = np.add(starts, len(ALERT_PREFIX), out=starts)  # where each timestamp starts
    tail = np.subtract(ends, suffix, out=ends)  # where each suffix starts
    if kind is AlertKind.BOOLEAN:
        falses, values = matches
        found &= falses | values
        stop = tail - len(ALERT_FALSE) + values  # each timestamp's end
    else:
        found &= matches[0]
        at = swar.byte_offsets(word, _COMMAS)
        for k in (1, 2):  # a 20-byte timestamp's comma is in its third word
            if (at >= 0).all():
                break
            later = swar.byte_offsets(swar.words(buf)[token + 8 * k], _COMMAS)
            at = np.where((at < 0) & (later >= 0), later + 8 * k, at)
        stop = token + at
        key = swar.records(buf, stop + len(SCORE_KEY) - 16, 24)  # then the score's first word
        found &= swar.match(key, *_SCORE_KEY)
        score = key[:, 2].copy()
        del key
        # Only lines in the layout have a token, maybe empty, between the keys.
        values = swar.block_floats(buf, stop + len(SCORE_KEY), tail, score) if found.all() else None
    if not found.all() or values is None:
        return None
    timestamps = swar.block_ints(buf, token, stop, word)
    if timestamps is None:
        return None
    lines = range(first_line, first_line + len(timestamps))
    return _AlertColumns(timestamps, values, kind, detector, lines)


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
    record_lines: list[int] = []
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
        record_lines.append(line)
    dtype = np.bool_ if kind is AlertKind.BOOLEAN else np.float64
    columns = _AlertColumns(
        _int_column(timestamps), np.array(payload, dtype=dtype), kind, field_detector, record_lines
    )
    return columns, line - first_line + 1


def load_alerts(path: Path | str, series: LabeledSeries) -> AlertSeries:
    """Read an alert JSONL file and align it against one labeled series.

    Every record needs ``timestamp`` plus exactly one of ``alert`` (bool) or
    ``score`` (number); a file may not mix the two. The timestamps must match
    the dataset's exactly, in order; misalignment errors quote up to ten
    missing and ten unexpected timestamps. The detector name comes from a
    consistent ``"detector"`` field, else the file stem.
    """
    path = Path(path)
    want = series.timestamps
    values: np.ndarray | None = None  # of the blocks that match ``want``, in order
    at = 0  # records matched: the timestamps ``want[:at]``, not kept
    tail: list[_AlertColumns] = []  # every part from the first block that differs on
    kind: AlertKind | None = None
    field_detector: str | None = None
    line = 1
    with open(path, "rb") as handle:
        for buf, lo, hi in _read_blocks(handle, _BLOCK_BYTES):
            part = _fast_alerts(buf, lo, hi, line)
            # A block-route part has one kind and one detector throughout: if
            # either differs from earlier blocks', its first record does, and
            # _alert_records raises that message at its line.
            if (
                part is None
                or kind not in (None, part.kind)
                or field_detector not in (None, part.detector)
            ):
                block = buf[lo:hi].tobytes()
                part, lines = _alert_records(path, block, line, kind, field_detector)
            else:
                lines = len(part.timestamps)
            kind = part.kind or kind
            field_detector = part.detector or field_detector
            line += lines
            n = len(part.timestamps)
            if tail or not np.array_equal(part.timestamps, want[at : at + n]):
                tail.append(part)
            elif n:  # an empty part may not know the kind yet
                values = np.empty(len(want), part.values.dtype) if values is None else values
                values[at : at + n] = part.values
                at += n
    if tail or at < len(want):
        got = np.concatenate([want[:at], *(part.timestamps for part in tail)])
        if not len(got):
            raise _fail(path, None, "no alert records")
        # want[:at] is increasing and in int64: no check stops in it or needs its lines.
        record_lines = [range(at), *(part.lines for part in tail)]
        _check_ticks(got, path, record_lines)
        parts_text = [f"alerts do not align with dataset '{series.name}'"]
        for ticks, what in ((np.setdiff1d(want, got), "dataset timestamps missing"),
                            (np.setdiff1d(got, want), "unexpected timestamps")):
            if len(ticks):
                shown = ", ".join(str(t) for t in ticks[:10])
                parts_text.append(f"{len(ticks)} {what} (first: {shown})")
        raise _fail(path, None, "; ".join(parts_text))

    name = field_detector or path.stem
    values.setflags(write=False)  # so that AlertSeries shares it
    if kind is AlertKind.BOOLEAN:
        return AlertSeries.from_bool(detector=name, values=values, aligned_to=series.name)
    return AlertSeries.from_scores(detector=name, values=values, aligned_to=series.name)


def save_alerts(alerts: AlertSeries, series: LabeledSeries, path: Path | str) -> None:
    """Write an alert series as JSONL, one record per point.

    Output is deterministic: fixed key order, fixed float formatting, one
    line per point in series order. Each line is byte for byte
    ``json.dumps({"timestamp": t, key: v, "detector": d}) + "\\n"``, in the
    layout of ``idseval.jsonl`` that the block parser checks. Boolean series
    are built in numpy, scored ones from a ``%r`` template (see ``jsonl``).
    """
    require_alignment(series, alerts)
    write = write_flags if alerts.kind is AlertKind.BOOLEAN else write_scores
    with open(path, "wb") as handle:
        write(handle, series.timestamps, alerts.values, json.dumps(alerts.detector), _WRITE_ROWS)


class ValidationReport(NamedTuple):
    """Structural facts about a dataset."""

    dataset: str
    n_points: int
    attack_fraction: Fraction
    n_scenarios: int
    scenarios_by_type: dict[str, int]
    duration_seconds: Fraction
    warnings: tuple[str, ...] = ()


def alarm_warnings(alerts: AlertSeries) -> list[str]:
    """The warning for a boolean detector that alarms at no point or at every one."""
    if alerts.kind is not AlertKind.BOOLEAN:
        return []
    alarms = int(np.count_nonzero(alerts.values))
    if alarms == 0:
        return ["detector never alarms; recall-style metrics will be 0"]
    if alarms == len(alerts):
        return ["detector always alarms; precision equals the attack fraction"]
    return []


def validate_pair(series: LabeledSeries, gap_tolerance: int = 0) -> ValidationReport:
    """Check a dataset for pitfalls; ``alarm_warnings`` checks each detector.

    The attack fraction is exact (a ratio of point counts). Warnings flag
    conditions that make headline metrics misleading or undefined rather
    than wrong: missing scenarios, single-class data, heavy imbalance.
    """
    n = len(series)
    attack_points = int(series.attack_mask.sum())
    attack_fraction = Fraction(attack_points, n)
    scenarios = extract_scenarios(series, gap_tolerance=gap_tolerance)
    counts = np.bincount(scenarios.codes, minlength=len(scenarios.attack_types) + 1)
    by_type = {t: c for t, c in zip(scenarios.attack_types, counts[1:].tolist()) if c}

    warnings: list[str] = []
    if not len(scenarios):
        warnings.append("no attack scenarios; time-aware metrics will be undefined")
    if attack_points == n:
        warnings.append("every point is an attack; FPR, TNR and NPV will be undefined")
    if 0 < attack_points < n and attack_fraction < Fraction(1, 100):
        warnings.append(
            "attacks cover under 1% of points; accuracy will reward detectors that never alarm"
        )

    return ValidationReport(
        dataset=series.name,
        n_points=n,
        attack_fraction=attack_fraction,
        n_scenarios=len(scenarios),
        scenarios_by_type=by_type,
        duration_seconds=series.span_seconds,
        warnings=tuple(warnings),
    )


class DatasetManifest(NamedTuple):
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
        tick = exact_param("tick_seconds", tick_raw)
    except ParameterError as exc:
        raise _fail(path, None, str(exc)) from None
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
