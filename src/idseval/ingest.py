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
of about 1 MiB. A block in the exact layout that ``save_labels`` or
``save_alerts`` writes is parsed with numpy (a label block in pieces of
whole lines, to bound the temporaries), every byte checked against that
layout: integers are read eight digits at a time from 64-bit words, and
labels are decoded once per run of equal labels. Any other block goes
through ``csv`` or ``json`` record by record. Both routes accept and reject
the same files with the same messages, so the layout only decides the speed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .jsonl import ALERT_FALSE, ALERT_PREFIX, ALERT_TRUE, DETECTOR_KEY, SCORE_KEY
from .jsonl import write_flags, write_scores
from .model import (
    BENIGN_LABELS,
    AlertKind,
    AlertSeries,
    EvaluationError,
    LabeledSeries,
    ParameterError,
    extract_scenarios,
    format_fraction,
    require_alignment,
)

LABEL_HEADER = ("timestamp", "label")
_INT_RE = re.compile(r"[+-]?\d+\Z")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

# Files are read through one buffer of this many bytes, reused for every
# block. Each block an alert parse takes costs ~25 numpy calls whatever its
# size, so large blocks spread that cost over many lines (label blocks are
# parsed in smaller pieces, see ``_PIECE_BYTES``). The buffer is reused, not
# allocated per block, so that a load leaves no freed 1 MiB blocks in
# glibc's heap to raise the peak RSS of the stages after it.
_BLOCK_BYTES = 1 << 20
_WRITE_ROWS = 1 << 14
# Bytes before a block, so that the three 8-byte words ending at a 19-digit
# token in the block's first line stay inside the buffer.
_FRONT = 24
# Bytes after a block, so that words and fixed-width gathers reaching past
# its last line stay inside the buffer; their values are masked.
_PAD = 64
_LABEL_HEADER_LINE = b"timestamp,label\n"
# Longest label the block parser handles; longer ones are valid but go
# through csv.
_MAX_LABEL_BYTES = 64
# Label blocks are parsed in pieces of at most about this many bytes, cut
# after a newline: ``_fast_labels`` holds about nine int64-wide temporaries
# per line. At 10^6 points that is ~1.5 MiB for a piece's ~21k lines, about
# what a 1 MiB alert block's parse holds, against ~5.8 MiB for a whole block.
_PIECE_BYTES = 1 << 18
# The longest line of the label layout: '-', 19 digits, ',', a label, '\n'.
_MAX_LABEL_LINE = 22 + _MAX_LABEL_BYTES
# The bytes of a JSON number: a score token with any other byte goes to the
# record route, so NaN, Infinity, literals and whitespace never reach the
# json tier of ``_block_floats``.
_NUMBER_BYTES = np.zeros(256, dtype=bool)
_NUMBER_BYTES[list(b"0123456789.eE+-")] = True


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


def _check_increasing(
    timestamps: np.ndarray, path: Path | str, lines: Iterable[Sequence[int]]
) -> None:
    """Raise at the first record whose timestamp does not exceed its predecessor's.

    ``lines`` holds the line of every record, part by part (see ``_line_of``).
    """
    bad = np.flatnonzero(timestamps[1:] <= timestamps[:-1])
    if len(bad):
        i = int(bad[0]) + 1
        current, previous = int(timestamps[i]), int(timestamps[i - 1])
        kind = "duplicate" if current == previous else "non-increasing"
        raise _fail(
            path, _line_of(lines, i), f"{kind} timestamp {current} (previous was {previous})"
        )


def _int_column(timestamps: list[int]) -> np.ndarray:
    """int64, or an object array if some value lies outside int64.

    ``_check_range`` rejects such values only after ``_check_increasing``
    has run, so an order error keeps precedence over a range error.
    """
    try:
        return np.array(timestamps, dtype=np.int64)
    except OverflowError:
        return np.array(timestamps, dtype=object)


def _check_range(timestamps: np.ndarray, path: Path | str, lines: Iterable[Sequence[int]]) -> None:
    """Raise at the first timestamp outside int64, finding its line as ``_check_increasing``."""
    if timestamps.dtype == object:
        inside = (timestamps >= _INT64_MIN) & (timestamps <= _INT64_MAX)
        i = int(np.flatnonzero(~inside.astype(bool))[0])
        raise _fail(
            path,
            _line_of(lines, i),
            f"timestamp {timestamps[i]} is outside the 64-bit integer range",
        )


def _read_blocks(handle) -> Iterator[tuple[np.ndarray, int, int]]:
    """Read a binary file in blocks of whole lines; only the last may lack its newline.

    Each block is ``buf[lo:hi]`` of one buffer, which the next block is
    read into, so a caller must be done with a block, and keep no view of
    it, before it asks for the next. The buffer holds ``_FRONT`` bytes
    before a block and at least ``_PAD`` after it; they are not part of the
    block. The partial line after a block's last newline moves to the front
    for the next read, and a line longer than the buffer grows it.
    """
    size = _BLOCK_BYTES
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


def _pieces(buf: np.ndarray, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Cut block ``buf[lo:hi]`` after newlines into pieces of at most about ``_PIECE_BYTES``.

    A cut is looked for only in the last ``_MAX_LABEL_LINE`` bytes before
    the limit. Where none of them is a newline, the block is not in the
    label layout, and the rest of it is one piece.
    """
    while hi - lo > _PIECE_BYTES:
        limit = lo + _PIECE_BYTES
        window = max(lo, limit - _MAX_LABEL_LINE)
        newlines = np.flatnonzero(buf[window:limit] == ord("\n"))
        if not len(newlines):
            break
        cut = window + int(newlines[-1]) + 1
        yield lo, cut
        lo = cut
    if lo < hi:
        yield lo, hi


def _as_bytes(blocks: Iterable[tuple[np.ndarray, int, int]]) -> Iterator[bytes]:
    """Copies of the blocks ``_read_blocks`` yields, for the csv/json routes."""
    for buf, lo, hi in blocks:
        yield buf[lo:hi].tobytes()


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


def _words(arr: np.ndarray) -> np.ndarray:
    """The eight bytes at every offset of ``arr``, each read as one little-endian uint64."""
    return np.ndarray((len(arr) - 7,), dtype="<u8", buffer=arr, strides=(1,))


def _has(words: np.ndarray, at: np.ndarray, text: bytes) -> np.ndarray:
    """Whether ``text`` (eight bytes or more) starts at each offset in ``at``."""
    found = np.ones(len(at), dtype=bool)
    for offset in (*range(0, len(text) - 8, 8), len(text) - 8):
        found &= words[at + offset] == int.from_bytes(text[offset : offset + 8], "little")
    return found


def _byte_masks(high: bool) -> np.ndarray:
    """``masks[k]`` keeps the ``k`` highest (or lowest) bytes of a uint64, k = 0..8."""
    ones = [(1 << (8 * k)) - 1 for k in range(9)]
    return np.array([m << (64 - 8 * k) if high else m for k, m in enumerate(ones)], np.uint64)


# Word-at-a-time (SWAR) decimal parsing. A little-endian word holds eight
# ASCII digits, the most significant in its lowest byte; XOR with '0' * 8
# turns each into its value, and each step below joins neighbouring lanes.
_HIGH_BYTES, _LOW_BYTES = _byte_masks(True), _byte_masks(False)
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)
_SWAR_STEPS = tuple(
    (np.uint64(mask), np.uint64(factor), np.uint64(shift))
    for mask, factor, shift in (
        (0x0F0F0F0F0F0F0F0F, 10 << 8 | 1, 8),  # two digits per 16-bit lane
        (0x00FF00FF00FF00FF, 100 << 16 | 1, 16),  # four digits per 32-bit lane
        (0x0000FFFF0000FFFF, 10000 << 32 | 1, 32),  # all eight digits
    )
)
_POW8 = tuple(np.uint64(10 ** (8 * k)) for k in range(3))
_DOTS = np.uint64(0x2E2E2E2E2E2E2E2E)
_ONES = np.uint64(0x0101010101010101)
_HIGH_BITS = np.uint64(0x8080808080808080)
_POW10_INTS = np.array([10**k for k in range(17)], dtype=np.uint64)
_POW10_FLOATS = _POW10_INTS.astype(np.float64)


def _digit_runs(
    buf: np.ndarray, end: np.ndarray, width: np.ndarray, longest: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``width`` (0-19, at most ``longest``) bytes before each ``end`` read as
    decimal digits: their value, and whether any of them is not a digit.

    Each run is read as up to three little-endian words ending at its end,
    least significant first; they reach at most 24 bytes before it, into
    ``_FRONT``. In each word the bytes left of the run are masked off after
    the XOR with '0' * 8, so they read as zero digits. A byte is a digit when
    its high nibble and that of byte + 6 are both zero, and three
    multiply-and-shift steps sum the eight digits.
    """
    words = _words(buf)
    value = np.zeros(len(end), dtype=np.uint64)
    nibbles = np.zeros(len(end), dtype=np.uint64)
    for k in range((longest + 7) // 8):
        # How many of the word's bytes belong to each run.
        digits = np.clip(width - 8 * k, 0, 8) if longest > 8 else width
        word = words[end - 8 * (k + 1)]
        word ^= _ASCII_ZEROS
        word &= _HIGH_BYTES[digits]
        nibbles |= word
        nibbles |= word + _SIXES
        for mask, factor, shift in _SWAR_STEPS:
            word &= mask
            word *= factor
            word >>= shift
        if k:
            word *= _POW8[k]
        value += word
    return value, (nibbles & _HIGH_NIBBLES) != 0


def _block_ints(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The integers ``buf[start:end]``, or None unless each is an optional '-' then
    1-19 digits without a leading zero, within int64."""
    negative = buf[start] == ord("-")
    first = start + negative if negative.any() else start
    width = end - first
    if not ((width - 1).view(np.uint64) < 19).all():
        return None
    zero_first = buf[first] == ord("0")
    if zero_first.any() and (width[zero_first] != 1).any():
        return None
    longest = int(width.max())
    value, bad = _digit_runs(buf, end, width, longest)
    if bad.any():
        return None
    if longest == 19 and (value > np.where(negative, np.uint64(2**63), np.uint64(_INT64_MAX))).any():
        return None
    result = value.astype(np.int64)  # 2**63 wraps to -2**63, which negation keeps
    np.negative(result, out=result, where=negative)
    return result


def _block_floats(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The JSON numbers ``buf[start:end]`` as float64, or None unless every token
    matches the JSON number grammar and is finite.

    A token ``-?(0|[1-9][0-9]*)(.[0-9]+)?`` whose digits, read without the
    point, are an integer ``D < 2**53`` is ``D / 10.0**k`` for its ``k``
    fraction digits: ``D`` and ``10**k`` (``k <= 16``) are exact doubles, so
    the one division rounds the token's value correctly, as ``float`` does.
    The digit runs on both sides of the point are read by ``_digit_runs``.
    Every other token (an exponent, more than 16 digits) is read by ``json``
    in ``_json_floats``, so a score means what ``json`` reads on either route.
    """
    negative = buf[start] == ord("-")
    first = start + negative
    # The first '.' in the eight bytes from the first digit: the lowest zero
    # byte of the word XOR '.' * 8, found exactly by the borrow trick.
    word = _words(buf)[first] ^ _DOTS
    zeros = (word - _ONES) & ~word & _HIGH_BITS
    lowest = zeros & (~zeros + np.uint64(1))
    offset = (np.frexp(lowest.astype(np.float64))[1] - 1) >> 3
    point = np.where(zeros != 0, first + offset, end)
    np.minimum(point, end, out=point)
    whole = point - first
    fraction = np.maximum(end - point - 1, 0)
    fast = (whole >= 1) & (whole + fraction <= 16) & ((point == end) | (fraction >= 1))
    fast &= (whole == 1) | (buf[first] != ord("0"))
    whole *= fast
    fraction *= fast
    high, high_bad = _digit_runs(buf, point, whole, int(whole.max(initial=0)))
    low, low_bad = _digit_runs(buf, end, fraction, int(fraction.max(initial=0)))
    high *= _POW10_INTS[fraction]
    high += low
    fast &= ~high_bad & ~low_bad & (high < np.uint64(2**53))
    values = high.astype(np.float64)
    values /= _POW10_FLOATS[fraction]
    np.negative(values, out=values, where=negative)
    slow = np.flatnonzero(~fast)
    if len(slow):
        rest = _json_floats(buf, start[slow], end[slow])
        if rest is None:
            return None
        values[slow] = rest
    # json reads the token -0 as the integer 0, hence +0.0, and -0.0 as -0.0.
    # -0 is the only zero among two-byte tokens; adding 0.0 moves no other value.
    values[end - start == 2] += 0.0
    return values


def _json_floats(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The JSON numbers ``buf[start:end]`` as float64, read by ``json``, or None
    unless every token is a JSON number within the float range.

    The tokens are copied out in order, in one gather, as the text of one
    JSON array. Every token byte must be a digit or one of ``.eE+-``; on
    those bytes json's grammar is the JSON number grammar, so a token that
    fails it raises ``ValueError``, as do integers past json's digit limit.
    """
    stops = np.cumsum(end - start + 1)  # one past each token's ',' in the copy
    # The offset in ``buf`` of every copied byte, built in place as a running
    # sum: a step of 1 inside a token and onto the byte after it (the ','
    # slot), and a jump from there to the next token's start.
    index = np.ones(stops[-1], dtype=np.intp)
    index[0] = start[0]
    index[stops[:-1]] = start[1:] - end[:-1]
    np.cumsum(index, out=index)
    text = buf[index]
    text[stops - 1] = ord(",")
    text[-1] = ord("]")
    if np.count_nonzero(_NUMBER_BYTES[text]) != len(text) - len(start):
        return None
    try:
        values = np.array(json.loads(b"[" + text.tobytes()), dtype=np.float64)
    except (ValueError, OverflowError):  # OverflowError: an integer past the float range
        return None
    return values if len(values) == len(start) and np.isfinite(values).all() else None


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
    """Timestamps, then label codes run by run and rows per run, of a piece
    ``buf[lo:hi]`` of ``ts,label`` lines, or None.

    None means some byte leaves the layout ``save_labels`` writes for plain
    labels (no quotes, no control bytes, no surrounding whitespace); the
    file from that piece on then goes through ``csv``. New attack types join
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
    timestamps = _block_ints(buf, starts, commas)
    if timestamps is None:
        return None
    # No label byte is zero, so a label's words with the bytes past its end
    # masked to zero tell it apart from every other label.
    words = _words(buf)
    keys = []
    changed = np.zeros(len(width), dtype=bool)
    changed[0] = True
    for k in range((int(width.max()) + 7) // 8):
        word = words[commas + 1 + 8 * k] & _LOW_BYTES[np.clip(width - 8 * k, 0, 8)]
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

    After the header, each piece of a block in the ``save_labels`` layout is
    one part. From the first piece out of it, the rest of the file goes
    through csv as one last part, whose byte count is None.
    """
    blocks = _read_blocks(handle)
    buf, lo, hi = next(blocks, (np.zeros(0, np.uint8), 0, 0))
    if buf[lo:hi][: len(_LABEL_HEADER_LINE)].tobytes() != _LABEL_HEADER_LINE:
        rest = itertools.chain([buf[lo:hi].tobytes()], _as_bytes(blocks))
        yield *_label_rows(path, _text_lines(path, rest, 1, ""), 1, index, tick, True), None
        return
    line = 2
    lo += len(_LABEL_HEADER_LINE)
    for buf, lo, hi in itertools.chain([(buf, lo, hi)], blocks):
        for start, stop in _pieces(buf, lo, hi):
            part = _fast_labels(buf, start, stop, index)
            if part is None:
                # csv quoting can span lines, so the rest of the file goes to csv.
                rest = itertools.chain([buf[start:hi].tobytes()], _as_bytes(blocks))
                rows = _text_lines(path, rest, line, "")
                yield *_label_rows(path, rows, line, index, tick, header=False), None
                return
            yield *part, range(line, line + len(part[0])), stop - start
            line += len(part[0])


def load_labels(
    path: Path | str,
    name: str | None = None,
    tick_seconds: Fraction | int | str = 1,
) -> LabeledSeries:
    """Read a ``timestamp,label`` CSV into a LabeledSeries.

    The label ``benign`` (or ``0``) marks benign points; any other non-empty
    string names an attack type. Timestamps must be strictly increasing.
    ISO-8601 timestamps are epoch seconds, so they require ``tick_seconds`` 1.
    """
    path = Path(path)
    tick = Fraction(tick_seconds)
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
    _check_increasing(column, path, lines)
    _check_range(column, path, lines)
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


@dataclass
class _AlertColumns:
    """Alert records of one block."""

    timestamps: np.ndarray
    values: np.ndarray
    kind: AlertKind | None
    detector: str | None  # the "detector" field, if any record had one
    lines: Sequence[int]  # the line of each record


def _fast_alerts(buf: np.ndarray, lo: int, hi: int, first_line: int) -> _AlertColumns | None:
    """The records of block ``buf[lo:hi]`` in the layout ``save_alerts`` writes, or None.

    Every line must read ``{"timestamp": N, "alert": true|false, "detector":
    "D"}`` or ``{"timestamp": N, "score": X, "detector": "D"}``, with one kind
    and one detector name throughout the block.
    """
    if hi - lo < 8 or buf[hi - 1] != ord("\n"):
        return None
    starts, ends = _line_bounds(buf, lo, hi)
    first = buf[lo : ends[0]].tobytes()
    at = first.find(DETECTOR_KEY)
    if at < 0 or not first.endswith(b"}"):
        return None
    suffix = first[at:]  # ', "detector": "D"}', the same on every line
    detector = _json_string(suffix[len(DETECTOR_KEY) : -1])
    if detector is None:
        return None
    head = first[:at]
    if head.endswith((ALERT_TRUE, ALERT_FALSE)):
        kind, key = AlertKind.BOOLEAN, ALERT_TRUE
    elif SCORE_KEY in head:
        kind, key = AlertKind.SCORED, SCORE_KEY + b"0"
    else:
        return None
    if (ends - starts < len(ALERT_PREFIX) + 1 + len(key) + len(suffix)).any():
        return None
    words = _words(buf)
    tail = ends - len(suffix)
    found = _has(words, starts, ALERT_PREFIX) & _has(words, tail, suffix)
    if kind is AlertKind.BOOLEAN:
        # ALERT_TRUE is 15 bytes and ALERT_FALSE 16; two overlapping
        # 8-byte words cover either.
        falses = buf[tail - len(ALERT_FALSE)] == ord(",")
        comma = tail - len(ALERT_TRUE) - falses
        found &= words[comma] == int.from_bytes(ALERT_FALSE[:8], "little")
        found &= words[tail - 8] == np.where(
            falses,
            int.from_bytes(ALERT_FALSE[-8:], "little"),
            int.from_bytes(ALERT_TRUE[-8:], "little"),
        )
        values = ~falses
    else:
        commas = np.flatnonzero(buf[lo:hi] == ord(","))
        commas += lo
        after = np.searchsorted(commas, starts + len(ALERT_PREFIX))
        comma = commas[np.minimum(after, len(commas) - 1)]
        found &= _has(words, comma, SCORE_KEY)
        # Only lines in the layout have a token between the two keys.
        values = _block_floats(buf, comma + len(SCORE_KEY), tail) if found.all() else None
    if not found.all() or values is None:
        return None
    timestamps = _block_ints(buf, starts + len(ALERT_PREFIX), comma)
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
    want = series.timestamps
    values: np.ndarray | None = None  # of the blocks that match ``want``, in order
    at = 0  # records matched: the timestamps ``want[:at]``, not kept
    tail: list[_AlertColumns] = []  # every part from the first block that differs on
    kind: AlertKind | None = None
    field_detector: str | None = None
    line = 1
    with open(path, "rb") as handle:
        for buf, lo, hi in _read_blocks(handle):
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
        _check_increasing(got, path, record_lines)
        _check_range(got, path, record_lines)
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
        duration_seconds=series.span_seconds,
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
