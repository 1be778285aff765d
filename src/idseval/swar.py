"""Numbers and fixed bytes read from a byte buffer a 64-bit word at a time.

``ingest``'s block parsers find where the pieces of each line lie; this
module reads them. ``words`` views every offset of a buffer as one
little-endian uint64, ``records`` gathers several such words per offset in
one step, and ``match`` checks records against a ``pattern`` of fixed bytes.
Decimal integers and JSON numbers are read eight digits per word (SWAR, SIMD
within a register) by ``block_ints`` and ``block_floats``. Both return None
when a token cannot be read exactly as ``int`` or ``json`` would read it, so
that the caller's block takes the record-by-record route; nothing here
raises on bad input.

The module knows no file format. It is apart from ``ingest`` also because a
module's compilation, paid at every start when bytecode is not cached, holds
its transients until the whole module is compiled, so two modules peak
lower than one.
"""

from __future__ import annotations

import json

import numpy as np

_INT64_MAX = 2**63 - 1
# The bytes of a JSON number: a score token with any other byte goes to the
# record route, so NaN, Infinity, literals and whitespace never reach the
# json tier of ``block_floats``.
_NUMBER_BYTES = np.zeros(256, dtype=bool)
_NUMBER_BYTES[list(b"0123456789.eE+-")] = True


def words(arr: np.ndarray) -> np.ndarray:
    """The eight bytes at every offset of ``arr``, each read as one little-endian uint64."""
    return np.ndarray((len(arr) - 7,), dtype="<u8", buffer=arr, strides=(1,))


def records(buf: np.ndarray, at: np.ndarray, size: int) -> np.ndarray:
    """The ``size`` bytes from each offset in ``at``, in one gather, as rows of uint64 words."""
    every = np.ndarray((len(buf) - size + 1,), dtype=f"V{size}", buffer=buf, strides=(1,))
    return every[at].view("<u8").reshape(len(at), size // 8)


def pattern(text: bytes, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``text`` ending ``size`` bytes into a record, as words, and masks that keep its bytes."""
    pad = bytes(size - len(text))
    return np.frombuffer(pad + text, "<u8"), np.frombuffer(pad + b"\xff" * len(text), "<u8")


def match(rows: np.ndarray, template: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Whether each record holds ``template`` on the bytes ``masks`` keeps, column by column."""
    found = np.ones(len(rows), dtype=bool)
    for column, word, mask in zip(rows.T, template, masks):
        if mask:  # a column with nothing to check is not read
            found &= (column if mask == _ALL_BYTES else column & mask) == word
    return found


def _byte_masks(high: bool) -> np.ndarray:
    """``masks[k]`` keeps the ``k`` highest (or lowest) bytes of a uint64, k = 0..8."""
    ones = [(1 << (8 * k)) - 1 for k in range(9)]
    return np.array([m << (64 - 8 * k) if high else m for k, m in enumerate(ones)], np.uint64)


# Word-at-a-time (SWAR) decimal parsing. A little-endian word holds eight
# ASCII digits, the most significant in its lowest byte; XOR with '0' * 8
# turns each into its value, and each step below joins neighbouring lanes.
_HIGH_BYTES, LOW_BYTES = _byte_masks(True), _byte_masks(False)
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
_LOW_BYTE, _ALL_BYTES = np.uint64(0xFF), np.uint64(2**64 - 1)
_MINUS = np.uint64(ord("-") ^ ord("0"))  # '-' after the XOR with '0'
_POW10_INTS = np.array([10**k for k in range(17)], dtype=np.uint64)
_POW10_FLOATS = _POW10_INTS.astype(np.float64)


def _join_lanes(digits: np.ndarray) -> None:
    """Join in place each word's eight digit values, most significant lowest, into one number."""
    for mask, factor, shift in _SWAR_STEPS:
        digits &= mask
        digits *= factor
        digits >>= shift


def digit_runs(
    buf: np.ndarray, end: np.ndarray, width: np.ndarray, longest: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``width`` (0-19, at most ``longest``) bytes before each ``end`` read
    as decimal digits: their value, and whether any of them is not a digit.

    Each run is read as up to three little-endian words ending at its end,
    least significant first; they reach at most 24 bytes before it, which
    the buffer must hold (``ingest._FRONT``). In each word the bytes left of
    the run are masked off after the XOR with '0' * 8, so they read as zero
    digits. A byte is a digit when its high nibble and that of byte + 6 are
    both zero, and three multiply-and-shift steps sum the eight digits.
    """
    every = words(buf)
    value = np.zeros(len(end), dtype=np.uint64)
    nibbles = np.zeros(len(end), dtype=np.uint64)
    for k in range((longest + 7) // 8):
        # How many of the word's bytes belong to each run.
        digits = np.clip(width - 8 * k, 0, 8) if longest > 8 else width
        word = every[end - 8 * (k + 1)]
        word ^= _ASCII_ZEROS
        word &= _HIGH_BYTES[digits]
        nibbles |= word
        nibbles |= word + _SIXES
        _join_lanes(word)
        if k:
            word *= _POW8[k]
        value += word
    return value, (nibbles & _HIGH_NIBBLES) != 0


def word_ints(word: np.ndarray, width: np.ndarray | int) -> np.ndarray | None:
    """The integers in the low ``width`` (1-8, or one int for all) bytes of each
    word, or None unless each is an optional '-' then digits without a leading
    zero. ``word`` is overwritten. The XOR makes '-' a zero digit, and the
    shift drops the bytes after the token."""
    digits = word
    digits ^= _ASCII_ZEROS
    negative = (digits & _LOW_BYTE) == _MINUS
    count, lead = width, digits & _LOW_BYTE  # digits per token, the first of them
    if negative.any():
        digits ^= negative * _MINUS
        count, lead = width - negative, (digits >> (negative * np.uint64(8))) & _LOW_BYTE
    if np.any(count < 1) or ((lead == 0) & (count > 1)).any():
        return None
    digits <<= np.asarray(64 - 8 * width, dtype=np.uint64)
    if ((digits | (digits + _SIXES)) & _HIGH_NIBBLES).any():
        return None
    _join_lanes(digits)
    values = digits.view(np.int64)
    np.negative(values, out=values, where=negative)
    return values


def block_ints(
    buf: np.ndarray, start: np.ndarray, end: np.ndarray, word: np.ndarray | None = None
) -> np.ndarray | None:
    """The integers ``buf[start:end]``, or None unless each is an optional '-' then
    1-19 digits without a leading zero, within int64. Tokens of up to eight
    bytes are read from the word at their start (``word``, if given, which is
    overwritten)."""
    span = end - start
    shortest, longest = int(span.min()), int(span.max())
    if longest <= 8:
        word = words(buf)[start] if word is None else word
        return word_ints(word, longest if shortest == longest else span)
    negative = buf[start] == ord("-")
    first = start + negative if negative.any() else start
    width = end - first
    if not ((width - 1).view(np.uint64) < 19).all():
        return None
    zero_first = buf[first] == ord("0")
    if zero_first.any() and (width[zero_first] != 1).any():
        return None
    longest = int(width.max())
    value, bad = digit_runs(buf, end, width, longest)
    if bad.any():
        return None
    if longest == 19 and (value > np.where(negative, np.uint64(2**63), np.uint64(_INT64_MAX))).any():
        return None
    result = value.astype(np.int64)  # 2**63 wraps to -2**63, which negation keeps
    np.negative(result, out=result, where=negative)
    return result


def byte_offsets(word: np.ndarray, byte: np.uint64) -> np.ndarray:
    """The offset (0-7) of the first byte of each word equal to ``byte``'s, or -1:
    the lowest zero byte of the XOR, exact by the borrow trick, read by ``frexp``."""
    word = word ^ byte
    zeros = (word - _ONES) & ~word & _HIGH_BITS
    lowest = zeros & (~zeros + np.uint64(1))
    return (np.frexp(lowest.astype(np.float64))[1] - 1) >> 3


def word_floats(word: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The JSON numbers in the low ``size`` (0-8) bytes of each word, and which were
    read: '-'?, '0' or digits without a leading zero, then maybe '.' and digits.
    Byte shifts drop the '-' and the point; the digits are read as in ``word_ints``."""
    digits = word ^ _ASCII_ZEROS
    negative = (digits & _LOW_BYTE) == _MINUS
    digits >>= negative * np.uint64(8)
    width = size - negative
    point = byte_offsets(digits, _DOTS ^ _ASCII_ZEROS)
    dotted = (point >= 0) & (point < width)
    whole = np.where(dotted, point, width)  # the digits before the point
    count = width - dotted  # all digits, 0-8
    keep = LOW_BYTES[whole]
    digits = (digits & keep) | ((digits >> np.uint64(8)) & ~keep)
    read = (whole >= 1) & (count - whole >= dotted) & ((whole == 1) | ((digits & _LOW_BYTE) != 0))
    digits <<= (64 - 8 * count).astype(np.uint64)
    read &= ((digits | (digits + _SIXES)) & _HIGH_NIBBLES) == 0
    _join_lanes(digits)
    values = digits / _POW10_FLOATS[count - whole]
    np.negative(values, out=values, where=negative & (dotted | (digits != 0)))  # json: -0 is 0
    return values, read


def block_floats(
    buf: np.ndarray, start: np.ndarray, end: np.ndarray, word: np.ndarray | None = None
) -> np.ndarray | None:
    """The JSON numbers ``buf[start:end]`` as float64, or None unless every token
    matches the JSON number grammar and is finite.

    A token ``-?(0|[1-9][0-9]*)(.[0-9]+)?`` whose digits, read without the
    point, are an integer ``D < 2**53`` is ``D / 10.0**k`` for its ``k``
    fraction digits: ``D`` and ``10**k`` (``k <= 16``) are exact doubles, so
    the one division rounds the token's value correctly, as ``float`` does.
    Tokens of up to eight bytes are read so by ``word_floats`` from the word at
    their start (``word``, if the caller holds it); of the others, the digits on
    each side of the point by ``digit_runs``. Any token left (an exponent, more
    than 16 digits) is read by ``json`` in ``json_floats``, as ``json`` reads it.
    """
    word = words(buf)[start] if word is None else word
    size = end - start
    read = size <= 8
    if read.all():
        values, read = word_floats(word, size)
    else:  # only the short tokens, if any, are read from their word
        values, short = np.empty(len(size)), np.flatnonzero(read)
        if len(short):
            values[short], read[short] = word_floats(word[short], size[short])
    if read.all():
        return values
    rest = np.flatnonzero(~read) if read.any() else slice(None)
    start, end, word = start[rest], end[rest], word[rest]
    negative = (word & _LOW_BYTE) == ord("-")
    first = start + negative
    if negative.any():
        word = words(buf)[first]
    offset = byte_offsets(word, _DOTS)  # of the first '.'
    point = np.where(offset >= 0, first + offset, end)
    np.minimum(point, end, out=point)
    whole = point - first
    fraction = np.maximum(end - point - 1, 0)
    fast = (whole >= 1) & (whole + fraction <= 16) & ((point == end) | (fraction >= 1))
    fast &= (whole == 1) | ((word & _LOW_BYTE) != ord("0"))
    whole *= fast
    fraction *= fast
    high, high_bad = digit_runs(buf, point, whole, int(whole.max(initial=0)))
    low, low_bad = digit_runs(buf, end, fraction, int(fraction.max(initial=0)))
    high *= _POW10_INTS[fraction]
    high += low
    fast &= ~high_bad & ~low_bad & (high < np.uint64(2**53))
    more = high / _POW10_FLOATS[fraction]
    np.negative(more, out=more, where=negative)
    slow = np.flatnonzero(~fast)
    if len(slow):
        tail = json_floats(buf, start[slow], end[slow])
        if tail is None:
            return None
        more[slow] = tail
    values[rest] = more
    return values


def json_floats(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
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
