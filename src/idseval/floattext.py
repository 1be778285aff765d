"""``repr`` and ``'%.2f'`` of float64 arrays, built in numpy as NUL-padded uint8 fields.

``repr_fields`` serves the ROC writers and ``fixed2_fields`` the timeline's
``<rect>`` rows. Both certify every answer they compute and give the values
they cannot certify to Python's own formatting, so their bytes never differ
from it.

``repr`` writes the shortest decimal that reads back as the same double
(among those, the nearest), in fixed notation when its decimal exponent
``E`` is in [-4, 15]. For such values the digits are found with array
arithmetic (the shortest-digits search of Adams, "Ryu", PLDI 2018, at the
three lengths a double can need) and every answer is certified exactly:

- ``a * 10**k`` for ``k = 16 - E`` (so 17 digits before the point) is
  formed exactly as a double-double with Dekker's TwoProduct over Veltkamp
  splits, then split into the nearest integer ``B`` and a remainder ``f``.
  ``10**k`` is exact for ``k <= 22``, and no fused multiply-add is needed.
- Every decimal that reads back as ``a`` lies within
  ``tol = spacing(a) / 2 * 10**k`` of ``B + f`` (exact: a power of two
  times ``10**k``). ``tol`` is at most 11.1 there, so at most one multiple
  of 100 (a 15-digit decimal) lies inside: if the nearest one does, it is
  ``repr``'s digits less their trailing zeros. Otherwise the nearest
  multiple of 10 (16 digits) if it lies inside, otherwise ``B`` itself,
  which always does.

Values that no step certifies get ``float.__repr__``: zeros, non-finite
values, magnitudes in exponent notation, powers of two (their interval is
lopsided), ``B + f`` within 1e-9 of a tie or of an interval edge, and
digits that round up to ``10**17``.

``'%.2f'`` is correctly rounded (Gay, "Correctly Rounded Binary-Decimal and
Decimal-Binary Conversions", 1990): its digits are those of the integer
nearest ``|a| * 100``, ties to even. ``fixed2_fields`` rounds the double
product ``y = |a| * 100`` to ``N = rint(y)``, and ``N`` is that integer
whenever ``|y - N| < 0.5``. Below ``2**50``, ``y - N`` is a multiple of
``spacing(y)`` and so at most ``0.5 - spacing(y)``, while ``y`` is within
``spacing(y) / 2`` of the exact product; the exact distance to ``N`` is
therefore below one half, and the exact product needs no double-double
(Dekker's error term never changes the outcome). Values with ``y`` exactly
halfway (ties and near-ties that round onto one), magnitudes from ``2**43``
up and non-finite values get ``'%.2f' % v``.
"""

from __future__ import annotations

import numpy as np

from .model import _run_heads

# The longest repr, '-1.2345678901234567e-308', fills a field exactly.
WIDTH = 24
# Values per pass through the arithmetic; bounds the temporaries. A pass
# holds ~300 bytes of them per value, 2.5 MiB at 8192 values, and frees
# them all at its end. The heap may hand such a burst back and fault it in
# again on the next pass, depending on what else the process holds: writing
# a 2e5-row ROC curve took 8k-19k minor faults with 16384-value passes
# (5.0 MiB) and under 1k with 8192. 4096 values take no fewer faults and
# more time.
_BLOCK = 1 << 13
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's constant for float64
_MARGIN = 1e-9
_MANTISSA = np.uint64((1 << 52) - 1)

# Tables by ``e = E + 4``, 0-19 for fixed notation. Index 20 (and -1,
# which numpy reads as the last entry) stands for every other value; its
# entries only keep the arithmetic finite.
_POW10 = np.array([10.0**k for k in range(23)])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``a`` into two halves of at most 26 bits each."""
    c = a * _SPLITTER
    high = c - (c - a)
    return high, a - high


_P_HIGH, _P_LOW = _split(_POW10)
# The digits of a 17-digit D before the point are D // _HEAD[e], and
# D + (D // _HEAD[e]) * _GAP[e] has a zero digit inserted at the point.
_HEAD = np.array([10 ** min(17, 16 - e) for e in range(-4, 16)] + [1], dtype=np.int64)
_GAP = np.array([9 * 10 ** (16 - e) if e >= 0 else 0 for e in range(-4, 16)] + [0], dtype=np.int64)


def _decades() -> tuple[np.ndarray, np.ndarray]:
    """``e`` for the doubles below ``10.0**(E+1)``, and that bound, by biased exponent.

    ``floor(log10(2) * (exponent - 1023))`` is ``E`` or ``E - 1`` for every
    double with that exponent. ``10.0**j`` is not below ``10**j`` for
    ``j = -4..16`` (exact for ``j >= 0``), so a double is at least the bound
    exactly when its value is at least ``10**(E+1)``.
    """
    guess = ((np.arange(2048) - 1023) * 78913 >> 18) + 4
    guess[(guess < -1) | (guess > 19)] = 20
    bound = np.full(2048, np.nan)  # no double reaches it, infinity included
    for e in range(-1, 20):
        bound[guess == e] = float(f"1e{e - 3}")
    return guess, bound


_GUESS, _BOUND = _decades()


def _digit_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each number below 10**4 as four digit bytes, most significant lowest,
    the same moved up four bytes, and each number below 100 as two."""
    n = np.arange(10**4, dtype=np.uint64)
    quads = sum((n // np.uint64(10**i) % np.uint64(10)) << np.uint64(8 * (3 - i)) for i in range(4))
    pairs = (n[:100] // np.uint64(10)) | (n[:100] % np.uint64(10)) << np.uint64(8)
    return quads, quads << np.uint64(32), pairs


_QUADS, _QUADS_UP, _PAIRS = _digit_words()
_ONES = np.arange(100, dtype=np.int64) % 10


def _templates() -> tuple[np.ndarray, ...]:
    """Three template words and a shift in bits, by ``(negative * 21 + e) * 19 + used``.

    ``used`` counts the bytes of the 18-digit string of ``V`` (the digits
    with a zero inserted at the point, or after a leading zero when the
    point is before the first digit) up to its last nonzero digit. The
    string, shifted by the shift, plus the template is the text: the
    template holds '0' where the text shows a digit and the other bytes of
    the text ('-', '0.', '.', '.0') where the string holds zeros.
    """
    texts, shifts = [], []
    for negative in (0, 1):
        sign = b"-" * negative
        for e in range(21):
            point = e - 3
            for used in range(19):
                if e == 20 or used == 0:  # never looked up: all NUL
                    text, shift = b"", 0
                elif point <= 0:  # 0.000ddd: the string's leading zero is the last prefix zero
                    text = sign + b"0." + b"0" * -point + b"0" * (used - 1)
                    shift = negative + 1 - point
                elif used - 1 > point:  # dd.ddd: the inserted zero is the point
                    text = sign + b"0" * point + b"." + b"0" * (used - 1 - point)
                    shift = negative
                else:  # ddd00.0: no digit after the point
                    text = sign + b"0" * point + b".0"
                    shift = negative
                texts.append(text.ljust(WIDTH, b"\0"))
                shifts.append(8 * shift)
    words = np.frombuffer(b"".join(texts), "<u8").reshape(-1, 3).T
    return (*(np.ascontiguousarray(column) for column in words), np.array(shifts, np.uint64))


_T0, _T1, _T2, _SHIFT = _templates()


def repr_fields(values: np.ndarray) -> np.ndarray:
    """``repr`` of every float64 in ``values`` as rows of ``WIDTH`` bytes, NUL-padded.

    Each run of consecutive equal bit patterns is formatted once and its
    field repeated; bits, not values, are compared, so ``0.0`` and ``-0.0``
    stay apart.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    heads = np.flatnonzero(_run_heads(x.view(np.uint64)))
    distinct = x[heads]
    words = np.empty((len(distinct), 3), dtype=np.uint64)
    for start in range(0, len(distinct), _BLOCK):
        _fill(distinct[start : start + _BLOCK], words[start : start + _BLOCK])
    if len(distinct) < len(x):
        words = words.repeat(np.diff(heads, append=len(x)), axis=0)
    return words.view(np.uint8)


def _fill(x: np.ndarray, out: np.ndarray) -> None:
    """Write the fields of ``x`` into ``out``, three words per value."""
    a = np.abs(x)
    biased = a.view(np.int64) >> 52
    e = _GUESS[biased]
    e += a >= _BOUND[biased]
    fixed = (e.view(np.uint64) < 20) & ((a.view(np.uint64) & _MANTISSA) != 0)
    # A stand-in keeps the arithmetic in range: a * p is below 2**63 for
    # both p = 1 (e = 20) and p = 1e21 (e = -1).
    a = np.where(fixed, a, 1.5e-5)
    k = 20 - e  # 16 - E

    # B + f = a * p exactly; a * p >= 10**16 > 2**53, so hi is an integer.
    p = _POW10[k]
    a_high, a_low = _split(a)
    p_high, p_low = _P_HIGH[k], _P_LOW[k]
    hi = a * p
    f = ((a_high * p_high - hi) + a_high * p_low + a_low * p_high) + a_low * p_low
    carry = np.rint(f)
    f -= carry
    b = hi.astype(np.int64)
    b += carry.astype(np.int64)
    tol = (((a.view(np.int64) >> 52) - 53) << 52).view(np.float64)  # half the spacing at a
    tol *= p
    inside, outside = tol * (1 - _MARGIN), tol * (1 + _MARGIN)

    # Distances from B + f to the nearest multiples of 100 and of 10.
    q = b // 100
    low = b - q * 100
    r = low + f
    up = r >= 50
    d15 = np.abs(r - 100 * up)
    ones = _ONES[low]
    r = ones + f
    up10 = r >= 5
    d16 = np.abs(r - 10 * up10)
    ok15 = d15 < inside
    beyond = d15 > outside
    ok16 = beyond & (d16 < np.minimum(inside, 5 - _MARGIN))
    ok17 = beyond & (d16 > outside) & (np.abs(f) < 0.5 - _MARGIN)
    d = np.where(ok15, (q + up) * 100, np.where(ok16, b + (10 * up10 - ones), b))
    fixed &= (ok15 | ok16 | ok17) & (d < 10**17)
    np.minimum(d, 10**17 - 1, out=d)

    # The 18-digit string of V as three words, most significant byte lowest.
    v = d + (d // _HEAD[e]) * _GAP[e]
    q = v // 100
    last = v - q * 100
    q1 = q // 10**4
    q2 = q1 // 10**4
    g0 = q2 // 10**4
    w0 = _QUADS[g0] | _QUADS_UP[q2 - g0 * 10**4]
    w1 = _QUADS[q1 - q2 * 10**4] | _QUADS_UP[q - q1 * 10**4]
    w2 = _PAIRS[last]
    # Every byte is below 16, so no rounding lifts the sum past its top byte.
    top = w2.astype(np.float64) * 2.0**128 + w1.astype(np.float64) * 2.0**64
    top += w0.astype(np.float64)
    used = (np.frexp(top)[1] + 7) >> 3

    cls = (np.signbit(x) * 21 + e) * 19 + used
    shift = _SHIFT[cls]
    back = 64 - shift
    np.add(w0 << shift, _T0[cls], out=out[:, 0])
    np.add(w1 << shift | w0 >> back, _T1[cls], out=out[:, 1])
    np.add(w2 << shift | w1 >> back, _T2[cls], out=out[:, 2])
    slow = np.flatnonzero(~fixed)
    if len(slow):
        text = b"".join(repr(value).encode().ljust(WIDTH, b"\0") for value in x[slow].tolist())
        out.view(np.uint8)[slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, WIDTH)


# '%.2f' below _FIXED2_LIMIT: a * 100 < 2**50, and the integer part has at
# most 13 digits, so a field is at most 17 bytes.
_FIXED2_LIMIT = 2.0**43
# By biased exponent: the digits less one of 2**exponent's integer part
# (0 below 1), and the power of ten above it. A value's integer part, or
# that part rounded up, is below twice the power of two, so it has the
# guessed digits or one more.
_WHOLE_GUESS = np.clip((np.arange(2048) - 1023) * 78913 >> 18, 0, 12)
_WHOLE_NEXT = 10 ** (_WHOLE_GUESS + 1)


def _fixed2_templates() -> tuple[np.ndarray, ...]:
    """Three template words by ``negative * 13 + k`` for an integer part of ``k + 1`` digits.

    The text is right-aligned in 24 bytes. The 16 digits of ``V`` (the
    integer part, a zero at the point, two decimals) fill bytes 8-23 and
    add onto the template: '0' under each shown digit, '.' at the point,
    '-' before the first digit of a negative value, NUL elsewhere.
    """
    texts = [
        (b"-" * negative + b"0" * (k + 1) + b".00").rjust(24, b"\0")
        for negative in (0, 1)
        for k in range(13)
    ]
    words = np.frombuffer(b"".join(texts), "<u8").reshape(-1, 3).T
    return tuple(np.ascontiguousarray(column) for column in words)


_F0, _F1, _F2 = _fixed2_templates()


def fixed2_fields(values: np.ndarray) -> np.ndarray:
    """``'%.2f' % v`` of every float64 in ``values`` as uint8 rows, NUL-padded on the left.

    Rows are as wide as the longest text among them, so dropping the NULs
    of a row leaves its text.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    words = np.empty((len(x), 3), dtype=np.uint64)
    lengths = np.empty(len(x), dtype=np.int64)
    fast = np.empty(len(x), dtype=bool)
    for start in range(0, len(x), _BLOCK):
        block = slice(start, start + _BLOCK)
        fast[block] = _fill_fixed2(x[block], words[block], lengths[block])
    slow = np.flatnonzero(~fast)
    texts = [b"%.2f" % value for value in x[slow].tolist()]
    width = max(lengths[fast].max(initial=0), max(map(len, texts), default=0))
    rows = words.view(np.uint8)[:, 24 - min(width, 24) :]
    if width > 24:
        rows = np.concatenate((np.zeros((len(x), width - 24), dtype=np.uint8), rows), axis=1)
    if len(slow):
        text = b"".join(t.rjust(width, b"\0") for t in texts)
        rows[slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, width)
    return rows


def _fill_fixed2(x: np.ndarray, out: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Write the fields of ``x`` into ``out`` and their lengths into ``lengths``;
    return which values the arithmetic certified."""
    a = np.abs(x)
    fast = a < _FIXED2_LIMIT  # False for NaN and infinities
    a = np.where(fast, a, 0.0)
    y = a * 100.0
    n = np.rint(y)
    fast &= np.abs(y - n) < 0.5  # the module docstring shows why this certifies n
    n = n.astype(np.int64)
    whole = n // 100
    v = n + whole * 900  # a zero digit inserted at the point
    high = v // 10**8
    low = v - high * 10**8
    high_q, low_q = high // 10**4, low // 10**4
    biased = a.view(np.int64) >> 52
    k = _WHOLE_GUESS[biased]
    k += whole >= _WHOLE_NEXT[biased]
    negative = np.signbit(x)
    cls = negative * 13 + k
    out[:, 0] = _F0[cls]
    np.add(_QUADS[high_q] | _QUADS_UP[high - high_q * 10**4], _F1[cls], out=out[:, 1])
    np.add(_QUADS[low_q] | _QUADS_UP[low - low_q * 10**4], _F2[cls], out=out[:, 2])
    np.add(k, negative, out=lengths)
    lengths += 4
    return fast
