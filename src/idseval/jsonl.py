"""The byte layout of alert JSONL records, and the writers that lay them out.

A record reads ``{"timestamp": N, "alert": true|false, "detector": "D"}`` or
``{"timestamp": N, "score": X, "detector": "D"}``: byte for byte what
``json.dumps`` writes for that dict. ``ingest.save_alerts`` writes through
the functions here, and ``ingest``'s block parser checks lines against the
same constants, so the two cannot drift apart. The writers live apart from
``ingest`` so that neither module's compilation, paid on every start when
bytecode is not cached, grows with the other's code.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

ALERT_PREFIX = b'{"timestamp": '
ALERT_TRUE, ALERT_FALSE = b', "alert": true', b', "alert": false'
SCORE_KEY = b', "score": '
DETECTOR_KEY = b', "detector": '
# Every int64 from _WIDTH_STARTS[i] up to the next start prints as
# _WIDTHS[i] characters, '-' included.
_WIDTH_STARTS = np.array(
    [-(2**63), *(1 - 10**k for k in range(18, 0, -1)), 0, *(10**k for k in range(1, 19))],
    dtype=np.int64,
)
_WIDTHS = (*range(20, 1, -1), *range(1, 20))
# Bytes per NUL-dropping copy: a whole 1.3 MB chunk at once costs two such
# transients per chunk, which the heap may fault in again on every chunk.
_PIECE_BYTES = 1 << 16


def without_nuls(data: np.ndarray) -> Iterator[bytes]:
    """The bytes of the C-contiguous uint8 array ``data`` with every NUL dropped,
    in pieces of at most ``_PIECE_BYTES``."""
    flat = data.reshape(-1)
    for start in range(0, len(flat), _PIECE_BYTES):
        yield flat[start : start + _PIECE_BYTES].tobytes().replace(b"\0", b"")


def write_flags(
    handle, timestamps: np.ndarray, flags: np.ndarray, detector: str, rows: int
) -> None:
    """Write boolean records to a binary ``handle``, ``rows`` at a time, built as uint8 rows.

    ``detector`` is the name as ``json.dumps`` writes it. Timestamps
    increase, so a chunk splits into a few runs of equal text width
    (``_WIDTH_STARTS``). Each run is one 2-D block: the row template with
    ``ALERT_FALSE`` (``ALERT_TRUE`` if the whole chunk is true) is broadcast,
    then the digits are written from the uint64 magnitude, right to left.
    In a chunk that mixes both, ``ALERT_TRUE`` and a NUL overwrite
    ``ALERT_FALSE`` on true rows, and the NULs are dropped as the chunk is
    written. ``json.dumps`` escapes NUL as ``\\u0000``, so no other byte of a
    row is one.
    """
    name = detector.encode()
    true_key = np.frombuffer(ALERT_TRUE + b"\0", dtype=np.uint8)
    widest = max(len(str(int(timestamps[0]))), len(str(int(timestamps[-1]))))
    size = min(len(timestamps), rows)
    longest = len(ALERT_PREFIX + ALERT_FALSE + DETECTOR_KEY + name + b"}\n") + widest
    buf = np.empty(size * longest, dtype=np.uint8)
    mag, rest, low = (np.empty(size, dtype=np.uint64) for _ in range(3))
    digit = np.empty(size, dtype=np.uint8)
    for start in range(0, len(timestamps), rows):
        stamps = timestamps[start : start + rows]
        chunk = flags[start : start + rows]
        trues = int(np.count_nonzero(chunk))
        mixed = 0 < trues < len(chunk)
        key = ALERT_TRUE if trues == len(chunk) else ALERT_FALSE
        firsts = np.searchsorted(stamps, _WIDTH_STARTS)
        counts = np.diff(firsts, append=len(stamps))
        used = 0
        for i in np.flatnonzero(counts):
            a, n, width = firsts[i], counts[i], _WIDTHS[i]
            negative = int(_WIDTH_STARTS[i] < 0)
            row = ALERT_PREFIX + b"-" * negative + b"0" * (width - negative)
            row += key + DETECTOR_KEY + name + b"}\n"
            span = slice(used, used + n * len(row))
            block = buf[span].reshape(n, len(row))
            block[:] = np.frombuffer(row, dtype=np.uint8)
            # Two's complement negation in uint64 is exact for -2**63 too.
            q, r, t, d = mag[:n], rest[:n], low[:n], digit[:n]
            np.copyto(q, stamps[a : a + n].view(np.uint64))
            if negative:
                np.negative(q, out=q)
            end = len(ALERT_PREFIX) + width
            for column in range(end - 1, end - 1 - width + negative, -1):
                np.floor_divide(q, 10, out=r)
                np.multiply(r, 10, out=t)
                np.subtract(q, t, out=d, casting="unsafe")
                block[:, column] += d  # onto the template's '0'
                q, r = r, q
            if mixed:
                block[chunk[a : a + n], end : end + len(true_key)] = true_key
            used = span.stop
        if mixed:
            handle.writelines(without_nuls(buf[:used]))
        else:
            handle.write(buf[:used])


def write_scores(
    handle, timestamps: np.ndarray, scores: np.ndarray, detector: str, rows: int
) -> None:
    """Write scored records to a binary ``handle``, ``rows`` at a time.

    Rows fill a string template from ``tolist()`` chunks: ``%d`` formats
    ints and ``%r`` floats exactly as ``json`` does, and numpy has no
    byte-exact ``float.__repr__``.
    """
    line = (ALERT_PREFIX + b"%d" + SCORE_KEY + b"%r" + DETECTOR_KEY).decode()
    line += detector.replace("%", "%%") + "}\n"
    for start in range(0, len(timestamps), rows):
        stamps = timestamps[start : start + rows].tolist()
        fields: list[object] = [None] * (2 * len(stamps))
        fields[0::2] = stamps
        fields[1::2] = scores[start : start + rows].tolist()
        handle.write(((line * len(stamps)) % tuple(fields)).encode())
