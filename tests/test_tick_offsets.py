"""Ticks held as offsets from the first tick.

A series holds its first tick and each tick's offset from it, in the
narrowest unsigned type that holds the last offset. Loaded from a file (on
the block route with small blocks, or through csv) or built from int64
ticks, it is the series the reference loader gives, or the load fails with
the reference's message, whatever the span, the origin or the fault. The
verbs never ask a series for its int64 timestamps.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idseval import IngestError, LabeledSeries, ingest
from oracles import ingest_oracle
from support import assert_verbs_write_the_golden_files

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# The span of each offset type's largest value and of one past it.
SPANS = (2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**64 - 1)
ORIGINS = (INT64_MIN, -(2**53), 0, 2**53, INT64_MAX)
FAULTS = ("none", "out-of-order", "duplicate", "outside-int64")
# "spanning" ends the file with a quoted label whose second line reads as a
# row with the first tick, so the last line read from the end understates the span.
ROUTES = ("blocks", "csv", "quoted-last", "spanning")


def narrowest(span: int) -> np.dtype:
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if span <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise AssertionError(span)


@st.composite
def tick_files(draw):
    """Rising ticks over one of SPANS from an origin near one of ORIGINS, with
    at most one fault, and labels for them."""
    span = draw(st.sampled_from(SPANS))
    near = draw(st.sampled_from(ORIGINS)) + draw(st.integers(-3, 3))
    origin = min(max(near, INT64_MIN), INT64_MAX - span)
    inner = draw(st.lists(st.integers(1, span - 1), max_size=6, unique=True))
    ticks = [origin, *sorted(origin + offset for offset in inner), origin + span]
    fault = draw(st.sampled_from(FAULTS))
    i = draw(st.integers(1, len(ticks) - 1))
    if fault == "out-of-order":
        ticks[i], ticks[i - 1] = ticks[i - 1], ticks[i]
    elif fault == "duplicate":
        ticks[i] = ticks[i - 1]
    elif fault == "outside-int64":
        ticks[i] = draw(st.sampled_from([INT64_MIN - 1, INT64_MAX + 1, 2**64]))
    labels = draw(st.lists(st.sampled_from(["benign", "dos", "scan"]),
                           min_size=len(ticks), max_size=len(ticks)))
    return ticks, labels


def write_labels(path: Path, ticks: list[int], labels: list[str], route: str) -> None:
    rows = [f"{t},{label}" for t, label in zip(ticks, labels)]
    if route == "csv":  # the first row quoted sends the whole file through csv
        rows[0] = ",".join(f'"{cell}"' for cell in rows[0].split(","))
    elif route == "quoted-last":
        rows[-1] = ",".join(f'"{cell}"' for cell in rows[-1].split(","))
    elif route == "spanning":
        rows[-1] = f'{ticks[-1]},"x\n{ticks[0]},y"'
    path.write_text("\n".join(["timestamp,label", *rows, ""]), encoding="utf-8")


def outcome(load, path):
    try:
        series = load(path, name="plant")
    except IngestError as exc:
        return "error", str(exc)
    return "ok", series


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=tick_files(), route=st.sampled_from(ROUTES),
       block=st.sampled_from([16, 40, 1 << 17]))
@example(case=([0, 300], ["benign", "dos"]), route="spanning", block=16)
@example(case=([-(2**53), 1, 2**32], ["dos", "benign", "dos"]), route="spanning", block=1 << 17)
def test_ticks_at_every_dtype_edge(case, route, block):
    ticks, labels = case
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "labels.csv"
        write_labels(path, ticks, labels, route)
        with mock.patch.object(ingest, "_LABEL_BLOCK_BYTES", block):
            got = outcome(ingest.load_labels, path)
        try:
            expected = outcome(ingest_oracle.load_labels, path)
        except OverflowError:  # the reference's int64 array refuses the tick
            bad = next(t for t in ticks if not INT64_MIN <= t <= INT64_MAX)
            assert got[0] == "error"
            assert got[1].endswith(f"timestamp {bad} is outside the 64-bit integer range")
            return
    assert got == expected
    if got[0] == "ok":
        series = got[1]
        assert series.timestamps.dtype == np.int64
        assert series.timestamps.tolist() == ticks
        assert series.origin == ticks[0]
        assert series.offsets.dtype == narrowest(ticks[-1] - ticks[0])
        built = LabeledSeries("plant", np.array(ticks, dtype=np.int64), series.label_codes,
                              series.attack_types)
        assert built == series and built.offsets.dtype == series.offsets.dtype


def test_offsets_are_narrow_and_read_only():
    series = LabeledSeries("s", [10**12, 10**12 + 7, 10**12 + 70_000], [0, 1, 0], ("dos",))
    assert series.origin == 10**12
    assert series.offsets.dtype == np.uint32
    assert series.offsets.tolist() == [0, 7, 70_000]
    assert not series.offsets.flags.writeable
    assert "timestamps" not in vars(series)
    assert series.timestamps is series.timestamps
    assert not series.timestamps.flags.writeable
    assert series.ticks(slice(1, None)).tolist() == [10**12 + 7, 10**12 + 70_000]
    assert series.last_tick == 10**12 + 70_000


def test_from_offsets_checks_the_offsets():
    def build(origin, offsets):
        return LabeledSeries.from_offsets("s", origin, offsets, [0], [0], ())

    assert build(5, np.array([0, 3], np.uint64)).offsets.dtype == np.uint8
    for offsets in ([0, 3], np.array([0, 3], np.int64), np.array([[0, 3]], np.uint8)):
        with pytest.raises(ValueError, match="unsigned"):
            build(5, offsets)
    for offsets in ([1, 3], [0, 3, 3], [0, 3, 2]):
        with pytest.raises(ValueError, match="rise strictly from 0"):
            build(5, np.array(offsets, np.uint8))
    with pytest.raises(ValueError, match="64-bit integer range"):
        build(INT64_MAX - 2, np.array([0, 3], np.uint8))
    with pytest.raises(ValueError, match="64-bit integer range"):
        build(INT64_MIN - 1, np.array([0, 3], np.uint8))


def test_no_verb_reads_per_point_ticks(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a verb read the int64 timestamps")

    monkeypatch.setattr(LabeledSeries, "timestamps", property(refuse))
    assert_verbs_write_the_golden_files(tmp_path)
