"""Block-parsed loaders against the line-by-line reference loaders.

``oracles/ingest_oracle.py`` keeps the loaders idseval began with. For every
generated file (canonical, valid but written another way, or broken) both
must return the same series or raise an ``IngestError`` with the same
message. Where the reference crashes with another exception (bytes that are
not UTF-8, numbers out of range), the block loaders must raise an
``IngestError`` instead. The block size is shrunk so that small files span
many blocks, mixing blocks in ``save_*`` layout with blocks that are not.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idseval import AlertSeries, IngestError, LabeledSeries, ingest, save_alerts, save_labels
from idseval.model import AlertKind
from oracles import ingest_oracle

LABELS = ("benign", "0", "dos", "spoof", "replay", "scan x")
# Tokens numpy's bytes-to-float cast takes but JSON does not, plus numbers
# past float64 and tokens with leading zeros.
BAD_NUMBERS = ("1.", ".5", "nan", "inf", "+1", "1_0", "NaN", "Infinity", "-Infinity",
               "01", "-01", "1e400", "1" + "0" * 400)
ISO_MIN, ISO_MAX = -62135596800, 253402300799  # datetime's range in epoch seconds
SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.fixture(params=[16, 200])
def small_blocks(request, monkeypatch):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", request.param)


def series_summary(series: LabeledSeries):
    return (
        series.name,
        series.timestamps.tolist(),
        series.label_codes.tolist(),
        series.attack_types,
        series.tick_seconds,
    )


def alerts_summary(alerts: AlertSeries):
    values = alerts.values
    bits = values.tolist() if alerts.kind is AlertKind.BOOLEAN else values.view(np.uint64).tolist()
    return alerts.detector, alerts.kind, bits, alerts.aligned_to


def outcome(load, summary, *args):
    try:
        return "ok", summary(load(*args))
    except IngestError as exc:
        return "error", str(exc)


def assert_same(tmp_path, payload: bytes, name: str, load_args=()):
    path = tmp_path / name
    path.write_bytes(payload)
    if name.endswith(".csv"):
        fast, slow, summary = ingest.load_labels, ingest_oracle.load_labels, series_summary
    else:
        fast, slow, summary = ingest.load_alerts, ingest_oracle.load_alerts, alerts_summary
    try:
        expected = outcome(slow, summary, path, *load_args)
    except (UnicodeDecodeError, OverflowError, ValueError, csv.Error):
        # The reference crashes here; the block loader reports the line instead.
        assert outcome(fast, summary, path, *load_args)[0] == "error"
        return
    assert outcome(fast, summary, path, *load_args) == expected


@st.composite
def timelines(draw, max_size=30):
    """Strictly increasing int64 timestamps, sometimes near the int64 limits."""
    n = draw(st.integers(1, max_size))
    steps = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
    span = sum(steps)
    start = draw(
        st.one_of(
            st.integers(-(10**6), 10**6),
            st.integers(-(2**63), -(2**63) + 10),
            st.integers(2**63 - 1 - span - 10, 2**63 - 1 - span),
        )
    )
    out, t = [], start
    for step in steps:
        out.append(t)
        t += step
    return out


def iso(t: int) -> str:
    return datetime.fromtimestamp(t, timezone.utc).isoformat()


def render_label(t: int, label: str, style: str) -> str:
    if style == "padded":
        return f" {t} , {label} \n"
    if style == "quoted":
        return f'"{t}","{label}"\n'
    if style == "crlf":
        return f"{t},{label}\r\n"
    if style == "blank":
        return f"\n{t},{label}\n"
    if style == "iso" and ISO_MIN <= t <= ISO_MAX:
        return f"{iso(t)},{label}\n"
    if style == "plus":
        return f"+{t},{label}\n" if t >= 0 else f"{t},{label}\n"
    if style == "zeros":
        return f"{'-' if t < 0 else ''}00{abs(t)},{label}\n"
    return f"{t},{label}\n"


LABEL_STYLES = ("canonical", "padded", "quoted", "crlf", "blank", "iso", "plus", "zeros")


@st.composite
def label_files(draw):
    timestamps = draw(timelines())
    n = len(timestamps)
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    styles = draw(
        st.lists(
            st.sampled_from(LABEL_STYLES) if draw(st.booleans()) else st.just("canonical"),
            min_size=n,
            max_size=n,
        )
    )
    body = "".join(render_label(t, l, s) for t, l, s in zip(timestamps, labels, styles))
    return ("timestamp,label\n" + body).encode("utf-8")


def render_alert(t: int, value, detector, style: str) -> str:
    key = "alert" if isinstance(value, bool) else "score"
    record = {"timestamp": t, key: value}
    if detector is not None:
        record["detector"] = detector
    if style == "compact":
        return json.dumps(record, separators=(",", ":")) + "\n"
    if style == "reordered":
        return json.dumps(dict(reversed(record.items()))) + "\n"
    if style == "iso" and ISO_MIN <= t <= ISO_MAX:
        record["timestamp"] = iso(t)
    if style == "int-score" and key == "score":
        record[key] = int(value)
    if style == "crlf":
        return json.dumps(record) + "\r\n"
    if style == "blank":
        return "\n" + json.dumps(record) + "\n  \n"
    if style == "unicode":
        return json.dumps(record, ensure_ascii=False) + "\n"
    return json.dumps(record) + "\n"


ALERT_STYLES = ("canonical", "compact", "reordered", "iso", "int-score", "crlf", "blank", "unicode")
DETECTORS = (None, "det", "détecteur", 'q"uo\\te', "%d %s")


@st.composite
def alert_files(draw):
    timestamps = draw(timelines())
    n = len(timestamps)
    series = LabeledSeries("plant", timestamps, [0] * n, ())
    if draw(st.booleans()):
        values = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        number = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-(10**20), 10**20).map(float),
        )
        values = draw(st.lists(number, min_size=n, max_size=n))
    detector = draw(st.sampled_from(DETECTORS))
    styles = draw(
        st.lists(
            st.sampled_from(ALERT_STYLES) if draw(st.booleans()) else st.just("canonical"),
            min_size=n,
            max_size=n,
        )
    )
    lines = [render_alert(t, v, detector, s) for t, v, s in zip(timestamps, values, styles)]
    return series, lines


def mutate_lines(draw, lines: list[str]) -> list[str]:
    """One semantic mutation of an alert file's lines."""
    i = draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[i])
    kind = draw(
        st.sampled_from(["duplicate", "decrease", "mix", "detector", "leading-zero", "token"])
    )
    if kind in ("duplicate", "decrease") and i > 0:
        previous = json.loads(lines[i - 1])["timestamp"]
        if isinstance(previous, int):
            record["timestamp"] = previous - (kind == "decrease")
    elif kind == "mix":
        record.pop("alert", None)
        record.pop("score", None)
        record[draw(st.sampled_from(["alert", "score"]))] = True if draw(st.booleans()) else 0.5
    elif kind == "detector":
        record["detector"] = draw(st.sampled_from(["other", "", 7]))
    else:
        if kind == "leading-zero":
            key, token = "timestamp", f"0{i}"
        else:
            key = "score" if "score" in record else "timestamp"
            token = draw(st.sampled_from(BAD_NUMBERS))
        record[key] = "@@"
        lines[i] = json.dumps(record).replace('"@@"', token) + "\n"
        return lines
    lines[i] = json.dumps(record) + "\n"
    return lines


def mutate_bytes(draw, payload: bytes) -> bytes:
    """A flipped byte or a truncated last line."""
    if draw(st.booleans()):
        at = draw(st.integers(0, len(payload) - 1))
        byte = draw(st.sampled_from([0x00, 0x0D, 0x0A, 0x22, 0x2C, 0x2D, 0x30, 0x7B, 0x80, 0xFF]))
        return payload[:at] + bytes([byte]) + payload[at + 1 :]
    last = payload.rstrip(b"\n").rfind(b"\n") + 1
    return payload[: draw(st.integers(last, len(payload) - 1))]


class TestLabelsMatchReference:
    @SETTINGS
    @given(payload=label_files())
    def test_valid_files(self, tmp_path, small_blocks, payload):
        assert_same(tmp_path, payload, "labels.csv")

    @SETTINGS
    @given(payload=label_files(), data=st.data())
    def test_broken_bytes(self, tmp_path, small_blocks, payload, data):
        assert_same(tmp_path, mutate_bytes(data.draw, payload), "labels.csv")

    @SETTINGS
    @given(timestamps=timelines(), data=st.data())
    def test_broken_rows(self, tmp_path, small_blocks, timestamps, data):
        rows = [f"{t},dos" for t in timestamps]
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = data.draw(
            st.sampled_from(
                [
                    f"{timestamps[i - 1] if i else 5},dos",  # duplicate
                    f"{timestamps[i] - 2**40},dos",  # decreasing or out of range
                    f"{2**70},dos",
                    f"{timestamps[i]},",
                    f"{timestamps[i]},a,b",
                    f"{timestamps[i]}.5,dos",
                    f"{timestamps[i]}, ",
                ]
            )
        )
        payload = ("timestamp,label\n" + "\n".join(rows) + "\n").encode()
        assert_same(tmp_path, payload, "labels.csv")

    @pytest.mark.parametrize("text", ["", "\n", "timestamp,label\n", "time,label\n0,x\n",
                                      "timestamp,label", " timestamp , label \r\n0,dos\r\n"])
    def test_headers_and_empty_files(self, tmp_path, text):
        assert_same(tmp_path, text.encode(), "labels.csv")


class TestAlertsMatchReference:
    @SETTINGS
    @given(case=alert_files())
    def test_valid_files(self, tmp_path, small_blocks, case):
        series, lines = case
        assert_same(tmp_path, "".join(lines).encode(), "det.jsonl", (series,))

    @SETTINGS
    @given(case=alert_files(), data=st.data())
    def test_broken_records(self, tmp_path, small_blocks, case, data):
        series, lines = case
        lines = [line for line in lines if line.strip()]
        payload = "".join(mutate_lines(data.draw, lines)).encode()
        assert_same(tmp_path, payload, "det.jsonl", (series,))

    @SETTINGS
    @given(case=alert_files(), data=st.data())
    def test_broken_bytes(self, tmp_path, small_blocks, case, data):
        series, lines = case
        payload = mutate_bytes(data.draw, "".join(lines).encode())
        assert_same(tmp_path, payload, "det.jsonl", (series,))


@pytest.mark.parametrize("kind", ["bool", "score"])
def test_canonical_files_across_real_blocks(tmp_path, kind):
    """Files written by save_* that span several default-size blocks."""
    rng = np.random.default_rng(11)
    n = 100_000
    codes = np.where(rng.random(n) < 0.1, rng.integers(1, 4, n), 0)
    series = LabeledSeries("plant", np.cumsum(rng.integers(1, 5, n)), codes, ("a", "b", "c"))
    save_labels(series, tmp_path / "plant.csv")
    assert (tmp_path / "plant.csv").stat().st_size > ingest._BLOCK_BYTES
    assert_same(tmp_path, (tmp_path / "plant.csv").read_bytes(), "plant.csv")
    if kind == "bool":
        alerts = AlertSeries.from_bool("det", rng.random(n) < 0.3, "plant")
    else:
        scores = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
        alerts = AlertSeries.from_scores("det", scores, "plant")
    save_alerts(alerts, series, tmp_path / "det.jsonl")
    assert (tmp_path / "det.jsonl").stat().st_size > 2 * ingest._BLOCK_BYTES
    assert_same(tmp_path, (tmp_path / "det.jsonl").read_bytes(), "det.jsonl", (series,))
