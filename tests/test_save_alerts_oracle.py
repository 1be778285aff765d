"""``save_alerts`` against the string-template writer it replaced.

``oracles/ingest_oracle.py`` keeps the old ``save_alerts``, which formats
every row from a ``%`` template. The numpy writer must produce the same
bytes for every series: timestamps on both sides of every digit-width
boundary and at the int64 limits, values all false, all true or mixed, and
chunks of a few rows. Every file it writes must also load back through the
numpy route of ``load_alerts``, never through the record-by-record one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idseval import AlertSeries, LabeledSeries, generate, ingest, load_alerts, save_alerts
from idseval.baselines import BaselineSpec
from idseval.model import AlertKind
from oracles import ingest_oracle

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# The timestamps where the printed width changes, and their neighbours.
WIDTH_EDGES = sorted(
    {0, -1, 1, INT64_MIN, INT64_MIN + 1, INT64_MAX}
    | {sign * v for k in range(1, 19) for v in (10**k - 1, 10**k) for sign in (1, -1)}
)
# json.dumps escapes '"' and '\\', and non-ASCII as \uXXXX; '%' must not
# reach a % template unescaped. A NUL or control byte is escaped too, so the
# NULs that mixed chunks drop are never part of a name.
NAMES = (
    "det", 'say "hi"', "back\\slash", "50% %d %r %%", "détecteur", "検出器", "tab\there",
    "nul\x00here", "ctl\x01\x1f",
)
SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def trace(stamps) -> LabeledSeries:
    codes = np.zeros(len(stamps), np.int32)
    return LabeledSeries("trace", np.array(stamps, dtype=np.int64), codes, ())


@st.composite
def alert_series(draw):
    """A labeled series and an aligned alert series of either kind."""
    stamps = draw(
        st.lists(
            st.one_of(
                st.sampled_from(WIDTH_EDGES),
                st.integers(-1000, 1000),
                st.integers(INT64_MIN, INT64_MAX),
            ),
            min_size=1,
            max_size=40,
            unique=True,
        )
    )
    n = len(stamps)
    series = trace(sorted(stamps))
    name = draw(st.one_of(st.sampled_from(NAMES), st.text(min_size=1, max_size=10)))
    shape = draw(st.sampled_from(["false", "true", "mixed", "scores"]))
    if shape == "scores":
        scores = draw(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
        )
        return series, AlertSeries.from_scores(name, scores, "trace")
    if shape == "mixed":
        flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        flags = [shape == "true"] * n
    return series, AlertSeries.from_bool(name, flags, "trace")


def assert_same_bytes(tmp_path, alerts, series):
    save_alerts(alerts, series, tmp_path / "new.jsonl")
    ingest_oracle.save_alerts(alerts, series, tmp_path / "old.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()


def no_record_route(*args, **kwargs):
    raise AssertionError("a block left the layout save_alerts writes")


def assert_loads_by_blocks(path, alerts, series):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_alert_records", no_record_route)
        loaded = load_alerts(path, series)
    assert loaded.detector == alerts.detector
    assert loaded.kind is alerts.kind
    if alerts.kind is AlertKind.BOOLEAN:
        assert np.array_equal(loaded.values, alerts.values)
    else:
        assert np.array_equal(loaded.values.view(np.uint64), alerts.values.view(np.uint64))


@SETTINGS
@given(case=alert_series(), rows=st.sampled_from([1, 2, 3, 1 << 14]))
def test_bytes_equal_the_template_writer(tmp_path, case, rows):
    series, alerts = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_WRITE_ROWS", rows)
        assert_same_bytes(tmp_path, alerts, series)


@pytest.mark.parametrize("rows", [1, 2, 3, 8192])
@pytest.mark.parametrize("shape", ["false", "true", "mixed"])
def test_every_width_and_sign(tmp_path, monkeypatch, rows, shape):
    """All 38 text widths of an int64 in one series, split into chunks of ``rows``."""
    monkeypatch.setattr(ingest, "_WRITE_ROWS", rows)
    series = trace(WIDTH_EDGES)
    flags = {"false": False, "true": True}.get(shape, np.arange(len(series)) % 3 == 0)
    alerts = AlertSeries.from_bool("det", np.broadcast_to(flags, len(series)), "trace")
    assert_same_bytes(tmp_path, alerts, series)
    lines = (tmp_path / "new.jsonl").read_text().splitlines()
    assert lines[0] == '{"timestamp": -9223372036854775808, "alert": %s, "detector": "det"}' % (
        "false" if shape == "false" else "true"
    )


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("kind", ["bool", "score"])
def test_names(tmp_path, monkeypatch, name, kind):
    monkeypatch.setattr(ingest, "_WRITE_ROWS", 3)
    series = trace(WIDTH_EDGES)
    if kind == "bool":
        alerts = AlertSeries.from_bool(name, np.arange(len(series)) % 2 == 0, "trace")
    else:
        alerts = AlertSeries.from_scores(name, np.linspace(-1e300, 1e-300, len(series)), "trace")
    assert_same_bytes(tmp_path, alerts, series)


def test_dense_random_baseline(tmp_path):
    """300k rows of a p=0.5 coin flip: the mixed chunk path at the default chunk size."""
    series = trace(np.arange(300_000))
    alerts = generate(BaselineSpec.parse("baseline:random:p=0.5:seed=7"), series)
    assert_same_bytes(tmp_path, alerts, series)
    assert_loads_by_blocks(tmp_path / "new.jsonl", alerts, series)


@SETTINGS
@given(
    case=alert_series(),
    rows=st.sampled_from([1, 3, 8]),
    block=st.sampled_from([64, 256, 1024]),
)
def test_written_files_load_by_blocks(tmp_path, case, rows, block):
    """Every file save_alerts writes parses in numpy, with write chunks of
    fewer and more bytes than a read block."""
    series, alerts = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_WRITE_ROWS", rows)
        patch.setattr(ingest, "_BLOCK_BYTES", block)
        save_alerts(alerts, series, tmp_path / "det.jsonl")
        assert_loads_by_blocks(tmp_path / "det.jsonl", alerts, series)
