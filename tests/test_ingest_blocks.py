"""The read buffer, word-at-a-time integers and scores, and run-coded labels of ``ingest``.

Blocks come from one reused buffer, so these tests check what crosses a
refill: lines split between two reads, lines longer than the whole buffer,
label runs that continue into the next block, and results that must not
change (or share memory with the buffer) when the next file is read. Files
in the ``save_*`` layout must take the numpy route; where they leave it, the
result must still equal the line-by-line reference loaders'.
"""

from __future__ import annotations

import csv
import io
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idseval import AlertKind, AlertSeries, IngestError, LabeledSeries, ingest, model
from idseval import save_alerts, save_labels
from oracles import ingest_oracle

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def block_ints(tokens: list[bytes]) -> list[int] | None:
    """``_block_ints`` over one block holding one token per line."""
    payload = b"".join(token + b"\n" for token in tokens)
    buf, lo, hi = next(ingest._read_blocks(io.BytesIO(payload)))
    starts, ends = ingest._line_bounds(buf, lo, hi)
    values = ingest._block_ints(buf, starts, ends)
    return None if values is None else values.tolist()


def digits(rng: random.Random, n: int) -> bytes:
    return (str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(n - 1))).encode()


class TestWordIntegers:
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 18, 19])
    def test_widths(self, width):
        rng = random.Random(width)
        tokens = [digits(rng, width) for _ in range(50)]
        tokens = [t if int(t) <= INT64_MAX else b"9" * 18 for t in tokens]
        tokens += [b"-" + t for t in tokens]
        assert block_ints(tokens) == [int(t) for t in tokens]

    def test_mixed_widths_in_one_block(self):
        tokens = [b"5", b"-12345678", b"123456789", b"0", b"-0", b"1234567890123456789"]
        assert block_ints(tokens) == [int(t) for t in tokens]

    def test_int64_extremes(self):
        tokens = [str(INT64_MIN).encode(), str(INT64_MAX).encode()]
        assert block_ints(tokens) == [INT64_MIN, INT64_MAX]

    @pytest.mark.parametrize(
        "token",
        [str(INT64_MAX + 1), str(INT64_MIN - 1), "9" * 19, "-" + "9" * 19, "1" + "0" * 19],
    )
    def test_one_past_the_range_is_refused(self, token):
        assert block_ints([b"1", token.encode()]) is None

    @pytest.mark.parametrize("token", ["01", "-01", "00", "0123456789", "-", "", "+1"])
    def test_malformed_tokens_are_refused(self, token):
        assert block_ints([b"1", token.encode()]) is None

    @pytest.mark.parametrize("width", [8, 16, 19])
    @pytest.mark.parametrize("bad", [b"/", b":", b" ", b"a", b"\x00", b"\x80", b"\xff", b"-"])
    def test_a_non_digit_at_every_byte_is_refused(self, width, bad):
        token = digits(random.Random(0), width)
        for at in range(1, width):  # position 0 would be a sign or a leading digit
            broken = token[:at] + bad + token[at + 1 :]
            assert block_ints([b"7", broken]) is None, broken

    def test_first_line_reads_into_the_front_pad(self):
        # The first token of a file starts at the buffer's front, so its
        # words reach before it.
        assert block_ints([b"1234567890123456789", b"2"]) == [1234567890123456789, 2]


def block_floats(tokens: list[bytes]) -> list[int] | None:
    """The bit patterns ``_block_floats`` reads from one block holding one token per line."""
    payload = b"".join(token + b"\n" for token in tokens)
    buf, lo, hi = next(ingest._read_blocks(io.BytesIO(payload)))
    starts, ends = ingest._line_bounds(buf, lo, hi)
    values = ingest._block_floats(buf, starts, ends)
    return None if values is None else values.view(np.uint64).tolist()


def json_bits(tokens: list[bytes]) -> list[int]:
    return np.array([float(json.loads(t)) for t in tokens]).view(np.uint64).tolist()


class TestWordScores:
    """Score tokens of up to 16 digits, read by word as ``D / 10**k``, against ``json``."""

    def test_reprs(self):
        rng = np.random.default_rng(7)
        n = 10000  # 40k tokens, one block
        values = np.concatenate([
            rng.random(n),
            np.round(rng.random(n), 6),
            -rng.random(n) * 10.0 ** rng.integers(-7, 18, n),
            rng.integers(0, 10**6, n) / rng.integers(1, 10**6, n),
        ])
        tokens = [repr(v).encode() for v in values.tolist()]
        assert block_floats(tokens) == json_bits(tokens)

    @pytest.mark.parametrize("count", range(1, 20))
    def test_every_digit_count_and_point_position(self, count):
        rng = random.Random(count)
        tokens = []
        for _ in range(40):
            text = digits(rng, count).decode()
            cut = rng.randint(0, count)
            token = text if cut == count else (text[:cut] or "0") + "." + text[cut:]
            tokens.append((rng.choice(["", "-"]) + token).encode())
        assert block_floats(tokens) == json_bits(tokens)

    @pytest.mark.parametrize(
        "token",
        ["9007199254740992", "9007199254740993", "-9007199254740993", "900719925474099.3",
         "0.000123", "0.0000000000000001", "1e5", "1.5E-3", "-0", "-0.0", "0", "0.0",
         "12345678901234567890"],
    )
    def test_edges(self, token):
        tokens = [b"0.5", token.encode(), b"2"]
        assert block_floats(tokens) == json_bits(tokens)

    @pytest.mark.parametrize("token", ["1.", ".5", "01.5", "-", "1.2.3", "0x1", "1,5", "- 1", "1e"])
    def test_malformed_tokens_are_refused(self, token):
        assert block_floats([b"0.5", token.encode()]) is None


class TestJsonScores:
    """Score tokens the word path leaves are read by ``json`` in one array, or
    refused, so that their block takes the record route."""

    @pytest.mark.parametrize(
        "token",
        ["NaN", "Infinity", "-Infinity", "true", "null", " 1", "1 ", "+1", "1_0", "1e+", "0x1",
         "1e400", "9" * 400, "9" * 5000],
    )
    def test_refused(self, token):
        assert block_floats([b"0.5", token.encode(), b"1e5"]) is None

    def test_reprs_with_exponents(self):
        rng = np.random.default_rng(11)
        values = rng.random(5000) * 10.0 ** rng.integers(-320, 300, 5000)
        tokens = [repr(v).encode() for v in values.tolist()]
        # 17 significant digits and a two- or three-digit exponent: 19-23 digits.
        assert sum(b"e" in t and len(t) >= 22 for t in tokens) > 1000
        assert block_floats(tokens) == json_bits(tokens)

    @pytest.mark.parametrize(
        "token",
        ["1e-400", "-1e-400", "1" * 40, "0." + "3" * 40, "12345678901234567890123456789.5e-7",
         "1.7976931348623157e308", "5e-324", "-0e0", "9007199254740993e0"],
    )
    def test_edges(self, token):
        tokens = [b"0.5", token.encode(), b"2"]
        assert block_floats(tokens) == json_bits(tokens)

    def test_a_line_without_its_score(self, tmp_path, plant):
        # The line passes the length check, and its first comma is the
        # detector's, so no score token lies between the keys: the block must
        # leave the numpy route before any token is read.
        lines = alert_lines("score", canonical_rows("score"))
        lines[1] = '{"timestamp": 123456789012345, "detector": "d"}\n'
        path = tmp_path / "det.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        expected = alert_outcome(ingest_oracle.load_alerts, path, plant)
        message = "line 2: each record needs exactly one of 'alert' or 'score'"
        assert expected == ("error", f"{path}: {message}")
        assert alert_outcome(ingest.load_alerts, path, plant) == expected

    def test_full_precision_file_takes_the_numpy_route(self, tmp_path, slow_routes):
        n = 20_000
        series = LabeledSeries("plant", np.arange(n), np.zeros(n, np.int32), ())
        rng = np.random.default_rng(5)
        scores = rng.random(n)
        scores[::7] *= 1e-5  # reprs with exponents
        path = tmp_path / "d.jsonl"
        save_alerts(AlertSeries.from_scores("d", scores, "plant"), series, path)
        loaded = ingest.load_alerts(path, series)
        assert slow_routes["alerts"] == 0
        assert loaded.values.view(np.uint64).tolist() == scores.view(np.uint64).tolist()


def label_file(rows) -> bytes:
    return ("timestamp,label\n" + "".join(f"{t},{label}\n" for t, label in rows)).encode()


@pytest.fixture
def slow_routes(monkeypatch):
    """Counts the blocks that leave the numpy route, per file kind."""
    calls = {"labels": 0, "alerts": 0}

    def counted(kind, function):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ingest, "_label_rows", counted("labels", ingest._label_rows))
    monkeypatch.setattr(ingest, "_alert_records", counted("alerts", ingest._alert_records))
    return calls


def assert_labels_match(path):
    fast = ingest.load_labels(path)
    slow = ingest_oracle.load_labels(path)
    assert fast == slow
    return fast


class TestReadBuffer:
    @pytest.mark.parametrize("block", [16, 40, 64, 1000])
    def test_lines_straddle_every_refill(self, tmp_path, monkeypatch, slow_routes, block):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
        rng = random.Random(block)
        t, rows = -(10**12), []
        for _ in range(300):
            t += rng.randint(1, 10**9)
            rows.append((t, rng.choice(["benign", "dos", "a-much-longer-attack-name"])))
        path = tmp_path / "labels.csv"
        path.write_bytes(label_file(rows))
        assert_labels_match(path)
        # A line longer than the buffer grows it, and every block stays in layout.
        assert slow_routes["labels"] == 0

    def test_a_line_longer_than_the_buffer(self, tmp_path, monkeypatch, slow_routes):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 32)
        series = LabeledSeries("plant", np.arange(5) * 10**17, [0, 1, 1, 0, 0], ("dos",))
        alerts = AlertSeries.from_scores("d" * 200, [0.5, -1e300, 3.0, 0.0, 2.5], "plant")
        save_alerts(alerts, series, tmp_path / "det.jsonl")
        loaded = ingest.load_alerts(tmp_path / "det.jsonl", series)
        assert loaded == ingest_oracle.load_alerts(tmp_path / "det.jsonl", series)
        assert loaded.detector == "d" * 200
        assert slow_routes["alerts"] == 0

    def test_a_line_straddling_a_default_size_refill(self, tmp_path, slow_routes):
        line = b"1234567,benign\n"
        rows = ingest._BLOCK_BYTES // len(line) + 10
        payload = b"timestamp,label\n" + b"".join(b"%d,benign\n" % (10**6 + i) for i in range(rows))
        assert len(payload) > ingest._BLOCK_BYTES
        (tmp_path / "labels.csv").write_bytes(payload)
        series = assert_labels_match(tmp_path / "labels.csv")
        assert len(series) == rows
        assert slow_routes["labels"] == 0

    def test_results_outlive_the_buffer(self, tmp_path, monkeypatch):
        buffers = []
        read_blocks = ingest._read_blocks

        def recording(handle):
            for buf, lo, hi in read_blocks(handle):
                buffers.append(buf)
                yield buf, lo, hi

        monkeypatch.setattr(ingest, "_read_blocks", recording)
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
        first = LabeledSeries("a", np.arange(40) * 3, np.arange(40) % 3, ("x", "y"))
        second = LabeledSeries("b", np.arange(40) * 5 + 1, (np.arange(40) // 7) % 2, ("z",))
        save_labels(first, tmp_path / "a.csv")
        save_labels(second, tmp_path / "b.csv")
        save_alerts(
            AlertSeries.from_bool("d", np.arange(40) % 2 == 0, "a"), first, tmp_path / "d.jsonl"
        )
        loaded = ingest.load_labels(tmp_path / "a.csv", name="a")
        alerts = ingest.load_alerts(tmp_path / "d.jsonl", loaded)
        before = (loaded.timestamps.copy(), loaded.label_codes.copy(), alerts.values.copy())
        assert ingest.load_labels(tmp_path / "b.csv", name="b") == second
        assert loaded == first
        assert np.array_equal(loaded.timestamps, before[0])
        assert np.array_equal(loaded.label_codes, before[1])
        assert np.array_equal(alerts.values, before[2])
        arrays = (loaded.timestamps, loaded.label_codes, alerts.values)
        assert not any(np.shares_memory(a, buf) for a in arrays for buf in buffers)


class TestLabelRuns:
    @pytest.mark.parametrize("block", [16, 64, 1 << 20])
    def test_runs_changing_on_every_row(self, tmp_path, monkeypatch, slow_routes, block):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
        names = ["benign", "dos", "0", "spoof", "dos2", "benign"]
        rows = [(i, names[i % len(names)]) for i in range(500)]
        (tmp_path / "labels.csv").write_bytes(label_file(rows))
        series = assert_labels_match(tmp_path / "labels.csv")
        assert series.attack_types == ("dos", "spoof", "dos2")
        assert slow_routes["labels"] == 0

    def test_runs_continue_across_a_refill(self, tmp_path, monkeypatch, slow_routes):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 48)
        rows = [(i, "benign" if i < 7 else "replay" if i < 30 else "scan") for i in range(60)]
        (tmp_path / "labels.csv").write_bytes(label_file(rows))
        series = assert_labels_match(tmp_path / "labels.csv")
        assert series.label_codes.tolist() == [0] * 7 + [1] * 23 + [2] * 30
        assert slow_routes["labels"] == 0

    @pytest.mark.parametrize("width", [1, 8, 9, 16, 17, 63, 64])
    def test_label_widths_on_the_numpy_route(self, tmp_path, slow_routes, width):
        rng = random.Random(width)
        names = ["".join(rng.choice("abcxyz-_.") for _ in range(width)) for _ in range(3)]
        # Labels equal up to their last byte, and labels that are prefixes of others.
        names += [names[0][:-1] + "!", names[0][: width // 2] or "q"]
        rows = [(i, rng.choice(names)) for i in range(200)]
        (tmp_path / "labels.csv").write_bytes(label_file(rows))
        assert_labels_match(tmp_path / "labels.csv")
        assert slow_routes["labels"] == 0

    def test_non_ascii_labels(self, tmp_path, slow_routes):
        rows = [(i, ["déjà", "μ", "benign", "déjà vu"][i // 3 % 4]) for i in range(40)]
        (tmp_path / "labels.csv").write_bytes(label_file(rows))
        assert_labels_match(tmp_path / "labels.csv")
        assert slow_routes["labels"] == 0

    @pytest.mark.parametrize("piece", [8, 40, 100, 1000])
    def test_pieces_cut_inside_a_block(self, tmp_path, monkeypatch, slow_routes, piece):
        # A piece smaller than a line has no newline to cut at, so the rest
        # of its block is one piece.
        monkeypatch.setattr(ingest, "_PIECE_BYTES", piece)
        rng = random.Random(piece)
        names = ["benign"] * 5 + ["dos", "a-much-longer-attack-name"]
        rows, t, label = [], 0, "benign"
        for _ in range(3000):
            t += rng.randint(1, 10 ** rng.randint(1, 12))
            if rng.random() < 0.1:
                label = rng.choice(names)
            rows.append((t, label))
        (tmp_path / "labels.csv").write_bytes(label_file(rows))
        with open(tmp_path / "labels.csv", "rb") as handle:
            buf, lo, hi = next(ingest._read_blocks(handle))
            cuts = list(ingest._pieces(buf, lo, hi))
        # The pieces tile the block, and each but the last is whole lines
        # within the piece size.
        assert [start for start, _ in cuts] == [lo] + [stop for _, stop in cuts[:-1]]
        assert cuts[-1][1] == hi
        for start, stop in cuts[:-1]:
            assert stop - start <= piece and buf[stop - 1] == ord("\n")
        assert len(cuts) > 1 if piece >= 40 else len(cuts) == 1
        assert_labels_match(tmp_path / "labels.csv")
        assert slow_routes["labels"] == 0

    @pytest.mark.parametrize("long_first", [True, False])
    def test_the_column_fits_the_file_whatever_the_first_piece(
        self, tmp_path, monkeypatch, slow_routes, long_first
    ):
        # The column is sized from the first piece's bytes per line: long
        # lines first make it too short, so it grows; short lines first make
        # it too long, so it is cut at the end.
        monkeypatch.setattr(ingest, "_PIECE_BYTES", 256)
        labels = ["x" * 60] * 40 + ["dos"] * 2000
        rows = list(enumerate(labels if long_first else labels[::-1]))
        (tmp_path / "labels.csv").write_bytes(label_file(rows))
        series = assert_labels_match(tmp_path / "labels.csv")
        assert series.timestamps.flags.owndata
        assert slow_routes["labels"] == 0

    @pytest.mark.parametrize("at", [0, 37, 150, 2999])
    def test_a_piece_out_of_the_layout_sends_the_rest_of_its_block_to_csv(
        self, tmp_path, monkeypatch, slow_routes, at
    ):
        # A quoted label holding a newline: the piece that holds its first
        # line ends inside the quotes, so csv must read on past that piece.
        monkeypatch.setattr(ingest, "_PIECE_BYTES", 64)
        rows = [(i, "dos" if i // 9 % 2 else "benign") for i in range(3000)]
        rows[at] = (at, '"multi\nline, quoted"')
        (tmp_path / "labels.csv").write_bytes(label_file(rows))
        series = assert_labels_match(tmp_path / "labels.csv")
        assert "multi\nline, quoted" in series.attack_types
        assert slow_routes["labels"] == 1

    def test_a_65_byte_label_takes_the_csv_route(self, tmp_path, slow_routes):
        rows = [(0, "benign"), (1, "x" * 65), (2, "x" * 65), (3, "dos")]
        (tmp_path / "labels.csv").write_bytes(label_file(rows))
        series = assert_labels_match(tmp_path / "labels.csv")
        assert series.attack_types == ("x" * 65, "dos")
        assert slow_routes["labels"] == 1


class TestLineNumbers:
    def test_labels_order_error_counts_blank_lines(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("timestamp,label\n0,a\n\n\n0,b\n", encoding="utf-8")
        with pytest.raises(IngestError, match="line 5: duplicate timestamp 0"):
            ingest.load_labels(path)

    def test_labels_range_error_counts_blank_lines(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(f"timestamp,label\n0,a\n\n{2**70},b\n", encoding="utf-8")
        with pytest.raises(IngestError, match="line 4: timestamp .* outside the 64-bit"):
            ingest.load_labels(path)

    def test_order_error_after_fast_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 32)
        lines = [f"{t},dos" for t in range(20)] + ["", "", "5,dos"]
        (tmp_path / "labels.csv").write_text(
            "timestamp,label\n" + "\n".join(lines) + "\n", encoding="utf-8"
        )
        with pytest.raises(IngestError, match="line 24: non-increasing timestamp 5"):
            ingest.load_labels(tmp_path / "labels.csv")

    def test_alerts_order_error_counts_blank_lines(self, tmp_path):
        series = LabeledSeries("plant", [0, 1, 2], [0, 0, 0], ())
        path = tmp_path / "det.jsonl"
        path.write_text(
            '{"timestamp": 0, "alert": true}\n\n  \n{"timestamp": 0, "alert": false}\n',
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match="line 4: duplicate timestamp 0"):
            ingest.load_alerts(path, series)


def csv_writer_bytes(series: LabeledSeries) -> bytes:
    """``save_labels`` as first written: ``csv.writer``, one row at a time."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("timestamp", "label"))
    for ts, label in zip(series.timestamps, series.labels_as_strings()):
        writer.writerow((int(ts), label))
    return out.getvalue().encode("utf-8")


AWKWARD = ("a,b", 'say "hi"', "x\ry", "l\nm", " lead", "trail ", "déjà", "%d", "'")


class TestSaveLabels:
    def test_golden_bytes(self, tmp_path):
        series = LabeledSeries(
            "plant", [-5, 0, 7, 2**63 - 1], [0, 1, 2, 3], ("a,b", 'say "hi"', "l\nm")
        )
        save_labels(series, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == (
            b"timestamp,label\n"
            b"-5,benign\n"
            b'0,"a,b"\n'
            b'7,"say ""hi"""\n'
            b'9223372036854775807,"l\nm"\n'
        )

    @settings(max_examples=100, deadline=None)
    @given(
        types=st.lists(
            st.text(min_size=1) | st.sampled_from(AWKWARD), max_size=6, unique=True
        ).filter(lambda types: "benign" not in types),
        data=st.data(),
    )
    def test_bytes_equal_csv_writer(self, tmp_path_factory, types, data):
        n = data.draw(st.integers(1, 40))
        codes = data.draw(st.lists(st.integers(0, len(types)), min_size=n, max_size=n))
        start = data.draw(st.integers(INT64_MIN, INT64_MAX - n))
        series = LabeledSeries("s", start + np.arange(n), codes, tuple(types))
        path = tmp_path_factory.mktemp("save") / "labels.csv"
        save_labels(series, path)
        assert path.read_bytes() == csv_writer_bytes(series)

    def test_chunked_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_WRITE_ROWS", 3)
        series = LabeledSeries("s", np.arange(10), np.arange(10) % 3, AWKWARD[:2])
        save_labels(series, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == csv_writer_bytes(series)


class TestZeroScores:
    """``json`` reads the token ``-0`` as the integer 0, so as +0.0, and
    ``-0.0``/``-0e0`` as -0.0; the numpy route must read each the same way."""

    CANONICAL = '{"timestamp": %d, "score": %s, "detector": "d"}\n'
    COMPACT = '{"timestamp":%d,"score":%s,"detector":"d"}\n'

    def write(self, path, layout, token):
        scores = (token, "0.5", "1")
        path.write_text("".join(layout % (t, s) for t, s in enumerate(scores)), encoding="utf-8")
        return path

    @pytest.mark.parametrize("token", ["-0", "-0.0", "-0e0", "-0E-0", "0", "0e0", "-1", "-9"])
    def test_both_layouts_load_the_same_bits(self, tmp_path, slow_routes, token):
        series = LabeledSeries.from_labels("plant", [0, 1, 2], ["benign", "dos", "benign"])
        loaded = {}
        for layout, numpy_route in ((self.CANONICAL, True), (self.COMPACT, False)):
            path = self.write(tmp_path / f"{numpy_route}.jsonl", layout, token)
            before = slow_routes["alerts"]
            loaded[numpy_route] = ingest.load_alerts(path, series)
            assert (slow_routes["alerts"] == before) is numpy_route
            reference = ingest_oracle.load_alerts(path, series)
            assert loaded[numpy_route].values.view(np.uint64).tolist() == (
                reference.values.view(np.uint64).tolist()
            )
        bits = [loaded[r].values.view(np.uint64).tolist() for r in (True, False)]
        assert bits[0] == bits[1]
        assert np.signbit(loaded[True].values[0]) == (token != "-0" and token.startswith("-"))

    def test_roc_csv_is_the_same_for_both_layouts(self, tmp_path, capsys):
        from idseval.cli import main

        labels = tmp_path / "labels.csv"
        labels.write_text("timestamp,label\n0,benign\n1,dos\n2,benign\n", encoding="utf-8")
        texts = []
        for layout in (self.CANONICAL, self.COMPACT):
            alerts = self.write(tmp_path / "scores.jsonl", layout, "-0")
            out = tmp_path / f"run{len(texts)}"
            argv = ["roc", "--labels", str(labels), "--alerts", str(alerts), "--auto",
                    "--out", str(out)]
            assert main(argv) == 0
            texts.append((out / "roc.csv").read_text(encoding="utf-8"))
        capsys.readouterr()
        assert texts[0] == texts[1]
        assert "\n0.0," in texts[0] and "-0.0" not in texts[0]



N_POINTS = 30
PAST_INT64 = 2**63
OTHER_KIND = {"alert": ("score", 0.5), "score": ("alert", True)}


def alert_lines(key, rows, detector="d", compact=False) -> list[str]:
    """``(timestamp, value)`` rows as JSON lines; the default layout is ``save_alerts``'s."""
    separators = (",", ":") if compact else None
    return [
        json.dumps({"timestamp": t, key: v, "detector": detector}, separators=separators) + "\n"
        for t, v in rows
    ]


def retimed(rows, k, t):
    return rows[:k] + [(t, rows[k][1])] + rows[k + 1 :]


def _kind_switch(key, rows, k, rest):
    """Rows from ``k`` (only row ``k`` unless ``rest``) with the other kind of value."""
    end = len(rows) if rest else k + 1
    other_key, other_value = OTHER_KIND[key]
    switched = alert_lines(other_key, [(t, other_value) for t, _ in rows[k:end]])
    return alert_lines(key, rows[:k]) + switched + alert_lines(key, rows[end:])


def _json_route_line(key, rows, k):
    """Row ``k`` in compact JSON, so that its block leaves the numpy route."""
    return (
        alert_lines(key, rows[:k])
        + alert_lines(key, rows[k : k + 1], compact=True)
        + alert_lines(key, rows[k + 1 :])
    )


# Each makes the lines of a file from the canonical rows and a record index
# k, or returns None where k does not apply.
MUTATIONS = {
    "shifted": lambda key, rows, k: alert_lines(key, retimed(rows, k, rows[k][0] + 5)),
    "extra record inside": lambda key, rows, k: alert_lines(
        key, rows[: k + 1] + [(rows[k][0] + 5, rows[k][1])] + rows[k + 1 :]
    ),
    "extra records at the end": lambda key, rows, k: alert_lines(
        key, rows + [(rows[-1][0] + 10 * (j + 1), rows[j][1]) for j in range(k % 3 + 1)]
    ),
    "missing record": lambda key, rows, k: alert_lines(key, rows[:k] + rows[k + 1 :]),
    "truncated": lambda key, rows, k: alert_lines(key, rows[:k]),
    "duplicate": lambda key, rows, k: (
        alert_lines(key, retimed(rows, k, rows[k - 1][0])) if k else None
    ),
    "decreasing": lambda key, rows, k: (
        alert_lines(key, retimed(rows, k, rows[k - 1][0] - 3)) if k else None
    ),
    "duplicate after blank lines": lambda key, rows, k: (
        alert_lines(key, rows[:k]) + ["\n", "  \n"]
        + alert_lines(key, retimed(rows, k, rows[k - 1][0])[k:])
        if k else None
    ),
    "order error after a timestamp past int64": lambda key, rows, k: (
        alert_lines(key, retimed(rows, k, PAST_INT64)) if k < len(rows) - 1 else None
    ),
    "kind switch on one line": lambda key, rows, k: _kind_switch(key, rows, k, rest=False),
    "kind switch for the rest": lambda key, rows, k: _kind_switch(key, rows, k, rest=True),
    "detector conflict on one line": lambda key, rows, k: (
        alert_lines(key, rows[:k])
        + alert_lines(key, rows[k : k + 1], detector="e")
        + alert_lines(key, rows[k + 1 :])
    ),
    "detector conflict for the rest": lambda key, rows, k: (
        alert_lines(key, rows[:k]) + alert_lines(key, rows[k:], detector="e")
    ),
    "json-route line": _json_route_line,
    "json-route line, shifted": lambda key, rows, k: _json_route_line(
        key, retimed(rows, k, rows[k][0] + 5), k
    ),
    "json-route line, last record shifted": lambda key, rows, k: _json_route_line(
        key, retimed(rows, len(rows) - 1, rows[-1][0] + 5), k
    ),
}


def alert_outcome(load, path, series):
    try:
        alerts = load(path, series)
    except IngestError as exc:
        return "error", str(exc)
    values = alerts.values if alerts.kind is AlertKind.BOOLEAN else alerts.values.view(np.uint64)
    return "ok", alerts.detector, alerts.kind, values.tolist()


@pytest.fixture
def plant():
    codes = (np.arange(N_POINTS) // 4) % 2
    return LabeledSeries("plant", 10 * np.arange(N_POINTS), codes, ("dos",))


def canonical_rows(key):
    if key == "alert":
        return [(10 * i, i % 4 == 1) for i in range(N_POINTS)]
    return [(10 * i, i / 7) for i in range(N_POINTS)]


class TestAlignmentWhileReading:
    """``load_alerts`` compares each block with the dataset while it reads and
    keeps timestamps only from the first block that differs. Blocks of one
    line, or of about three, put each change in the first, a middle or the
    last block, at a block's first line or inside it; every file must load,
    or fail with the text, as the reference loader does."""

    @pytest.fixture(autouse=True, params=[16, 160])
    def small_blocks(self, request, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", request.param)

    def test_canonical_files_take_the_numpy_route(self, tmp_path, plant, slow_routes):
        for key in ("alert", "score"):
            path = tmp_path / f"{key}.jsonl"
            path.write_text("".join(alert_lines(key, canonical_rows(key))), encoding="utf-8")
            with open(path, "rb") as handle:
                assert sum(1 for _ in ingest._read_blocks(handle)) >= 10
            assert alert_outcome(ingest.load_alerts, path, plant) == (
                alert_outcome(ingest_oracle.load_alerts, path, plant)
            )
        assert slow_routes["alerts"] == 0

    @pytest.mark.parametrize("key", ["alert", "score"])
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_same_outcome_as_the_reference(self, tmp_path, plant, key, mutation):
        rows = canonical_rows(key)
        path = tmp_path / "det.jsonl"
        for k in range(N_POINTS):
            lines = MUTATIONS[mutation](key, rows, k)
            if lines is None:
                continue
            path.write_text("".join(lines), encoding="utf-8")
            expected = alert_outcome(ingest_oracle.load_alerts, path, plant)
            assert alert_outcome(ingest.load_alerts, path, plant) == expected, k

    @pytest.mark.parametrize("key", ["alert", "score"])
    @pytest.mark.parametrize("shift", [False, True])
    def test_timestamp_past_int64_after_a_matched_prefix(self, tmp_path, plant, key, shift):
        # The reference loader raises OverflowError here; the message is the
        # range error of _check_range at the first such record.
        rows = canonical_rows(key)
        if shift:  # a block that differs, and so is kept, before the range error
            rows = retimed(rows, 2, rows[2][0] + 5)
        path = tmp_path / "det.jsonl"
        for k in range(3 if shift else 0, N_POINTS):
            huge = [(PAST_INT64 + j, v) for j, (_, v) in enumerate(rows[k:])]
            path.write_text("".join(alert_lines(key, rows[:k] + huge)), encoding="utf-8")
            with pytest.raises(IngestError) as caught:
                ingest.load_alerts(path, plant)
            assert str(caught.value) == (
                f"{path}: line {k + 1}: timestamp {PAST_INT64} is outside the 64-bit integer range"
            )

    @pytest.mark.parametrize("text", ["\n", "\n" * 3, "  \n\n \t\n", "\n" * 400])
    def test_blank_lines_only(self, tmp_path, plant, text):
        path = tmp_path / "det.jsonl"
        path.write_text(text, encoding="utf-8")
        expected = alert_outcome(ingest_oracle.load_alerts, path, plant)
        assert expected == ("error", f"{path}: no alert records")
        assert alert_outcome(ingest.load_alerts, path, plant) == expected


class TestLoadMemory:
    def test_alert_load_holds_no_timestamp_column(self, tmp_path, monkeypatch):
        n = 50_000
        series = LabeledSeries("plant", 3 * np.arange(n), np.zeros(n, np.int32), ())
        path = tmp_path / "det.jsonl"
        save_alerts(AlertSeries.from_bool("d", np.arange(n) % 5 == 0, "plant"), series, path)
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1 << 12)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            alerts = ingest.load_alerts(path, series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beyond its result, the load never holds an int64 column of the file.
        assert peak - before - alerts.values.nbytes < 8 * n

    @pytest.mark.parametrize("block", [1 << 14, None], ids=["small blocks", "default blocks"])
    def test_label_load_holds_half_a_timestamp_column_at_most(self, tmp_path, monkeypatch, block):
        n = 200_000
        codes = (np.arange(n) // 1000 % 4).astype(np.int32)
        series = LabeledSeries("plant", 7 * np.arange(n) + 10**12, codes, ("dos", "scan", "replay"))
        path = tmp_path / "labels.csv"
        save_labels(series, path)
        if block:
            monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
        buffer = ingest._FRONT + ingest._BLOCK_BYTES + ingest._PAD
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = ingest.load_labels(path, name="plant")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == series
        # Beyond its result and the read buffer, the load holds neither the
        # timestamps twice nor a whole block's parse temporaries.
        result = loaded.timestamps.nbytes + loaded.label_codes.nbytes
        assert peak - before - result - buffer < 8 * n / 2

    @pytest.mark.parametrize("layout", ["save_*", "compact"])
    @pytest.mark.parametrize("key", ["alert", "score"])
    def test_series_share_the_loaded_arrays(self, tmp_path, monkeypatch, layout, key):
        shared = []
        frozen = model._frozen_array

        def spy(values, dtype):
            result = frozen(values, dtype)
            shared.append(result is values)
            return result

        monkeypatch.setattr(model, "_frozen_array", spy)
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
        rows = canonical_rows(key)
        label_rows = [(t, "dos" if i % 3 else "benign") for i, (t, _) in enumerate(rows)]
        if layout == "compact":  # quoted cells and compact records take csv and json
            label_rows = [(f'"{t}"', label) for t, label in label_rows]
        labels = tmp_path / "labels.csv"
        labels.write_bytes(label_file(label_rows))
        path = tmp_path / "det.jsonl"
        lines = alert_lines(key, rows, compact=layout == "compact")
        if layout == "compact":  # and a first block that holds no record
            lines.insert(0, "\n" * 100)
        path.write_text("".join(lines), encoding="utf-8")
        series = ingest.load_labels(labels)
        assert shared == [True, True]  # timestamps and label codes
        ingest.load_alerts(path, series)
        assert shared == [True, True, True]


class TestBlockRouteConflicts:
    """A block-route part whose kind or detector differs from earlier blocks'
    goes to the record route, which raises the message at its first line."""

    @pytest.mark.parametrize(
        "first,second",
        [
            (alert_lines("alert", [(0, False), (10, True), (20, False)]),
             alert_lines("score", [(30, 0.5), (40, 0.25), (50, 1.0)])),
            (alert_lines("alert", [(0, False), (10, True), (20, False)], detector="a"),
             alert_lines("alert", [(30, True), (40, True), (50, False)], detector="b")),
        ],
        ids=["boolean then scored", "detector a then b"],
    )
    def test_same_message_as_the_reference(self, tmp_path, monkeypatch, first, second):
        path = tmp_path / "det.jsonl"
        path.write_text("".join(first + second), encoding="utf-8")
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", len("".join(first)))
        parts = []
        fast = ingest._fast_alerts

        def spy(*args):
            parts.append(fast(*args))
            return parts[-1]

        monkeypatch.setattr(ingest, "_fast_alerts", spy)
        series = LabeledSeries("plant", 10 * np.arange(6), np.zeros(6, np.int32), ())
        with pytest.raises(IngestError) as caught:
            ingest.load_alerts(path, series)
        with pytest.raises(IngestError) as expected:
            ingest_oracle.load_alerts(path, series)
        assert str(caught.value) == str(expected.value)
        assert f"{path}: line 4: " in str(caught.value)
        assert len(parts) == 2 and None not in parts  # both blocks in the save_alerts layout
