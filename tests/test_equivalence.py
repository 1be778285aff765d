"""README's equivalence promises, checked end to end through the CLI.

Each test is a metamorphic relation: two runs whose inputs differ in a way
that must not matter (or must matter in one known way) are compared with
each other, since no oracle gives the expected artifacts. The traces are
small random ones from ``support.random_trace``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
import shutil
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from idseval import cli, ingest, report
from support import Trace, random_trace, write_trace

METRICS = (
    "confusion,accuracy,tpr,fnr,tnr,fpr,ppv,npv,f1,fbeta:beta=0.5,auc-single,scenario-recall,"
    "detected-scenarios,detected-scenarios:by-type,detection-delay,etapr,affiliation"
)
# Each spelling README "Data formats" accepts, as a name for the draws:
# line ends, blank lines, quoted CSV cells, padded labels, "0" for benign,
# compact JSON separators, another key order, integer scores, and alert
# files without a "detector" field (each file is named after its detector).
SPELLINGS = ("crlf", "blank", "quoted", "padded", "zero", "compact", "reordered", "integral",
             "nameless")
SEEDS = st.integers(0, 2**32 - 1)


def _run(argv: list[str]) -> str:
    """stdout of an in-process CLI run that must succeed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue()


def _sources(folder: Path, names) -> list[str]:
    return [arg for name in names for arg in ("--detector", str(folder / f"{name}.jsonl"))]


def _artifacts(folder: Path, trace: Trace) -> dict[str, bytes]:
    """The bytes of report.json, comparison.json, roc.csv, roc.json and
    timeline.svg made from the files in ``folder``."""
    detectors = _sources(folder, trace.detectors)
    scored = _sources(folder, ["scored"])
    runs = {
        "report.json": ["evaluate", *detectors[:2], "--metrics", METRICS, "--format", "json"],
        "comparison.json": ["compare", *detectors, "--metrics", METRICS, "--format", "json"],
        "roc.csv": ["roc", *scored, "--auto"],
        "roc.json": ["roc", *scored, "--auto", "--format", "json"],
        "timeline.svg": ["timeline", *detectors, "--min-width", "3"],
    }
    found = {}
    for name, argv in runs.items():
        out = folder / "out" / name
        _run([*argv, "--labels", str(folder / "labels.csv"), "--out", str(out)])
        found[name] = (out / name).read_bytes()
    return found


def _respell(lines: list[str], spell, first: int, crlf: bool, blank: bool, rng) -> bytes:
    """``lines`` as a file, each from index ``first`` on respelled by ``spell``,
    ended by CRLF if ``crlf``, and, if ``blank``, some after a blank line."""
    text = []
    for k, line in enumerate(lines):
        end = "\n"
        if k >= first:
            line, end = spell(line), "\r\n" if crlf else "\n"
            if blank and k and rng.random() < 0.05:
                text.append(end)
        text.append(line + end)
    return "".join(text).encode()


def _write_spelled(trace: Trace, folder: Path, spelling: frozenset, first: int, rng) -> None:
    """The files ``write_trace`` writes, in ``spelling`` from each file's line
    ``first`` on (counted from 0, the label file's header included)."""
    folder.mkdir(parents=True)
    crlf, blank = "crlf" in spelling, "blank" in spelling

    def label_cell(cell: str) -> str:
        if "zero" in spelling and cell == "benign":
            cell = "0"
        if "padded" in spelling:
            cell = f" {cell}  "
        return f'"{cell}"' if "quoted" in spelling else cell

    def label_line(line: str) -> str:
        return ",".join(map(label_cell, line.split(",")))

    rows = ["timestamp,label", *map("{},{}".format, trace.timestamps, trace.labels)]
    (folder / "labels.csv").write_bytes(_respell(rows, label_line, first, crlf, blank, rng))
    separators = (",", ":") if "compact" in spelling else (", ", ": ")

    def alert_line(line: str) -> str:
        record = json.loads(line)
        if "integral" in spelling and "score" in record and record["score"].is_integer():
            record["score"] = int(record["score"])
        if "nameless" in spelling:
            del record["detector"]
        if "reordered" in spelling:
            record = dict(reversed(record.items()))
        return json.dumps(record, separators=separators)

    for name, key, values in [
        *((name, "alert", values) for name, values in trace.detectors.items()),
        ("scored", "score", trace.scores),
    ]:
        # Each line as save_alerts writes it, then respelled.
        lines = [json.dumps({"timestamp": t, key: v, "detector": name})
                 for t, v in zip(trace.timestamps, values)]
        data = _respell(lines, alert_line, first, crlf, blank, rng)
        (folder / f"{name}.jsonl").write_bytes(data)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=SEEDS,
    spelling=st.frozensets(st.sampled_from(SPELLINGS)),
    first=st.integers(0, 420),
    blocks=st.none() | st.tuples(st.integers(16, 400), st.integers(16, 800), st.integers(1, 40)),
)
@example(seed=0, spelling=frozenset(SPELLINGS), first=0, blocks=None)
@example(seed=1, spelling=frozenset({"blank"}), first=100, blocks=(64, 64, 3))
def test_every_spelling_and_block_size_gives_the_same_artifacts(seed, spelling, first, blocks):
    # The canonical files take the block routes, the respelled lines the
    # csv/json ones; small blocks and row chunks put every edge inside the
    # trace, so a label file can leave the block route at any block.
    rng = random.Random(seed)
    trace = random_trace(rng)
    with tempfile.TemporaryDirectory() as tmp:
        canonical, spelled = Path(tmp) / "canonical", Path(tmp) / "spelled"
        write_trace(trace, canonical)
        expected = _artifacts(canonical, trace)
        _write_spelled(trace, spelled, spelling, first, rng)
        with contextlib.ExitStack() as patches:
            names = ("_LABEL_BLOCK_BYTES", "_BLOCK_BYTES", "_ROWS", "_ROC_ROWS")
            sizes = (*blocks, blocks[-1]) if blocks else ()  # timeline and ROC rows alike
            for module, name, size in zip((ingest, ingest, report, report), names, sizes):
                patches.enter_context(mock.patch.object(module, name, size))
            assert _artifacts(spelled, trace) == expected


# Offsets an ISO-8601 timestamp may carry; a non-zero one moves the wall clock to match.
ZONES = {"Z": timezone.utc, "+00:00": timezone.utc, "+02:00": timezone(timedelta(hours=2)),
         "-05:30": timezone(-timedelta(hours=5, minutes=30))}


def _iso(tick: int, zone: str) -> str:
    """Epoch second ``tick`` as an ISO-8601 instant at offset ``zone``."""
    text = datetime.fromtimestamp(tick, ZONES[zone]).isoformat()
    return text.replace("+00:00", "Z") if zone == "Z" else text


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    seed=SEEDS,
    start=st.integers(1_500_000_000, 1_700_000_000),
    zones=st.lists(st.sampled_from(sorted(ZONES)), min_size=1, max_size=4, unique=True),
)
@example(seed=0, start=1_600_000_000, zones=["+02:00"])
def test_iso_timestamps_give_the_artifacts_of_their_epoch_seconds(seed, start, zones):
    # Each point's timestamp is written at one of ``zones``, the same in every file.
    rng = random.Random(seed)
    trace = random_trace(rng, start)
    stamps = [_iso(tick, rng.choice(zones)) for tick in trace.timestamps]
    with tempfile.TemporaryDirectory() as tmp:
        integral, iso = Path(tmp) / "integral", Path(tmp) / "iso"
        write_trace(trace, integral)
        _write_spelled(trace._replace(timestamps=stamps), iso, frozenset(), 0, rng)
        assert _artifacts(iso, trace) == _artifacts(integral, trace)


def _json(verb: str, folder: Path, names, gap: int) -> dict:
    """What ``verb --format json`` prints for the detectors ``names`` in ``folder``."""
    return json.loads(_run([
        verb, *_sources(folder, names), "--labels", str(folder / "labels.csv"),
        "--metrics", METRICS, "--format", "json", "--gap-tolerance", str(gap),
        "--out", str(folder / "out"),
    ]))


# Shifts anywhere in int64 for these ticks; shifts that put the trace past
# 2**52, where a float64 holds no half tick; and shifts that put it across
# 2**53, past which a float64 no longer holds every integer.
SHIFTS = st.integers(-(2**62), 2**62) | st.sampled_from(
    [2**52 + 1, -(2**52) - 1000, 2**53 - 100, 2**53 - 1, -(2**53) - 100, 2**62, -(2**62)]
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=SEEDS, shift=SHIFTS, gap=st.integers(0, 3))
@example(seed=0, shift=2**52 + 1, gap=0)
@example(seed=0, shift=2**53 - 100, gap=1)
def test_a_time_shift_moves_the_time_fields_and_nothing_else(seed, shift, gap):
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, start in enumerate((0, shift)):
            trace = random_trace(random.Random(seed), start)
            folder, names = Path(tmp) / str(k), list(trace.detectors)
            write_trace(trace, folder)
            found.append((_json("evaluate", folder, names[:1], gap),
                          _json("compare", folder, names, gap)))
    (base, table), (shifted, shifted_table) = found
    assert shifted_table == table
    assert {**shifted, "scenarios": None} == {**base, "scenarios": None}
    assert shifted["scenarios"] == [
        {key: value + shift if key.endswith("_time") and value is not None else value
         for key, value in row.items()}
        for row in base["scenarios"]
    ]
    assert any(key.endswith("_time") for row in base["scenarios"] for key in row)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=SEEDS, gap=st.integers(0, 3), data=st.data())
def test_compare_rows_are_each_detectors_evaluate_report_in_detector_order(seed, gap, data):
    trace = random_trace(random.Random(seed))
    names = list(trace.detectors)
    order = data.draw(st.permutations(names))
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        write_trace(trace, folder)
        alone = [_json("evaluate", folder, [name], gap) for name in names]
        table, permuted = (_json("compare", folder, detectors, gap) for detectors in (names, order))
    assert permuted == {**table, "rows": [table["rows"][names.index(name)] for name in order]}
    for name, row, evaluated in zip(names, table["rows"], alone):
        metrics = evaluated["metrics"]
        assert table["columns"] == [metric["display_name"] for metric in metrics]
        assert row == {
            "detector": name,
            "values": {metric["display_name"]: metric["value"] for metric in metrics},
            "exact": {metric["display_name"]: metric["exact"] for metric in metrics
                      if "exact" in metric},
        }


ROOT = Path(__file__).resolve().parents[1]
# One run of each verb that writes an artifact, as the golden digest names it.
ENVIRONMENT_RUNS = ("evaluate-json", "compare-json", "roc-csv", "timeline")


def test_the_environment_reaches_no_artifact(tmp_path, monkeypatch):
    # String hashing and BLAS threads must not reach the output: under each
    # setting, each run's digest line (exit code, stdout, stderr, every file)
    # is the golden one.
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "scripts" / "cli_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    golden = {line.split()[0]: line for line in
              (ROOT / "tests" / "golden" / "cli_digest.txt").read_text().splitlines()}
    shutil.copytree(ROOT / "data" / "demo", tmp_path / "demo")
    for hash_seed, threads in (("0", "1"), ("1", "2")):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        for name in ENVIRONMENT_RUNS:
            line = digest.digest(name, digest.MATRIX[name], ROOT / "src", tmp_path)
            assert line == golden[name], (hash_seed, threads)
