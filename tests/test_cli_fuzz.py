"""The CLI's error contract over damaged copies of the demo data.

Each verb runs in-process on the demo files after one mutation: a
truncation, flipped bytes, two swapped lines, or a number, literal or ISO
instant spliced into a timestamp, value or label. Only two outcomes are
allowed: exit 0 with no ``error:`` line, or exit 1 or 2 with exactly one
``error:`` line (after any ``warning:`` lines) and no ``--out`` directory.
A traceback fails the test.
"""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idseval.cli import main

DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"
FILES = {name: (DEMO / name).read_bytes() for name in ("labels.csv", "lagged.jsonl", "scored.jsonl")}

# Per verb: its arguments after --labels, with the files it reads.
VERBS = {
    "evaluate": ["--alerts", "lagged.jsonl"],
    "compare": [
        "--alerts", "lagged.jsonl", "--detector", "baseline:random:p=0.5:seed=7",
        "--metrics", "f1,etapr,affiliation,detection-delay", "--rank-by", "etaf1",
    ],
    "timeline": [
        "--alerts", "lagged.jsonl", "--detector", "baseline:random:p=0.5:seed=7",
        "--min-width", "60s",
    ],
    "roc": ["--alerts", "scored.jsonl", "--auto"],
}

NUMBERS = (
    "NaN", "Infinity", "-Infinity", "true", "null", " 1", "1 ", "+1", "1_0", "1e+", "0x1",
    "1e400", "9" * 400, "9" * 5000, "1e-400", "-0", "1.5E-3", "1" * 40,
    "0.1234567890123456789e3", str(2**63), str(-(2**63) - 1),
)
INSTANTS = ("1970-01-01T00:00:07", "1970-01-01T00:00:07+00:00", "2021-13-01T00:00:00")


@st.composite
def mutations(draw, names: list[str]) -> tuple[str, bytes]:
    """One of ``names`` with one mutation applied: the name and its new bytes."""
    name = draw(st.sampled_from(names))
    data = FILES[name]
    lines = data.splitlines(keepends=True)
    kind = draw(st.sampled_from(["truncate", "flip", "swap", "splice"]))
    if kind == "truncate":
        return name, data[: draw(st.integers(0, len(data)))]
    if kind == "flip":
        flipped = bytearray(data)
        for _ in range(draw(st.integers(1, 3))):
            flipped[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        return name, bytes(flipped)
    i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    if kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
        return name, b"".join(lines)
    token = draw(st.sampled_from(NUMBERS + tuple(f'"{t}"' for t in INSTANTS)))
    if name == "labels.csv":
        field = draw(st.sampled_from([0, 1]))
        cells = lines[i].rstrip(b"\n").split(b",")
        cells[min(field, len(cells) - 1)] = token.strip('"').encode()
        lines[i] = b",".join(cells) + b"\n"
    else:
        key = draw(st.sampled_from([b"timestamp", b"score" if name == "scored.jsonl" else b"alert"]))
        lines[i] = re.sub(rb'("%s": )[^,}]*' % key, lambda m: m[1] + token.encode(), lines[i])
    return name, b"".join(lines)


def run_verb(verb: str, name: str, data: bytes) -> tuple[int, list[str], bool]:
    """Exit code, stderr lines and whether ``--out`` exists, for one mutated run."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for file_name, content in FILES.items():
            (root / file_name).write_bytes(data if file_name == name else content)
        argv = [verb, "--labels", str(root / "labels.csv")]
        argv += [str(root / arg) if arg.endswith(".jsonl") else arg for arg in VERBS[verb]]
        argv += ["--out", str(root / "out")]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        return code, stderr.getvalue().splitlines(), (root / "out").exists()


@pytest.mark.parametrize("verb", VERBS)
def test_every_run_exits_0_or_with_one_error_line(verb):
    names = ["labels.csv", *(arg for arg in VERBS[verb] if arg.endswith(".jsonl"))]

    @settings(max_examples=40, deadline=None)
    @given(mutation=mutations(names))
    def check(mutation):
        code, lines, out_exists = run_verb(verb, *mutation)
        errors = [line for line in lines if line.startswith("error: ")]
        assert all(line.startswith(("error: ", "warning: ")) for line in lines), lines
        if code == 0:
            assert not errors and out_exists
        else:
            assert code in (1, 2) and len(errors) == 1 and lines[-1] == errors[0], lines
            assert not out_exists

    check()
