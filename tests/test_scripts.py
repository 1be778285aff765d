"""The helper scripts under ``scripts/`` run and fail cleanly."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True
    )


def test_make_demo_rejects_scenarios_that_do_not_fit(tmp_path):
    out = tmp_path / "demo"
    done = run_script(
        "make_demo.py", "--points", "1000000", "--scenarios", "30000", "--out", str(out)
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1] == (
        "make_demo.py: error: --points must be at least 80 per scenario:"
        " 30000 scenarios need 2400000"
    )
    assert not out.exists()


def test_make_demo_builds_the_densest_request_it_accepts(tmp_path):
    done = run_script("make_demo.py", "--points", "800", "--scenarios", "10",
                      "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert {path.name for path in tmp_path.iterdir()} == {
        "labels.csv", "lagged.jsonl", "scored.jsonl", "manifest.json"
    }


def test_startup_prints_verb_medians_and_the_import_split():
    done = run_script("startup.py", "--runs", "1")
    assert done.returncode == 0, done.stderr
    *verbs, split, teardown = map(json.loads, done.stdout.splitlines())
    assert [row["verb"] for row in verbs] == ["evaluate", "compare", "timeline", "roc", "baseline"]
    assert all(row["help_wall_ms"] > 0 for row in verbs)
    parts = split["import_idseval_cli_after_numpy"]
    assert set(parts) == {"import_ms", "compile_ms", "classes_ms", "rest_ms"}
    assert parts["classes_ms"] > 0
    total = parts["compile_ms"] + parts["classes_ms"] + parts["rest_ms"]
    assert abs(total - parts["import_ms"]) < 0.5
    assert set(teardown) == {"teardown_ms", "runs"}
    assert isinstance(teardown["teardown_ms"], float) and teardown["runs"] == 1


GOLDEN_DIGEST = Path(__file__).resolve().parent / "golden" / "cli_digest.txt"
# argparse's help and usage text changes between Python versions, so these
# runs are pinned by their exit code alone.
VERSION_DEPENDENT = {"help", "usage-error", *(f"{verb}-help" for verb in
                     ("evaluate", "compare", "timeline", "roc", "baseline"))}


@pytest.fixture(scope="module")
def digest_lines() -> dict[str, list[str]]:
    """One run of ``cli_digest.py`` with an extra run, shared by the tests below."""
    done = run_script("cli_digest.py", "--", "evaluate", "--config", "demo/manifest.json",
                      "--metrics", "f1", "--format", "csv", "--out", "out")
    assert done.returncode == 0, done.stderr
    return {line.split()[0]: line.split()[1:] for line in done.stdout.splitlines()}


def test_cli_digest_prints_one_line_per_run(digest_lines):
    lines = digest_lines
    assert {"evaluate-md", "compare-rank-by", "roc-json", "help", "extra"} <= set(lines)
    codes = {name: fields[0] for name, fields in lines.items()}
    failing = {"usage-error": "exit=2", "unknown-metric": "exit=2", "bad-beta": "exit=2",
               "bad-theta": "exit=2", "data-error": "exit=1"}
    assert {name: codes[name] for name in failing} == failing
    assert all(code == "exit=0" for name, code in codes.items() if name not in failing)
    extra = dict(field.split("=") for field in lines["extra"][1:])
    assert set(extra) == {"stdout", "stderr", "alerts/lagged.jsonl", "report.csv"}
    assert all(len(value) == 64 for value in extra.values())
    assert extra["stdout"] == extra["report.csv"]


def test_cli_digest_matches_the_golden_file(digest_lines):
    # The golden digest is the CLI's bytes as they stand; a run that differs
    # is a change to an artifact, never a reason to rewrite the golden line.
    lines = GOLDEN_DIGEST.read_text(encoding="utf-8").splitlines()
    golden = {line.split()[0]: line.split()[1:] for line in lines}
    assert len(golden) == len(lines), "a run is named on more than one golden line"
    assert set(golden) == set(digest_lines) - {"extra"}
    for name, fields in golden.items():
        if name in VERSION_DEPENDENT:
            assert digest_lines[name][0] == fields[0], name
        else:
            assert digest_lines[name] == fields, name


def test_cli_digest_pins_the_gap_tolerance(digest_lines):
    # near/'s same-type scenarios sit 1-3 points apart, so a gap tolerance of 3
    # merges them and changes the report; on dense/ it merges nothing.
    def fields(name):
        return dict(field.split("=") for field in digest_lines[name][1:])

    near, merged = fields("near"), fields("near-gap-3")
    assert near["alerts/near.jsonl"] == merged["alerts/near.jsonl"]
    assert near["report.json"] != merged["report.json"]
    assert fields("dense")["report.json"] == fields("dense-gap-3")["report.json"]


def test_ingest_blocks_prints_every_measure():
    done = run_script("ingest_blocks.py", "--points", "2000", "--runs", "1")
    assert done.returncode == 0, done.stderr
    rows = {row["measure"]: row for row in map(json.loads, done.stdout.splitlines())}
    assert list(rows) == ["fast_alerts.boolean", "fast_alerts.scored", "fast_labels",
                          "load_alerts.boolean", "load_alerts.scored", "load_labels"]
    for name in ("fast_alerts.boolean", "fast_alerts.scored", "fast_labels"):
        assert rows[name]["ms_per_block"] > 0 and rows[name]["lines_per_block"] > 0
    for name in ("load_alerts.boolean", "load_alerts.scored", "load_labels"):
        assert rows[name]["ms"] > 0 and rows[name]["read_ms"] > 0
        assert rows[name]["parse_ms"] == pytest.approx(rows[name]["ms"] - rows[name]["read_ms"],
                                                       abs=0.002)
