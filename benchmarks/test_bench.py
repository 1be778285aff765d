"""Tests of the benchmark itself: its references, its checks and a smoke run per workload.

    python -m pytest benchmarks -q

The tier-1 suite does not collect this directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from oracles.affiliation_oracle import affiliation_oracle  # noqa: E402
from oracles.brute import brute_roc_points  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_affiliation_reference_equals_full_oracle(seed):
    points = 1200
    codes = gen.build_codes(seed, points, 4)
    scenarios = checks.scenario_runs(codes)
    events = [checks._span(s) for s in scenarios]
    lanes = (gen.lagged_alerts(seed, codes), gen.random_baseline(points), np.zeros(points, bool))
    for alerts in lanes:
        runs = gen.runs_of(alerts)
        spans = [checks._span(r) for r in runs]
        expected = affiliation_oracle(events, spans, (Fraction(0), Fraction(points)))
        assert checks.affiliation_reference(scenarios, runs, points) == expected


def test_roc_reference_matches_brute_force():
    codes = gen.build_codes(3, 600, 3)
    scores = np.round(gen.scored_alerts(3, codes), 2)  # coarse, so that scores tie
    thresholds, fpr, tpr, area = checks.roc_reference(codes, scores)
    assert list(thresholds) == sorted(set(scores.tolist()), reverse=True)
    brute = brute_roc_points(list(codes > 0), scores.tolist(), thresholds.tolist())
    assert [(float(f), float(t)) for f, t in brute] == list(zip(fpr[1:-1], tpr[1:-1]))
    assert area == pytest.approx(float(np.trapezoid(tpr, fpr)), abs=0)


def _run_in_process(workload, inputs, outdir):
    from idseval import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(run.cli_argv(workload, inputs, outdir)) == 0
    return stdout.getvalue()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_checks_accept_real_output_and_reject_altered_output(tmp_path, name):
    workload = run.WORKLOADS[name]
    inputs = gen.ensure_inputs(tmp_path / "inputs", 4, *run.SMOKE_SIZE, (workload.detector_file,))
    outdir = tmp_path / "out"
    stdout = _run_in_process(workload, inputs, outdir)
    assert run.Checker(workload, inputs).problems(outdir, stdout) == []

    artifact = {
        "evaluate": "report.md", "compare": "comparison.md",
        "roc": "roc.csv", "timeline": "timeline.svg",
    }[workload.verb]
    path = outdir / artifact
    text = path.read_text(encoding="utf-8")
    if workload.verb == "timeline":
        altered = text.replace("<rect", "<g", 1)
    elif workload.verb == "roc":
        lines = text.splitlines(keepends=True)
        altered = "".join(lines[: len(lines) // 2] + lines[len(lines) // 2 + 1 :])
    else:
        lines = text.splitlines(keepends=True)
        cells = lines[2].split(" | ")
        column = lines[0].split(" | ").index("f1")
        cells[column] = "0.456" if cells[column] == "0.123" else "0.123"
        altered = "".join(lines[:2] + [" | ".join(cells)] + lines[3:])
    assert altered != text
    path.write_text(altered, encoding="utf-8")
    if workload.verb in ("evaluate", "compare"):
        stdout = altered
    assert run.Checker(workload, inputs).problems(outdir, stdout)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_run_reports_every_metric(name, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
               "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300, check=True)
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, "benchmarks/run.py", "--workload", "roc-scored-300k",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
