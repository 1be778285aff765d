"""End-to-end command-line runs through main(argv)."""

from __future__ import annotations

import builtins
import errno
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from idseval import cli, pointwise
from idseval.baselines import BaselineSpec, generate
from idseval.cli import main, parse_min_width
from idseval.evaluate import evaluate_detector
from idseval.ingest import load_alerts, load_labels, save_alerts
from idseval.pointwise import confusion
from idseval.report import TimelineRendering, build_table, report_to_json, roc_csv_chunks
from idseval import ParameterError
from support import fresh_python
from fractions import Fraction


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Scratch dir with a small dataset, alert files and a clean environment."""
    monkeypatch.delenv("IDSEVAL_OUT", raising=False)
    labels = tmp_path / "labels.csv"
    rows = ["timestamp,label"]
    for t in range(50):
        rows.append(f"{t},{'dos' if 10 <= t < 20 else 'benign'}")
    labels.write_text("\n".join(rows) + "\n", encoding="utf-8")

    alerts = tmp_path / "det.jsonl"
    with open(alerts, "w", encoding="utf-8") as handle:
        for t in range(50):
            record = {"timestamp": t, "alert": 12 <= t < 25}
            handle.write(json.dumps(record) + "\n")

    scores = tmp_path / "scores.jsonl"
    with open(scores, "w", encoding="utf-8") as handle:
        for t in range(50):
            record = {"timestamp": t, "score": round(0.9 if 10 <= t < 20 else 0.2, 3)}
            handle.write(json.dumps(record) + "\n")

    manifest = tmp_path / "data.json"
    manifest.write_text(
        json.dumps({"name": "plant", "labels": "labels.csv", "alerts": ["det.jsonl"]}),
        encoding="utf-8",
    )
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_baseline_never_markdown_report(self, workdir, capsys):
        out = workdir / "run"
        code, stdout, _ = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", "--out", out,
        )
        assert code == 0
        assert "| detector |" in stdout
        assert "baseline:never" in stdout
        report = (out / "report.md").read_text(encoding="utf-8")
        assert report == stdout

    def test_alert_file_report_values(self, workdir, capsys):
        out = workdir / "run"
        code, stdout, _ = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "det.jsonl", "--metrics", "confusion,tpr,ppv",
            "--format", "json", "--out", out,
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["detector"] == "det"
        values = {m["display_name"]: m for m in payload["metrics"]}
        assert values["tp"]["value"] == 8
        assert values["tpr"]["exact"] == "4/5"
        assert values["ppv"]["exact"] == "8/13"

    def test_accuracy_f1_json_report_has_two_defined_values(self, workdir, capsys):
        out = workdir / "run"
        code, _, _ = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "det.jsonl", "--metrics", "accuracy,f1",
            "--format", "json", "--out", out,
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [m["name"] for m in payload["metrics"]] == ["accuracy", "f1"]
        assert all(m["value"] is not None for m in payload["metrics"])

    def test_never_baseline_on_12pct_attacks_reports_0880_accuracy(self, workdir, capsys):
        labels = workdir / "imbalanced.csv"
        rows = ["timestamp,label"] + [
            f"{t},{'dos' if t < 120 else 'benign'}" for t in range(1000)
        ]
        labels.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = workdir / "run"
        code, _, _ = run(
            capsys, "evaluate", "--labels", labels, "--detector", "baseline:never",
            "--metrics", "accuracy", "--format", "json", "--out", out,
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["metrics"][0]["exact"] == "22/25"
        assert payload["metrics"][0]["value"] == 0.88

    def test_copies_alert_file_byte_for_byte(self, workdir, capsys):
        out = workdir / "run"
        code, _, _ = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "det.jsonl", "--out", out,
        )
        assert code == 0
        copied = out / "alerts" / "det.jsonl"
        assert copied.read_bytes() == (workdir / "det.jsonl").read_bytes()

    def test_baseline_copy_regenerates_identically(self, workdir, capsys):
        first, second = workdir / "a", workdir / "b"
        for out in (first, second):
            code, _, _ = run(
                capsys, "evaluate", "--labels", workdir / "labels.csv",
                "--detector", "baseline:random:p=0.5:seed=7", "--out", out,
            )
            assert code == 0
        name = "baseline_random_p_0.5_seed_7.jsonl"
        assert (first / "alerts" / name).read_bytes() == (second / "alerts" / name).read_bytes()

    @pytest.mark.parametrize(
        "detector", ["baseline:random:p=0.1:p=0.9", "baseline:random:p=0.5:seed=1:seed=2"]
    )
    def test_duplicate_baseline_parameter_exits_2(self, workdir, capsys, detector):
        code, stdout, stderr = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--detector", detector, "--out", workdir / "run",
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: duplicate parameter")
        assert not (workdir / "run").exists()

    def test_baseline_spec_parts_are_stripped(self, workdir, capsys):
        code, stdout, _ = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--detector", "baseline:random: p=0.5", "--metrics", "tpr",
            "--out", workdir / "run",
        )
        assert code == 0
        assert "| baseline:random:p=0.5:seed=0 |" in stdout

    def test_unknown_metric_exits_2_with_catalog(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", "--metrics", "f2", "--out", workdir / "run",
        )
        assert code == 2
        assert stderr.splitlines()[0].startswith("error: unknown metric 'f2'")
        assert "metric catalog:" in stderr
        assert "fbeta" in stderr
        assert not (workdir / "run").exists()

    def test_missing_labels_file_exits_1(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "evaluate", "--labels", workdir / "nope.csv",
            "--detector", "baseline:never", "--out", workdir / "run",
        )
        assert code == 1
        assert stderr.splitlines()[0].startswith("error: ")

    def test_malformed_labels_exit_1_with_location(self, workdir, capsys):
        bad = workdir / "bad.csv"
        bad.write_text("timestamp,label\n0,benign\n0,dos\n", encoding="utf-8")
        code, _, stderr = run(
            capsys, "evaluate", "--labels", bad,
            "--detector", "baseline:never", "--out", workdir / "run",
        )
        assert code == 1
        first = stderr.splitlines()[0]
        assert first.startswith("error: ")
        assert "line 3: duplicate timestamp" in first

    def test_scored_alerts_direct_to_roc(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "scores.jsonl", "--out", workdir / "run",
        )
        assert code == 1
        # The error is the only line: scored alerts get no never/always-alarms warning.
        assert len(stderr.splitlines()) == 1 and "roc" in stderr
        assert not (workdir / "run").exists()

    def test_two_detectors_rejected(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", "--detector", "baseline:always",
            "--out", workdir / "run",
        )
        assert code == 2
        assert "use compare" in stderr

    def test_dataset_required(self, workdir, capsys):
        code, _, stderr = run(capsys, "evaluate", "--detector", "baseline:never")
        assert code == 2
        assert "error: a dataset is required" in stderr

    def test_labels_and_config_conflict(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--config", workdir / "data.json", "--detector", "baseline:never",
        )
        assert code == 2
        assert "not both" in stderr

    @pytest.mark.parametrize("tick", ["1e400", "1e308"])
    def test_tick_past_float_range_in_seconds_exits_2(self, workdir, capsys, tick):
        # 1e308 is a float, but a delay of 8.5 ticks in seconds is not.
        demo = Path(__file__).resolve().parents[1] / "data" / "demo"
        code, stdout, stderr = run(
            capsys, "evaluate", "--labels", demo / "labels.csv",
            "--alerts", demo / "lagged.jsonl", "--tick-seconds", tick,
            "--out", workdir / "run",
        )
        assert code == 2
        assert stdout == ""
        assert stderr == (
            "error: tick_seconds is too large: the series' 5000 ticks in seconds "
            "overflow a 64-bit float\n"
        )

    def test_manifest_tick_past_float_range_in_seconds_exits_2(self, workdir, capsys):
        manifest = workdir / "huge-tick.json"
        manifest.write_text(
            json.dumps({"name": "plant", "labels": "labels.csv", "tick_seconds": 1e307}),
            encoding="utf-8",
        )
        code, _, stderr = run(
            capsys, "evaluate", "--config", manifest, "--detector", "baseline:never",
            "--out", workdir / "run",
        )
        assert code == 2
        assert stderr == (
            "error: tick_seconds is too large: the series' 50 ticks in seconds "
            "overflow a 64-bit float\n"
        )

    def test_iso_labels_need_a_one_second_tick(self, workdir, capsys):
        # ISO instants are epoch seconds: with --tick-seconds 10 the one-second
        # delay below was reported as 10 s, with exit 0.
        labels = workdir / "iso.csv"
        labels.write_text(
            "timestamp,label\n"
            + "".join(
                f"2021-01-01T00:00:{t:02d}Z,{'dos' if 3 <= t < 6 else 'benign'}\n"
                for t in range(10)
            ),
            encoding="utf-8",
        )
        alerts = workdir / "iso.jsonl"
        alerts.write_text(
            "".join(
                json.dumps({"timestamp": 1609459200 + t, "alert": 4 <= t < 6}) + "\n"
                for t in range(10)
            ),
            encoding="utf-8",
        )
        manifest = workdir / "iso.json"
        manifest.write_text(
            json.dumps({"name": "plant", "labels": "iso.csv", "tick_seconds": "0.5"}),
            encoding="utf-8",
        )
        datasets = {"10": ["--labels", labels, "--tick-seconds", "10"], "0.5": ["--config", manifest]}
        for tick, args in datasets.items():
            code, stdout, stderr = run(
                capsys, "evaluate", *args, "--alerts", alerts,
                "--metrics", "detection-delay", "--out", workdir / "run",
            )
            assert (code, stdout) == (2, "")
            assert stderr == (
                f"error: {labels}: line 2: ISO-8601 timestamps are epoch seconds,"
                f" so tick_seconds must be 1, got {tick}\n"
            )
            assert not (workdir / "run").exists()
        code, stdout, _ = run(
            capsys, "evaluate", "--labels", labels, "--alerts", alerts,
            "--metrics", "detection-delay", "--out", workdir / "run", "--format", "json",
        )
        assert code == 0
        metrics = {m["name"]: m["exact"] for m in json.loads(stdout)["metrics"]}
        assert metrics["detection-delay-mean-seconds"] == "1"

    def test_warnings_go_to_stderr(self, workdir, capsys):
        sparse = workdir / "sparse.csv"
        rows = ["timestamp,label"] + [
            f"{t},{'dos' if t == 0 else 'benign'}" for t in range(200)
        ]
        sparse.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys, "evaluate", "--labels", sparse,
            "--detector", "baseline:never", "--out", workdir / "run",
        )
        assert code == 0
        assert "warning: attacks cover under 1% of points" in stderr
        assert "warning" not in stdout

    def test_detectors_that_never_or_always_alarm_warn(self, workdir, capsys):
        sparse = workdir / "sparse.csv"
        rows = ["timestamp,label"] + [f"{t},{'dos' if t == 0 else 'benign'}" for t in range(200)]
        sparse.write_text("\n".join(rows) + "\n", encoding="utf-8")
        detectors = ["baseline:always", "baseline:random:p=0.5", "baseline:never"]
        out = workdir / "run"
        argv = ["--labels", sparse, "--metrics", "f1,accuracy", "--out", out]
        code, stdout, stderr = run(
            capsys, "compare", *(f"--detector={name}" for name in detectors), *argv
        )
        assert code == 0
        # After the dataset's warnings, one line per such detector, in input order.
        assert stderr.splitlines() == [
            "warning: attacks cover under 1% of points; accuracy will reward detectors"
            " that never alarm",
            "warning: baseline:always: detector always alarms; precision equals the attack"
            " fraction",
            "warning: baseline:never: detector never alarms; recall-style metrics will be 0",
        ]
        # The warnings touch neither stdout nor an artifact.
        series = load_labels(sparse)
        alerts = [generate(BaselineSpec.parse(name).with_seed(0), series) for name in detectors]
        reports = [evaluate_detector(series, alert, ["f1", "accuracy"]) for alert in alerts]
        assert stdout == build_table(reports).render("md")
        assert (out / "comparison.md").read_text(encoding="utf-8") == stdout
        names = [cli._safe_filename(alert.detector, set()) + ".jsonl" for alert in alerts]
        assert sorted(path.name for path in (out / "alerts").iterdir()) == sorted(names)
        for alert, name in zip(alerts, names):
            save_alerts(alert, series, workdir / "expected.jsonl")
            assert (out / "alerts" / name).read_bytes() == (workdir / "expected.jsonl").read_bytes()


class TestOutputDirectory:
    def test_env_var_fallback(self, workdir, capsys, monkeypatch):
        env_out = workdir / "from-env"
        monkeypatch.setenv("IDSEVAL_OUT", str(env_out))
        monkeypatch.chdir(workdir)
        code, _, _ = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never",
        )
        assert code == 0
        assert (env_out / "report.md").exists()

    def test_flag_beats_env(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("IDSEVAL_OUT", str(workdir / "from-env"))
        out = workdir / "explicit"
        code, _, _ = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", "--out", out,
        )
        assert code == 0
        assert (out / "report.md").exists()
        assert not (workdir / "from-env").exists()

    def test_default_directory(self, workdir, capsys, monkeypatch):
        monkeypatch.chdir(workdir)
        code, _, _ = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never",
        )
        assert code == 0
        assert (workdir / "idseval-out" / "report.md").exists()


class TestCompare:
    def test_rank_by_orders_rows(self, workdir, capsys):
        out = workdir / "run"
        code, stdout, _ = run(
            capsys, "compare", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "det.jsonl",
            "--detector", "baseline:never", "--detector", "baseline:always",
            "--metrics", "f1,accuracy", "--rank-by", "f1", "--out", out,
        )
        assert code == 0
        lines = [l for l in stdout.splitlines() if l.startswith("|")]
        order = [line.split("|")[1].strip() for line in lines[2:]]
        assert order[0] == "det"
        assert order[-1] == "baseline:never"
        assert (out / "comparison.md").read_text(encoding="utf-8") == stdout

    def test_rank_by_unknown_column_exits_2(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "compare", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", "--metrics", "f1",
            "--rank-by", "tpr", "--out", workdir / "run",
        )
        assert code == 2
        assert "rank-by metric 'tpr' is not in the table" in stderr
        assert not (workdir / "run").exists()

    def test_manifest_supplies_alerts(self, workdir, capsys):
        out = workdir / "run"
        code, stdout, _ = run(
            capsys, "compare", "--config", workdir / "data.json",
            "--metrics", "f1", "--out", out,
        )
        assert code == 0
        assert "| det |" in stdout
        assert (out / "alerts" / "det.jsonl").exists()

    def test_duplicate_detector_names_exit_1(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "compare", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "det.jsonl", "--alerts", workdir / "det.jsonl",
            "--out", workdir / "run",
        )
        assert code == 1
        assert "duplicate detector names: det" in stderr

    def test_confusion_is_counted_once_per_detector(self, tmp_path, capsys, monkeypatch):
        counted = []

        def spy(series, alerts):
            counted.append(alerts.detector)
            return confusion(series, alerts)

        monkeypatch.setattr(pointwise, "confusion", spy)
        demo = Path(__file__).resolve().parents[1] / "data" / "demo"
        code, stdout, _ = run(
            capsys, "compare", "--config", demo / "manifest.json", "--detector", "baseline:never",
            "--detector", "baseline:random:p=0.5", "--out", tmp_path / "run",
        )
        assert code == 0
        assert counted == [line.split("|")[1].strip() for line in stdout.splitlines()[2:]]
        assert len(counted) == 2


class TestScoreOutputs:
    """evaluate and compare share one body: stdout, the artifact and the API agree."""

    def api_reports(self, workdir, detectors):
        series = load_labels(workdir / "labels.csv")
        alerts = [
            load_alerts(workdir / token, series) if token.endswith(".jsonl")
            else generate(BaselineSpec.parse(token).with_seed(0), series)
            for token in detectors
        ]
        return [evaluate_detector(series, alert) for alert in alerts]

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_evaluate_prints_what_it_writes(self, workdir, capsys, fmt):
        out = workdir / "run"
        code, stdout, _ = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "det.jsonl", "--format", fmt, "--out", out,
        )
        assert code == 0
        [report] = self.api_reports(workdir, ["det.jsonl"])
        expected = report_to_json(report) if fmt == "json" else build_table([report]).render(fmt)
        assert stdout == (out / f"report.{fmt}").read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("rank_by", [None, "f1"])
    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_compare_prints_what_it_writes(self, workdir, capsys, fmt, rank_by):
        out = workdir / "run"
        ranking = ["--rank-by", rank_by] if rank_by else []
        code, stdout, _ = run(
            capsys, "compare", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", "--alerts", workdir / "det.jsonl",
            "--format", fmt, *ranking, "--out", out,
        )
        assert code == 0
        reports = self.api_reports(workdir, ["det.jsonl", "baseline:never"])
        expected = build_table(reports, rank_by).render(fmt)
        assert stdout == (out / f"comparison.{fmt}").read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_one_detector_compare_prints_the_evaluate_table(self, workdir, capsys, fmt):
        printed = [
            run(capsys, verb, "--labels", workdir / "labels.csv", "--alerts", workdir / "det.jsonl",
                "--format", fmt, "--out", workdir / verb)
            for verb in ("evaluate", "compare")
        ]
        assert printed[0] == printed[1]
        assert printed[0][0] == 0


class TestTimeline:
    def test_writes_svg_and_summary(self, workdir, capsys):
        out = workdir / "run"
        code, stdout, _ = run(
            capsys, "timeline", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "det.jsonl", "--detector", "baseline:never",
            "--min-width", "30", "--out", out,
        )
        assert code == 0
        svg = (out / "timeline.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg")
        assert "wrote" in stdout and "(3 lanes, 1 alarms widened)" in stdout

    def test_min_width_duration_uses_tick_seconds(self):
        assert parse_min_width("60s", Fraction(1)) == 60.0
        assert parse_min_width("60s", Fraction(1, 10)) == 600.0
        assert parse_min_width("1.5m", Fraction(1)) == 90.0
        assert parse_min_width("2h", Fraction(60)) == 120.0
        assert parse_min_width("45", Fraction(1, 10)) == 45.0

    def test_min_width_garbage_exits_2(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "timeline", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", "--min-width", "fast",
            "--out", workdir / "run",
        )
        assert code == 2
        assert "cannot parse --min-width" in stderr
        assert not (workdir / "run").exists()
        with pytest.raises(ParameterError):
            parse_min_width("60x", Fraction(1))

    @pytest.mark.parametrize(
        "options",
        [["--min-width", "9" * 400], ["--tick-seconds", "1e-400", "--min-width", "60s"]],
        ids=["400-nines", "tiny-tick"],
    )
    def test_min_width_past_float_range_exits_2(self, workdir, capsys, options):
        code, _, stderr = run(
            capsys, "timeline", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", *options, "--out", workdir / "run",
        )
        assert code == 2
        assert stderr.startswith("error: --min-width ")
        assert stderr.count("\n") == 1 and "overflows a 64-bit float" in stderr
        assert not (workdir / "run").exists()

    def test_min_width_past_python_digit_limit_exits_2(self, workdir, capsys):
        # int() refuses strings of more than 4300 digits; that is a bad flag, not a crash.
        code, _, stderr = run(
            capsys, "timeline", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", "--min-width", "9" * 5000, "--out", workdir / "run",
        )
        assert code == 2
        assert stderr.startswith("error: malformed parameter: --min-width is not a number: '999")
        assert stderr.count("\n") == 1
        assert not (workdir / "run").exists()

    def test_timeline_has_no_format_option(self, workdir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["timeline", "--labels", str(workdir / "labels.csv"),
                  "--detector", "baseline:never", "--format", "svg",
                  "--out", str(workdir / "run")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --format svg" in capsys.readouterr().err
        assert not (workdir / "run").exists()

    def test_exempt_unknown_detector_exits_2(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "timeline", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", "--exempt", "ghost",
            "--out", workdir / "run",
        )
        assert code == 2
        assert "exempt names not among the detectors" in stderr
        assert not (workdir / "run").exists()


class TestRoc:
    def test_auto_sweep_writes_curve(self, workdir, capsys):
        out = workdir / "run"
        code, stdout, _ = run(
            capsys, "roc", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "scores.jsonl", "--auto", "--out", out,
        )
        assert code == 0
        assert "auc: 1.000000" in stdout
        text = (out / "roc.csv").read_text(encoding="utf-8")
        assert text.splitlines()[0] == "threshold,fpr,tpr"
        # Two distinct scores plus the two synthetic endpoints.
        assert len(text.splitlines()) == 5

    def test_tick_past_float_range_in_seconds_exits_2(self, workdir, capsys):
        # The sweep converts no tick to seconds, but the dataset is rejected on load.
        code, stdout, stderr = run(
            capsys, "roc", "--labels", workdir / "labels.csv", "--tick-seconds", "1e308",
            "--alerts", workdir / "scores.jsonl", "--auto", "--out", workdir / "run",
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: tick_seconds is too large")
        assert not (workdir / "run").exists()

    def test_json_format_encodes_infinities(self, workdir, capsys):
        out = workdir / "run"
        code, _, _ = run(
            capsys, "roc", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "scores.jsonl", "--auto",
            "--format", "json", "--out", out,
        )
        assert code == 0
        payload = json.loads((out / "roc.json").read_text(encoding="utf-8"))
        assert payload["auc"] == 1.0
        assert payload["points"][0]["threshold"] == "inf"
        assert payload["points"][-1]["threshold"] == "-inf"

    def test_explicit_thresholds(self, workdir, capsys):
        out = workdir / "run"
        code, _, _ = run(
            capsys, "roc", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "scores.jsonl", "--thresholds", "0.5,0.1",
            "--out", out,
        )
        assert code == 0
        assert len((out / "roc.csv").read_text().splitlines()) == 5

    def test_boolean_alerts_directed_to_evaluate(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "roc", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "det.jsonl", "--auto", "--out", workdir / "run",
        )
        assert code == 1
        assert "score them with evaluate instead" in stderr
        assert not (workdir / "run").exists()

    @pytest.mark.parametrize(
        "extra,match",
        [
            ([], "pass --thresholds LIST or --auto"),
            (["--thresholds", "0.5", "--auto"], "not both"),
            (["--thresholds", "high,low"], "comma-separated numbers"),
            (["--thresholds=nan"], "thresholds must be finite"),
            (["--thresholds", ","], "at least one threshold"),
        ],
    )
    def test_threshold_usage_errors(self, workdir, capsys, extra, match):
        code, _, stderr = run(
            capsys, "roc", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "scores.jsonl", "--out", workdir / "run", *extra,
        )
        assert code == 2
        assert match in stderr
        assert not (workdir / "run").exists()

    def test_negative_first_threshold_after_equals_sign(self, workdir, capsys):
        # "--thresholds -0.5,0.1" reads -0.5,0.1 as an option; the "=" form does not.
        out = workdir / "run"
        code, _, _ = run(
            capsys, "roc", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "scores.jsonl", "--thresholds=-0.5,0.1",
            "--out", out,
        )
        assert code == 0
        rows = (out / "roc.csv").read_text().splitlines()
        assert rows[2:4] == ["0.1,1.0,1.0", "-0.5,1.0,1.0"]

    def test_listed_thresholds_give_the_api_curve(self, workdir, capsys):
        # Repeats go, and of the signed zeros the first listed (-0.0) is kept.
        listed = [0.5, -0.0, 0.0, 0.5]
        out = workdir / "run"
        code, _, stderr = run(
            capsys, "roc", "--labels", workdir / "labels.csv", "--alerts",
            workdir / "scores.jsonl", "--thresholds=0.5,-0.0,0.0,0.5", "--out", out,
        )
        assert code == 0, stderr
        series = load_labels(workdir / "labels.csv")
        curve = pointwise.roc(series, load_alerts(workdir / "scores.jsonl", series), listed)
        assert (out / "roc.csv").read_bytes() == b"".join(roc_csv_chunks(curve))
        assert curve.thresholds[1:-1].tolist() == [0.5, 0.0]
        assert np.signbit(curve.thresholds[2])

    def test_multiclass_labels_are_collapsed(self, workdir, capsys):
        multi = workdir / "multi.csv"
        rows = ["timestamp,label"]
        for t in range(20):
            label = "dos" if t < 5 else ("spoof" if t < 10 else "benign")
            rows.append(f"{t},{label}")
        multi.write_text("\n".join(rows) + "\n", encoding="utf-8")
        scores = workdir / "multi-scores.jsonl"
        with open(scores, "w", encoding="utf-8") as handle:
            for t in range(20):
                handle.write(json.dumps({"timestamp": t, "score": 1.0 if t < 10 else 0.0}) + "\n")
        code, stdout, _ = run(
            capsys, "roc", "--labels", multi, "--alerts", scores,
            "--auto", "--out", workdir / "run",
        )
        assert code == 0
        assert "auc: 1.000000" in stdout

    @pytest.mark.parametrize("fmt,writer", [("csv", "roc_csv_chunks"), ("json", "roc_json_chunks")])
    def test_failed_write_leaves_no_curve(self, workdir, capsys, monkeypatch, fmt, writer):
        real = getattr(cli, writer)

        def full_disk(*args):
            chunks = real(*args)
            yield next(chunks)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, writer, full_disk)
        out = workdir / "run"
        code, stdout, stderr = run(
            capsys, "roc", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "scores.jsonl", "--auto",
            "--format", fmt, "--out", out,
        )
        assert (code, stdout) == (1, "")
        assert stderr.splitlines() == ["error: [Errno 28] No space left on device"]
        # The alert copy stays; neither the curve nor its partial file does.
        assert [path.name for path in out.iterdir()] == ["alerts"]


def full_disk(path_index):
    """A writer that writes part of its file, at argument ``path_index``, then fails."""
    def write(*args, **kwargs):
        Path(args[path_index]).write_bytes(b"part of it")
        raise OSError(errno.ENOSPC, "No space left on device")

    return write


class TestAtomicArtifacts:
    """A failed write leaves neither its artifact nor a temporary file in --out."""

    @pytest.mark.parametrize(
        "argv,owner,attr,path_index,left",
        [
            (["evaluate", "--alerts", "det.jsonl"], "shutil", "copyfile", 1, []),
            (["evaluate", "--detector", "baseline:never"], "cli", "save_alerts", 2, []),
            (["evaluate", "--alerts", "det.jsonl"], "Path", "write_text", 0, ["alerts/det.jsonl"]),
            (
                ["compare", "--alerts", "det.jsonl", "--detector", "baseline:never"],
                "Path", "write_text", 0, ["alerts/baseline_never.jsonl", "alerts/det.jsonl"],
            ),
            (
                ["timeline", "--alerts", "det.jsonl"],
                "TimelineRendering", "save", 1, ["alerts/det.jsonl"],
            ),
            (["baseline", "--detector", "baseline:never"], "cli", "save_alerts", 2, []),
        ],
        ids=["alert-copy", "baseline-copy", "report", "comparison", "timeline", "baseline"],
    )
    def test_failed_write_leaves_nothing_behind(
        self, workdir, capsys, monkeypatch, argv, owner, attr, path_index, left
    ):
        owners = {"cli": cli, "shutil": shutil, "Path": Path, "TimelineRendering": TimelineRendering}
        monkeypatch.setattr(owners[owner], attr, full_disk(path_index))
        monkeypatch.chdir(workdir)
        out = workdir / "run"
        code, stdout, stderr = run(capsys, *argv, "--labels", "labels.csv", "--out", out)
        assert code == 1
        # evaluate and compare warn about baseline:never before they write.
        warned = argv[0] != "baseline" and "baseline:never" in argv
        never = "warning: baseline:never: detector never alarms; recall-style metrics will be 0"
        assert stderr.splitlines() == [never] * warned + [
            "error: [Errno 28] No space left on device"
        ]
        files = sorted(str(path.relative_to(out)) for path in out.rglob("*") if path.is_file())
        assert files == left

    def test_timeline_write_failing_midway_leaves_nothing_behind(
        self, workdir, capsys, monkeypatch
    ):
        # save streams the SVG in pieces; the disk fills after the first one.
        real_open, writes = builtins.open, []

        class FullDisk(io.FileIO):
            def write(self, data):
                writes.append(len(data))
                if len(writes) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        def open_(file, mode="r", *args, **kwargs):
            if Path(file).name.startswith(".timeline.svg.") and mode == "wb":
                return FullDisk(file, "w")
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", open_)
        monkeypatch.chdir(workdir)
        out = workdir / "run"
        code, stdout, stderr = run(
            capsys, "timeline", "--labels", "labels.csv", "--alerts", "det.jsonl", "--out", out
        )
        assert (code, stdout) == (1, "")
        assert stderr.splitlines() == ["error: [Errno 28] No space left on device"]
        assert len(writes) == 2 and writes[0] > 0
        files = sorted(str(path.relative_to(out)) for path in out.rglob("*"))
        assert files == ["alerts", "alerts/det.jsonl"]


class TestBaselineVerb:
    def test_writes_each_detector(self, workdir, capsys):
        out = workdir / "base"
        code, stdout, _ = run(
            capsys, "baseline", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", "--detector", "baseline:random:p=0.5",
            "--seed", "9", "--out", out,
        )
        assert code == 0
        assert (out / "baseline_never.jsonl").exists()
        assert (out / "baseline_random_p_0.5_seed_9.jsonl").exists()
        assert stdout.count("wrote ") == 2

    def test_regeneration_is_byte_identical(self, workdir, capsys):
        outs = [workdir / "base1", workdir / "base2"]
        for out in outs:
            code, _, _ = run(
                capsys, "baseline", "--labels", workdir / "labels.csv",
                "--detector", "baseline:random:p=0.5", "--seed", "9", "--out", out,
            )
            assert code == 0
        name = "baseline_random_p_0.5_seed_9.jsonl"
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize(
        "detector,seed",
        [("baseline:random:p=0.5:seed=-7", "0"), ("baseline:random:p=0.5", "-7")],
    )
    @pytest.mark.parametrize("verb", ["baseline", "compare"])
    def test_negative_seed_exits_2(self, workdir, capsys, verb, detector, seed):
        # random.Random(-7) is random.Random(7): the two would be one detector.
        code, stdout, stderr = run(
            capsys, verb, "--labels", workdir / "labels.csv", "--detector", detector,
            "--seed", seed, "--out", workdir / "run",
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "error: baseline seed must be non-negative, got -7\n"
        assert not (workdir / "run").exists()

    def test_generated_files_load_back(self, workdir, capsys):
        out = workdir / "base"
        run(
            capsys, "baseline", "--labels", workdir / "labels.csv",
            "--detector", "baseline:always", "--out", out,
        )
        code, stdout, _ = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--alerts", out / "baseline_always.jsonl",
            "--metrics", "tpr", "--out", workdir / "run",
        )
        assert code == 0
        assert "| baseline:always | 1 |" in stdout

    def test_invalid_spec_exits_2(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "baseline", "--labels", workdir / "labels.csv",
            "--detector", "baseline:coin", "--out", workdir / "run",
        )
        assert code == 2
        assert "unknown baseline" in stderr

    def test_a_rejected_later_spec_writes_nothing(self, workdir, capsys):
        code, stdout, stderr = run(
            capsys, "baseline", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", "--detector", "baseline:coin",
            "--out", workdir / "run",
        )
        assert code == 2
        assert stdout == ""
        assert "unknown baseline 'coin'" in stderr
        assert not (workdir / "run").exists()


class TestUsage:
    def test_missing_subcommand_is_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_errors_are_single_line_and_prefixed(self, workdir, capsys):
        cases = [
            ["evaluate", "--labels", str(workdir / "nope.csv"), "--detector", "baseline:never"],
            ["evaluate", "--labels", str(workdir / "labels.csv")],
            ["roc", "--labels", str(workdir / "labels.csv"),
             "--alerts", str(workdir / "det.jsonl"), "--auto"],
        ]
        for argv in cases:
            code = main(argv + ["--out", str(workdir / "run")])
            captured = capsys.readouterr()
            assert code in (1, 2)
            lines = [l for l in captured.err.splitlines() if l]
            assert lines[0].startswith("error: ")


class TestSpecsBeforeFiles:
    """Specs, and every flag that needs no file, are checked before any file is read."""

    @pytest.fixture(autouse=True)
    def no_reads(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("load_labels was called")

        monkeypatch.setattr(cli, "load_labels", refuse)

    @pytest.mark.parametrize("verb", ["evaluate", "compare"])
    def test_bad_metric_spec(self, workdir, capsys, verb):
        code, _, stderr = run(
            capsys, verb, "--labels", workdir / "labels.csv", "--alerts", workdir / "det.jsonl",
            "--metrics", "f1,fbeta:beta=0", "--out", workdir / "run",
        )
        assert code == 2
        assert stderr.splitlines() == ["error: beta must be positive, got 0"]
        assert not (workdir / "run").exists()

    @pytest.mark.parametrize("verb", ["evaluate", "compare", "timeline", "roc"])
    def test_bad_baseline_spec(self, workdir, capsys, verb):
        code, _, stderr = run(
            capsys, verb, "--labels", workdir / "labels.csv",
            "--detector", "baseline:coin", "--out", workdir / "run",
        )
        assert code == 2
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error: unknown baseline 'coin'")
        assert not (workdir / "run").exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["evaluate", "--gap-tolerance", "-1"], "gap_tolerance must be non-negative"),
            (["compare", "--gap-tolerance", "-1"], "gap_tolerance must be non-negative"),
            (
                ["roc", "--thresholds", "a,b"],
                "--thresholds must be comma-separated numbers, got 'a,b'",
            ),
            (
                ["roc", "--thresholds", "0.5", "--auto"],
                "pass either --thresholds or --auto, not both",
            ),
            (["roc"], "pass --thresholds LIST or --auto to choose operating points"),
            (
                ["timeline", "--min-width", "5x"],
                "cannot parse --min-width '5x'; use a tick count or a duration like 60s",
            ),
            (["roc", "--thresholds", "nan"], "thresholds must be finite"),
            (["roc", "--thresholds", "0.5,inf"], "thresholds must be finite"),
            (["roc", "--thresholds", ","], "at least one threshold is required"),
        ],
        ids=["evaluate-gap", "compare-gap", "roc-thresholds", "roc-both", "roc-neither",
             "timeline-min-width", "roc-nan", "roc-inf", "roc-empty"],
    )
    def test_bad_verb_flag(self, workdir, capsys, argv, message):
        code, _, stderr = run(
            capsys, *argv, "--labels", workdir / "nope.csv",
            "--alerts", workdir / "scores.jsonl", "--out", workdir / "run",
        )
        assert (code, stderr.splitlines()) == (2, [f"error: {message}"])
        assert not (workdir / "run").exists()

    @pytest.mark.parametrize("flag", ["--name", "--tick-seconds"])
    @pytest.mark.parametrize("verb", ["evaluate", "compare", "timeline", "roc", "baseline"])
    def test_labels_flag_with_a_manifest(self, workdir, capsys, monkeypatch, verb, flag):
        # The manifest names the dataset and sets its tick; a flag that would
        # not be used is refused rather than dropped.
        def refuse(*args, **kwargs):
            raise AssertionError("load_manifest was called")

        monkeypatch.setattr(cli, "load_manifest", refuse)
        auto = ["--auto"] if verb == "roc" else []
        code, _, stderr = run(
            capsys, verb, "--config", workdir / "data.json", flag, "0.1", *auto,
            "--detector", "baseline:never", "--out", workdir / "run",
        )
        assert (code, stderr.splitlines()) == (
            2, [f"error: {flag} goes with --labels; a manifest sets its own"]
        )
        assert not (workdir / "run").exists()


class TestFlagsReadOnce:
    """Each verb reads its baseline specs and its own flags once, before any file."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"parse": 0, "_roc_thresholds": 0, "_width_match": 0}

        def counted(name, fn):
            def spy(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(BaselineSpec, "parse", counted("parse", BaselineSpec.parse))
        for name in ("_roc_thresholds", "_width_match"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        return counts

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["evaluate", "--detector", "baseline:random:p=0.5"], (1, 0, 0)),
            (["compare", "--alerts", "det.jsonl", "--detector", "baseline:never"], (1, 0, 0)),
            (["roc", "--alerts", "scores.jsonl", "--thresholds", "0.5"], (0, 1, 0)),
            (["timeline", "--detector", "baseline:always", "--min-width", "2s"], (1, 0, 1)),
            (["baseline", "--detector", "baseline:never"], (1, 0, 0)),
        ],
        ids=["evaluate", "compare", "roc", "timeline", "baseline"],
    )
    def test_each_flag_is_read_once(self, workdir, capsys, monkeypatch, calls, argv, expected):
        monkeypatch.chdir(workdir)
        code, _, stderr = run(capsys, *argv, "--labels", "labels.csv", "--out", "run")
        assert code == 0, stderr
        assert tuple(calls.values()) == expected


class FullStream:
    """A text stream whose every write fails as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        pass


class TestUnwritableStderr:
    """An ``error:`` line that cannot be written leaves main's exit code as it is."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["evaluate", "--labels", "labels.csv", "--alerts", "det.jsonl",
              "--metrics", "nope"], 2),
            (["evaluate", "--labels", "labels.csv", "--alerts", "det.jsonl",
              "--metrics", "fbeta:beta=0"], 2),
            (["roc", "--config", "data.json", "--auto"], 1),
            (["evaluate", "--bogus"], 1),
        ],
        ids=["unknown-metric", "parameter-error", "data-error", "usage-error"],
    )
    def test_main_returns_its_code(self, workdir, monkeypatch, argv, expected):
        monkeypatch.chdir(workdir)
        monkeypatch.setattr(sys, "stderr", FullStream())
        assert main([*argv, "--out", "run"]) == expected
        assert not (workdir / "run").exists()


class TestInputErrorsAreOneLine:
    """Bad bytes and out-of-range numbers end as one ``error:`` line, exit 1."""

    def assert_one_error(self, capsys, argv, expected):
        code, _, stderr = run(capsys, *argv)
        assert code == 1
        assert stderr.splitlines() == [f"error: {expected}"]

    def test_huge_integer_score_in_roc(self, workdir, capsys):
        scores = workdir / "huge.jsonl"
        lines = (workdir / "scores.jsonl").read_text(encoding="utf-8").splitlines()
        lines[6] = '{"timestamp": 6, "score": ' + "9" * 400 + "}"
        scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assert_one_error(
            capsys,
            ["roc", "--labels", workdir / "labels.csv", "--alerts", scores, "--auto",
             "--out", workdir / "run"],
            f"{scores}: line 7: 'score' is too large for a 64-bit float",
        )

    def test_labels_not_utf8(self, workdir, capsys):
        labels = workdir / "latin1.csv"
        labels.write_bytes("timestamp,label\n0,benign\n1,d\xe9ni\n".encode("latin-1"))
        self.assert_one_error(
            capsys,
            ["evaluate", "--labels", labels, "--detector", "baseline:never",
             "--out", workdir / "run"],
            f"{labels}: line 3: not valid UTF-8 (byte 0xe9)",
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"name": "plant", "labels": "labels.csv", "tick_seconds": ' + "9" * 5000 + "}",
             "invalid JSON: number has too many digits"),
            ("[" * 200_000, "invalid JSON: nested too deeply"),
        ],
        ids=["5000-digit-tick", "deep-nesting"],
    )
    def test_manifest_past_the_json_limits(self, workdir, capsys, text, message):
        manifest = workdir / "limits.json"
        manifest.write_text(text, encoding="utf-8")
        self.assert_one_error(
            capsys,
            ["evaluate", "--config", manifest, "--out", workdir / "run"],
            f"{manifest}: {message}",
        )

    def test_deeply_nested_alert_value(self, workdir, capsys):
        alerts = workdir / "nested.jsonl"
        lines = (workdir / "det.jsonl").read_text(encoding="utf-8").splitlines()
        lines[3] = '{"timestamp": 3, "alert": ' + "[" * 200_000 + "]" * 200_000 + "}"
        alerts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assert_one_error(
            capsys,
            ["evaluate", "--labels", workdir / "labels.csv", "--alerts", alerts,
             "--out", workdir / "run"],
            f"{alerts}: line 4: invalid JSON: nested too deeply",
        )

    def test_timestamp_beyond_int64(self, workdir, capsys):
        labels = workdir / "far.csv"
        labels.write_text(f"timestamp,label\n0,benign\n{2**70},dos\n", encoding="utf-8")
        self.assert_one_error(
            capsys,
            ["evaluate", "--labels", labels, "--detector", "baseline:never",
             "--out", workdir / "run"],
            f"{labels}: line 3: timestamp {2**70} is outside the 64-bit integer range",
        )


def test_import_leaves_out_the_network_stack():
    """Importing the CLI must not load urllib.request, http.client or email (~50 ms, ~6 MB)."""
    code = (
        "import sys, idseval.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m in ('urllib.request', 'http.client') or m.split('.')[0] == 'email'))"
    )
    assert fresh_python("-c", code) == "[]\n"


def test_evaluate_and_compare_leave_out_floattext():
    """``floattext`` is imported on use: importing the CLI, ``evaluate`` and
    ``compare`` (which writes a mixed boolean copy) never load it."""
    demo = Path(__file__).resolve().parents[1] / "data" / "demo"
    code = (
        "import sys, tempfile, idseval.cli\n"
        "loaded = ['idseval.floattext' in sys.modules]\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    for verb in ('evaluate', 'compare', 'timeline'):\n"
        f"        args = [verb, '--config', {str(demo / 'manifest.json')!r}, '--out', out]\n"
        "        if verb == 'compare':\n"
        "            args += ['--detector', 'baseline:random:p=0.5']\n"
        "        assert idseval.cli.main(args) == 0\n"
        "        loaded.append('idseval.floattext' in sys.modules)\n"
        "print(loaded)"
    )
    assert fresh_python("-c", code).splitlines()[-1] == "[False, False, False, True]"


def test_roc_evaluate_and_compare_leave_out_numpy_ma():
    """A plain ``np.unique`` imports ``numpy.ma`` (to ask ``np.ma.is_masked``);
    no verb calls one, so ``roc --auto`` and the metrics that counted distinct
    values never load it."""
    demo = Path(__file__).resolve().parents[1] / "data" / "demo"
    metrics = "f1,affiliation,detected-scenarios:by-type"
    runs = [
        ["roc", "--labels", str(demo / "labels.csv"), "--alerts", str(demo / "scored.jsonl"),
         "--auto"],
        ["evaluate", "--config", str(demo / "manifest.json"), "--metrics", metrics],
        ["compare", "--config", str(demo / "manifest.json"),
         "--detector", "baseline:random:p=0.5", "--metrics", metrics],
    ]
    code = (
        "import sys, tempfile, idseval.cli\n"
        "loaded = ['numpy.ma' in sys.modules]\n"
        f"for args in {runs!r}:\n"
        "    with tempfile.TemporaryDirectory() as out:\n"
        "        assert idseval.cli.main([*args, '--out', out]) == 0\n"
        "    loaded.append('numpy.ma' in sys.modules)\n"
        "print(loaded)"
    )
    assert fresh_python("-c", code).splitlines()[-1] == "[False, False, False, False]"


def test_cli_import_leaves_out_dataclasses_csv_and_floattext(tmp_path):
    """Records generate no code at import and ``csv`` is imported on use: a
    label file out of the ``save_labels`` layout still loads through it."""
    labels = tmp_path / "labels.csv"
    labels.write_text('timestamp,label\n0,benign\n1,"dos, syn"\n2,benign\n')
    code = (
        "import sys, idseval.cli\n"
        "print([m for m in ('dataclasses', 'csv', 'idseval.floattext') if m in sys.modules])\n"
        f"series = idseval.cli.load_labels({str(labels)!r})\n"
        "print(series.attack_types, series.label_codes.tolist(), 'csv' in sys.modules)"
    )
    assert fresh_python("-c", code).splitlines() == ["[]", "('dos, syn',) [0, 1, 0] True"]


def test_package_import_leaves_out_numpy():
    code = "import sys, idseval\nprint('numpy' in sys.modules)"
    assert fresh_python("-c", code) == "False\n"


@pytest.mark.parametrize(
    "module,preset,expected",
    [("idseval.cli", None, "1"), ("idseval.cli", "3", "3"), ("idseval", None, "None")],
    ids=["cli-default", "user-setting-wins", "library-untouched"],
)
def test_cli_defaults_openblas_to_one_thread(module, preset, expected):
    code = f"import os, {module}\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert fresh_python("-c", code, OPENBLAS_NUM_THREADS=preset) == f"{expected}\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_cli_process_starts_no_blas_workers():
    """After ``import idseval.cli`` (which imports numpy) the process runs one thread."""
    code = "import os, idseval.cli\nprint(len(os.listdir('/proc/self/task')))"
    assert fresh_python("-c", code, OPENBLAS_NUM_THREADS=None) == "1\n"


@pytest.mark.parametrize("verb", ["evaluate", "compare", "timeline", "roc", "baseline"])
def test_verb_help_runs_as_module(verb):
    assert fresh_python("-m", "idseval.cli", verb, "--help").startswith("usage: idseval " + verb)
