"""End-to-end command-line runs through main(argv)."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from idseval.cli import main, parse_min_width
from idseval import ParameterError
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

    def test_unknown_metric_exits_2_with_catalog(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "evaluate", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", "--metrics", "f2", "--out", workdir / "run",
        )
        assert code == 2
        assert stderr.splitlines()[0].startswith("error: unknown metric 'f2'")
        assert "metric catalog:" in stderr
        assert "fbeta" in stderr

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
        assert "roc" in stderr.splitlines()[-1]

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
        with pytest.raises(ParameterError):
            parse_min_width("60x", Fraction(1))

    def test_exempt_unknown_detector_exits_2(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "timeline", "--labels", workdir / "labels.csv",
            "--detector", "baseline:never", "--exempt", "ghost",
            "--out", workdir / "run",
        )
        assert code == 2
        assert "exempt names not among the detectors" in stderr


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

    @pytest.mark.parametrize(
        "extra,match",
        [
            ([], "pass --thresholds LIST or --auto"),
            (["--thresholds", "0.5", "--auto"], "not both"),
            (["--thresholds", "high,low"], "comma-separated numbers"),
        ],
    )
    def test_threshold_usage_errors(self, workdir, capsys, extra, match):
        code, _, stderr = run(
            capsys, "roc", "--labels", workdir / "labels.csv",
            "--alerts", workdir / "scores.jsonl", "--out", workdir / "run", *extra,
        )
        assert code == 2
        assert match in stderr

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

    def test_timestamp_beyond_int64(self, workdir, capsys):
        labels = workdir / "far.csv"
        labels.write_text(f"timestamp,label\n0,benign\n{2**70},dos\n", encoding="utf-8")
        self.assert_one_error(
            capsys,
            ["evaluate", "--labels", labels, "--detector", "baseline:never",
             "--out", workdir / "run"],
            f"{labels}: line 3: timestamp {2**70} is outside the 64-bit integer range",
        )
