"""File loading, saving, validation and manifest parsing."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from idseval import (
    AlertKind,
    AlertSeries,
    DatasetManifest,
    IngestError,
    ValidationReport,
    load_alerts,
    load_labels,
    load_manifest,
    save_alerts,
    save_labels,
    validate_pair,
)
from support import make_alerts, make_series, random_binary_instance

DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def label_csv(rows):
    return "timestamp,label\n" + "".join(f"{t},{l}\n" for t, l in rows)


def alert_jsonl(records):
    return "".join(json.dumps(r) + "\n" for r in records)


class TestLoadLabels:
    def test_basic_load(self, tmp_path):
        path = write(tmp_path / "demo.csv", label_csv([(0, "benign"), (1, "dos"), (2, "dos")]))
        series = load_labels(path)
        assert series.name == "demo"
        assert list(series.timestamps) == [0, 1, 2]
        assert series.labels_as_strings() == ["benign", "dos", "dos"]
        assert series.tick_seconds == 1

    def test_name_and_tick_override(self, tmp_path):
        path = write(tmp_path / "demo.csv", label_csv([(0, "benign")]))
        series = load_labels(path, name="plant", tick_seconds="0.1")
        assert series.name == "plant"
        assert series.tick_seconds == Fraction(1, 10)

    def test_iso_timestamps_become_epoch_seconds(self, tmp_path):
        path = write(
            tmp_path / "iso.csv",
            "timestamp,label\n"
            "2021-01-01T00:00:00+00:00,benign\n"
            "2021-01-01T00:00:01+00:00,dos\n",
        )
        series = load_labels(path)
        assert list(series.timestamps) == [1609459200, 1609459201]

    def test_naive_iso_treated_as_utc(self, tmp_path):
        path = write(tmp_path / "iso.csv", "timestamp,label\n1970-01-01T00:01:00,benign\n")
        assert list(load_labels(path).timestamps) == [60]

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "empty file"),
            ("time,label\n0,benign\n", "expected header"),
            ("timestamp,label\n", "no data rows"),
            ("timestamp,label\n0,benign,extra\n", "line 2: expected 2 fields"),
            ("timestamp,label\n0,\n", "line 2: empty label"),
            ("timestamp,label\nabc,benign\n", "line 2: timestamp must be"),
            ("timestamp,label\n0,benign\n0,dos\n", "line 3: duplicate timestamp"),
            ("timestamp,label\n5,benign\n1,dos\n", "line 3: non-increasing timestamp"),
            ("timestamp,label\n2021-01-01T00:00:00.500,x\n", "sub-second"),
        ],
    )
    def test_malformed_files(self, tmp_path, text, match):
        path = write(tmp_path / "bad.csv", text)
        with pytest.raises(IngestError, match=match):
            load_labels(path)

    def test_int64_extremes_load(self, tmp_path):
        path = write(tmp_path / "wide.csv", label_csv([(-(2**63), "benign"), (2**63 - 1, "dos")]))
        assert list(load_labels(path).timestamps) == [-(2**63), 2**63 - 1]

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "demo.csv", "timestamp,label\n0,benign\n\n1,dos\n")
        assert len(load_labels(path)) == 2

    def test_round_trip(self, tmp_path):
        rng = random.Random(1213)
        labels, _ = random_binary_instance(rng)
        series = make_series(labels, name="rt")
        out = tmp_path / "rt.csv"
        save_labels(series, out)
        loaded = load_labels(out, name="rt")
        assert list(loaded.timestamps) == list(series.timestamps)
        assert loaded.labels_as_strings() == series.labels_as_strings()


class TestLoadAlerts:
    def test_boolean_alerts(self, tmp_path):
        series = make_series(["benign", "dos", "dos"], name="demo")
        records = [{"timestamp": t, "alert": t == 1} for t in range(3)]
        path = write(tmp_path / "det.jsonl", alert_jsonl(records))
        alerts = load_alerts(path, series)
        assert alerts.kind is AlertKind.BOOLEAN
        assert alerts.detector == "det"
        assert alerts.aligned_to == "demo"
        assert list(alerts.values) == [False, True, False]

    def test_scored_alerts(self, tmp_path):
        series = make_series(["benign", "dos"], name="demo")
        records = [{"timestamp": 0, "score": 0.25}, {"timestamp": 1, "score": 2}]
        path = write(tmp_path / "scores.jsonl", alert_jsonl(records))
        alerts = load_alerts(path, series)
        assert alerts.kind is AlertKind.SCORED
        assert list(alerts.values) == [0.25, 2.0]

    def test_detector_precedence(self, tmp_path):
        series = make_series(["benign"], name="demo")
        records = [{"timestamp": 0, "alert": True, "detector": "from-field"}]
        path = write(tmp_path / "stem.jsonl", alert_jsonl(records))
        assert load_alerts(path, series).detector == "from-field"
        assert load_alerts(path, series, detector="arg").detector == "arg"
        bare = write(
            tmp_path / "bare.jsonl", alert_jsonl([{"timestamp": 0, "alert": True}])
        )
        assert load_alerts(bare, series).detector == "bare"

    @pytest.mark.parametrize(
        "records,match",
        [
            ([{"timestamp": 0}], "exactly one of 'alert' or 'score'"),
            ([{"timestamp": 0, "alert": True, "score": 1.0}], "exactly one"),
            ([{"timestamp": 0, "alert": 1}], "'alert' must be true or false"),
            ([{"timestamp": 0, "score": "high"}], "'score' must be a number"),
            ([{"timestamp": 0, "score": True}], "'score' must be a number"),
            ([{"alert": True}], "missing 'timestamp'"),
            ([{"timestamp": 0, "alert": True, "level": 3}], "unknown fields: level"),
            (
                [{"timestamp": 0, "alert": True}, {"timestamp": 1, "score": 0.5}],
                "mixes 'alert' and 'score'",
            ),
            (
                [
                    {"timestamp": 0, "alert": True, "detector": "a"},
                    {"timestamp": 1, "alert": True, "detector": "b"},
                ],
                "conflicting detector names",
            ),
            ([{"timestamp": 0, "alert": True, "detector": ""}], "non-empty string"),
            ([{"timestamp": True, "alert": False}], "timestamp must be"),
        ],
    )
    def test_malformed_records(self, tmp_path, records, match):
        series = make_series(["benign", "benign"], name="demo")
        path = write(tmp_path / "bad.jsonl", alert_jsonl(records))
        with pytest.raises(IngestError, match=match):
            load_alerts(path, series)

    def test_invalid_json_reports_line(self, tmp_path):
        series = make_series(["benign"], name="demo")
        path = write(tmp_path / "bad.jsonl", '{"timestamp": 0, "alert": true}\n{oops\n')
        with pytest.raises(IngestError, match="line 2: invalid JSON"):
            load_alerts(path, series)

    def test_non_object_line_rejected(self, tmp_path):
        series = make_series(["benign"], name="demo")
        path = write(tmp_path / "bad.jsonl", "[1, 2]\n")
        with pytest.raises(IngestError, match="expected a JSON object"):
            load_alerts(path, series)

    def test_infinite_score_rejected(self, tmp_path):
        series = make_series(["benign"], name="demo")
        path = write(tmp_path / "bad.jsonl", '{"timestamp": 0, "score": Infinity}\n')
        with pytest.raises(IngestError, match="must be finite"):
            load_alerts(path, series)

    def test_empty_file_rejected(self, tmp_path):
        series = make_series(["benign"], name="demo")
        path = write(tmp_path / "empty.jsonl", "\n\n")
        with pytest.raises(IngestError, match="no alert records"):
            load_alerts(path, series)

    def test_misalignment_lists_first_ten_each_way(self, tmp_path):
        series = make_series(["benign"] * 30, name="demo")
        records = [{"timestamp": t + 100, "alert": False} for t in range(30)]
        path = write(tmp_path / "off.jsonl", alert_jsonl(records))
        with pytest.raises(IngestError) as excinfo:
            load_alerts(path, series)
        message = str(excinfo.value)
        assert "do not align with dataset 'demo'" in message
        assert "30 dataset timestamps missing (first: 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)" in message
        assert "30 unexpected timestamps (first: 100, 101" in message

    def test_partial_overlap_misalignment(self, tmp_path):
        series = make_series(["benign"] * 3, name="demo")
        records = [{"timestamp": t, "alert": False} for t in (0, 2)]
        path = write(tmp_path / "short.jsonl", alert_jsonl(records))
        with pytest.raises(IngestError, match=r"1 dataset timestamps missing \(first: 1\)"):
            load_alerts(path, series)

    def test_iso_timestamps_align_with_epoch_labels(self, tmp_path):
        series = make_series(["benign", "dos"], name="demo", timestamps=[1609459200, 1609459201])
        records = [
            {"timestamp": "2021-01-01T00:00:00+00:00", "alert": False},
            {"timestamp": "2021-01-01T00:00:01+00:00", "alert": True},
        ]
        path = write(tmp_path / "iso.jsonl", alert_jsonl(records))
        assert list(load_alerts(path, series).values) == [False, True]

    @pytest.mark.parametrize("kind", ["bool", "score"])
    def test_save_load_round_trip(self, tmp_path, kind):
        series = make_series(["benign", "dos", "benign"], name="demo")
        if kind == "bool":
            alerts = make_alerts([True, False, True], detector="det", aligned_to="demo")
        else:
            from idseval import AlertSeries

            alerts = AlertSeries.from_scores("det", [0.5, 1.25, -3.0], "demo")
        path = tmp_path / "out.jsonl"
        save_alerts(alerts, series, path)
        loaded = load_alerts(path, series)
        assert loaded.detector == "det"
        assert loaded.kind is alerts.kind
        assert list(loaded.values) == list(alerts.values)

    def test_save_alerts_bytes_are_deterministic(self, tmp_path):
        series = make_series(["benign"] * 5, name="demo")
        alerts = make_alerts([True, False, True, False, True], aligned_to="demo")
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_alerts(alerts, series, first)
        save_alerts(alerts, series, second)
        assert first.read_bytes() == second.read_bytes()
        assert (
            first.read_text().splitlines()[0]
            == '{"timestamp": 0, "alert": true, "detector": "det"}'
        )


class TestSaveAlertsBytes:
    """save_alerts must write exactly ``json.dumps(record) + "\\n"`` per point."""

    TIMESTAMPS = [-123456789012345678, -5, 0, 7, 123456789012345678]

    @staticmethod
    def json_dumps_bytes(series, alerts):
        key = "alert" if alerts.kind is AlertKind.BOOLEAN else "score"
        lines = []
        for ts, value in zip(series.timestamps, alerts.values):
            value = bool(value) if key == "alert" else float(value)
            record = {"timestamp": int(ts), key: value, "detector": alerts.detector}
            lines.append(json.dumps(record) + "\n")
        return "".join(lines).encode("utf-8")

    @pytest.mark.parametrize(
        "detector", ["det", "détecteur", "検出器", 'say "hi"', "back\\slash", "50% %d %r"]
    )
    @pytest.mark.parametrize("kind", ["bool", "score"])
    def test_bytes_equal_json_dumps(self, tmp_path, detector, kind):
        series = make_series(["benign"] * 5, name="demo", timestamps=self.TIMESTAMPS)
        if kind == "bool":
            alerts = AlertSeries.from_bool(detector, [True, False, False, True, True], "demo")
        else:
            scores = [1e-05, 1e16, -0.0, 5e-324, 1.7976931348623157e308]
            alerts = AlertSeries.from_scores(detector, scores, "demo")
        path = tmp_path / "out.jsonl"
        save_alerts(alerts, series, path)
        assert path.read_bytes() == self.json_dumps_bytes(series, alerts)

    @pytest.mark.parametrize("name", ["lagged.jsonl", "scored.jsonl"])
    def test_demo_files_round_trip(self, tmp_path, name):
        series = load_labels(DEMO / "labels.csv", name="demo")
        alerts = load_alerts(DEMO / name, series)
        save_alerts(alerts, series, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (DEMO / name).read_bytes()


class TestValidatePair:
    def test_exact_attack_fraction(self):
        labels = ["dos"] * 22 + ["benign"] * 78
        report = validate_pair(make_series(labels))
        assert report.attack_fraction == Fraction(22, 100)
        assert report.n_points == 100
        assert report.n_scenarios == 1
        assert report.scenarios_by_type == {"dos": 1}
        assert report.duration_seconds == 100

    def test_duration_uses_tick_seconds(self):
        series = make_series(["benign"] * 10, tick_seconds="0.1")
        assert validate_pair(series).duration_seconds == 1

    def test_warning_no_scenarios(self):
        report = validate_pair(make_series(["benign"] * 5))
        assert any("no attack scenarios" in w for w in report.warnings)

    def test_warning_all_attack(self):
        report = validate_pair(make_series(["dos"] * 5))
        assert any("every point is an attack" in w for w in report.warnings)

    def test_warning_heavy_imbalance(self):
        labels = ["dos"] + ["benign"] * 199
        report = validate_pair(make_series(labels))
        assert any("under 1%" in w for w in report.warnings)

    def test_warning_never_and_always_alarms(self):
        series = make_series(["dos"] * 2 + ["benign"] * 2)
        never = validate_pair(series, make_alerts([False] * 4))
        assert any("never alarms" in w for w in never.warnings)
        assert never.alert_fraction == 0
        always = validate_pair(series, make_alerts([True] * 4))
        assert any("always alarms" in w for w in always.warnings)
        assert always.alert_fraction == 1

    def test_warning_scored_alerts(self):
        from idseval import AlertSeries

        series = make_series(["dos", "benign"])
        scored = AlertSeries.from_scores("det", [0.5, 0.1], "series")
        report = validate_pair(series, scored)
        assert report.alert_kind is AlertKind.SCORED
        assert report.alert_fraction is None
        assert any("threshold" in w for w in report.warnings)

    def test_gap_tolerance_merges_scenarios(self):
        labels = ["dos", "benign", "dos"]
        assert validate_pair(make_series(labels)).n_scenarios == 2
        assert validate_pair(make_series(labels), gap_tolerance=1).n_scenarios == 1

    def test_summary_lines_mention_everything(self):
        series = make_series(["dos"] * 2 + ["benign"] * 8)
        report = validate_pair(series, make_alerts([True] + [False] * 9))
        text = "\n".join(report.summary_lines())
        assert "attack fraction: 0.2 (1/5)" in text
        assert "dos: 1" in text
        assert "alerts: boolean" in text
        assert "alert fraction: 0.1" in text

    def test_report_is_well_typed(self):
        report = validate_pair(make_series(["dos", "benign"]))
        assert isinstance(report, ValidationReport)
        assert isinstance(report.attack_fraction, Fraction)


class TestManifest:
    def test_load_and_resolve_paths(self, tmp_path):
        write(tmp_path / "labels.csv", label_csv([(0, "benign"), (1, "dos")]))
        write(tmp_path / "det.jsonl", alert_jsonl([{"timestamp": 0, "alert": True}]))
        manifest_path = write(
            tmp_path / "data.json",
            json.dumps(
                {
                    "name": "plant",
                    "labels": "labels.csv",
                    "tick_seconds": "0.1",
                    "description": "demo rig",
                    "alerts": ["det.jsonl"],
                }
            ),
        )
        manifest = load_manifest(manifest_path)
        assert isinstance(manifest, DatasetManifest)
        assert manifest.name == "plant"
        assert manifest.labels_path == tmp_path / "labels.csv"
        assert manifest.tick_seconds == Fraction(1, 10)
        assert manifest.alert_paths == (tmp_path / "det.jsonl",)
        series = manifest.load()
        assert series.name == "plant"
        assert series.tick_seconds == Fraction(1, 10)

    def test_defaults(self, tmp_path):
        write(tmp_path / "labels.csv", label_csv([(0, "benign")]))
        manifest = load_manifest(
            write(tmp_path / "m.json", json.dumps({"name": "x", "labels": "labels.csv"}))
        )
        assert manifest.tick_seconds == 1
        assert manifest.description == ""
        assert manifest.alert_paths == ()

    @pytest.mark.parametrize(
        "payload,match",
        [
            ("[1]", "must be a JSON object"),
            ("{oops", "invalid JSON"),
            (json.dumps({"labels": "x.csv"}), "non-empty string 'name'"),
            (json.dumps({"name": "x"}), "non-empty string 'labels'"),
            (json.dumps({"name": "x", "labels": "", "extra": 1}), "unknown manifest keys: extra"),
            (json.dumps({"name": "x", "labels": "l", "tick_seconds": "fast"}), "not a valid duration"),
            (json.dumps({"name": "x", "labels": "l", "tick_seconds": 0}), "must be positive"),
            (json.dumps({"name": "x", "labels": "l", "tick_seconds": True}), "number or string"),
            (json.dumps({"name": "x", "labels": "l", "alerts": "det.jsonl"}), "list of paths"),
            (json.dumps({"name": "x", "labels": "l", "description": 3}), "must be a string"),
        ],
    )
    def test_malformed_manifests(self, tmp_path, payload, match):
        path = write(tmp_path / "m.json", payload)
        with pytest.raises(IngestError, match=match):
            load_manifest(path)
