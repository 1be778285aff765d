"""Labels held as runs.

A series built from per-point codes, one built from its runs and one that
``load_labels`` reads from a file (on the block route, with small blocks,
or through csv) are equal and answer every question alike: per-point codes
and mask, scenarios at each gap tolerance, the dataset report, confusion
counts and ROC curves. The verbs never ask a series for per-point codes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idseval import AlertSeries, LabeledSeries, extract_scenarios, ingest, validate_pair
from idseval.pointwise import confusion, roc
from oracles import ingest_oracle
from oracles.brute import brute_confusion, brute_merge_runs, brute_runs
from support import assert_verbs_write_the_golden_files, make_series

LABELS = ("benign", "0", "dos", "spoof", "replay")
BENIGN = ("benign", "0")


@st.composite
def traces(draw):
    """Labels in runs (neighbouring runs may share a label, or be "benign"
    and "0"), rising timestamps, alarms and scores, one per point."""
    runs = draw(st.lists(st.tuples(st.sampled_from(LABELS), st.integers(1, 6)),
                         min_size=1, max_size=12))
    labels = [label for label, length in runs for _ in range(length)]
    n = len(labels)
    steps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    timestamps = np.cumsum(steps).tolist()
    alerted = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    scores = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n))
    return labels, timestamps, alerted, scores


def runs_of(labels: list[str]) -> tuple[list[int], list[int], tuple[str, ...]]:
    """Each maximal run's first index and code, point by point, and the attack types."""
    types: list[str] = []
    starts: list[int] = []
    codes: list[int] = []
    for i, label in enumerate(labels):
        if label not in BENIGN and label not in types:
            types.append(label)
        code = 0 if label in BENIGN else types.index(label) + 1
        if not codes or codes[-1] != code:
            starts.append(i)
            codes.append(code)
    return starts, codes, tuple(types)


def write_labels(path: Path, timestamps: list[int], labels: list[str], route: str) -> None:
    """The labels as ``save_labels`` lays them out, or with the first row quoted,
    which sends the whole file through csv."""
    rows = [f"{t},{label}" for t, label in zip(timestamps, labels)]
    if route == "csv":
        rows[0] = ",".join(f'"{cell}"' for cell in rows[0].split(","))
    path.write_text("\n".join(["timestamp,label", *rows, ""]), encoding="utf-8")


def answers(series: LabeledSeries, alerts: AlertSeries, scores: AlertSeries):
    """Everything the verbs ask of a series' labels."""
    found = {
        "scenarios": [list(extract_scenarios(series, g)) for g in range(4)],
        "reports": [validate_pair(series, g) for g in range(4)],
        "confusion": confusion(series, alerts),
    }
    if 0 < series.attack_points < len(series):
        found["roc"] = roc(series, scores)
    return found


@settings(max_examples=120, deadline=None, derandomize=True)
@given(trace=traces(), route=st.sampled_from(["blocks", "csv"]),
       block=st.sampled_from([16, 40, 1 << 17]))
def test_runs_codes_and_files_give_one_series(trace, route, block):
    labels, timestamps, alerted, scores = trace
    starts, codes, types = runs_of(labels)
    from_codes = make_series(labels, timestamps=timestamps)
    from_runs = LabeledSeries.from_runs("series", timestamps, starts, codes, types)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "labels.csv"
        write_labels(path, timestamps, labels, route)
        with mock.patch.object(ingest, "_LABEL_BLOCK_BYTES", block):
            loaded = ingest.load_labels(path, name="series")
        assert loaded == ingest_oracle.load_labels(path, name="series")
    assert from_codes == from_runs == loaded
    assert loaded.run_starts.tolist() == starts and loaded.run_codes.tolist() == codes

    point_codes = [0 if label in BENIGN else types.index(label) + 1 for label in labels]
    attack = [code > 0 for code in point_codes]
    alerts = AlertSeries.from_bool("det", alerted, "series")
    scored = AlertSeries.from_scores("det", scores, "series")
    expected = answers(from_codes, alerts, scored)
    for series in (from_codes, from_runs, loaded):
        assert series.label_codes.tolist() == point_codes
        assert series.attack_mask.tolist() == attack
        assert series.attack_points == sum(attack)
        assert answers(series, alerts, scored) == expected

    plain = brute_runs(labels)
    for g, scenarios in enumerate(expected["scenarios"]):
        found = [(s.start_index, s.end_index, s.attack_type) for s in scenarios]
        assert found == brute_merge_runs(plain, g)
    cm, counts = expected["confusion"], brute_confusion(attack, alerted)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (counts["tp"], counts["tn"], counts["fp"], counts["fn"])


def test_from_runs_checks_the_runs():
    def build(starts, codes, types=("dos",)):
        return LabeledSeries.from_runs("s", [1, 2, 3, 4], starts, codes, types)

    assert build([0, 2], [0, 1]).label_codes.tolist() == [0, 0, 1, 1]
    for starts, codes in [([], []), ([1], [0]), ([0, 4], [0, 1]), ([0], [0, 1])]:
        with pytest.raises(ValueError, match="label runs"):
            build(starts, codes)
    for starts, codes in [([0, 2, 1], [0, 1, 0]), ([0, 2, 2], [0, 1, 0]), ([0, 2], [1, 1])]:
        with pytest.raises(ValueError, match="maximal"):
            build(starts, codes)
    with pytest.raises(ValueError, match="reference attack_types"):
        build([0, 2], [0, 2])


def test_per_point_arrays_are_built_once_and_only_when_asked(tmp_path):
    series = make_series(["benign", "dos", "dos", "scan", "benign"])
    ingest.save_labels(series, tmp_path / "labels.csv")
    assert "label_codes" not in vars(series) and "attack_mask" not in vars(series)
    assert series.label_codes is series.label_codes
    assert series.attack_mask.tolist() == [False, True, True, True, False]
    for array in (series.label_codes, series.attack_mask):
        assert not array.flags.writeable
    assert series.run_starts.tolist() == [0, 1, 3, 4]
    assert series.run_codes.tolist() == [0, 1, 2, 0]
    assert series.run_lengths.tolist() == [1, 2, 1, 1]


def test_no_verb_reads_per_point_labels(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a verb read per-point labels")

    monkeypatch.setattr(LabeledSeries, "label_codes", property(refuse))
    monkeypatch.setattr(LabeledSeries, "attack_mask", property(refuse))
    assert_verbs_write_the_golden_files(tmp_path)
