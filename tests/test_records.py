"""Behaviour every record type keeps: construction, immutability, hashing, copies."""

from __future__ import annotations

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from idseval.baselines import BaselineKind, BaselineSpec
from idseval.evaluate import MetricDefinition
from idseval.ingest import DatasetManifest, ValidationReport, _AlertColumns
from idseval.model import (
    AlertKind,
    AlertSeries,
    AttackScenario,
    ConfusionMatrix,
    Intervals,
    LabeledSeries,
    MetricReport,
    MetricValue,
    Param,
    Record,
    Scenarios,
)
from idseval.pointwise import RocCurve, RocPoint, f1
from idseval.report import ComparisonTable, TimelineLane, TimelineRendering
from idseval.timeaware import EtaParams, TimeAwareScores

# "value": equal records hash equal; "unhashable": hashing raises TypeError,
# because the record holds arrays (or, for the value records marked so, a dict).
CASES = [
    (Param, dict(key="p", convert=float, required=True), "value"),
    (LabeledSeries, dict(name="s", timestamps=np.arange(3), label_codes=np.array([0, 1, 0]),
                         attack_types=("dos",), tick_seconds=Fraction(1, 10)), "unhashable"),
    (AlertSeries, dict(detector="d", kind=AlertKind.BOOLEAN, values=np.array([True, False]),
                       aligned_to="s"), "unhashable"),
    (AttackScenario, dict(start_index=1, end_index=2, start_time=10, end_time=20,
                          attack_type="dos"), "value"),
    (ConfusionMatrix, dict(tp=1, tn=2, fp=3, fn=4), "value"),
    (MetricValue, dict(name="fbeta", value=0.5, exact=Fraction(1, 2), params={"beta": "2"}),
     "unhashable"),
    (MetricReport, dict(dataset="s", detector="d", metrics=(MetricValue("tp", 1.0),),
                        scenario_details=(), tick_seconds=Fraction(1, 10)), "unhashable"),
    (Intervals, dict(starts=np.array([0, 5]), ends=np.array([2, 6])), "unhashable"),
    (Scenarios, dict(runs=Intervals([1], [2]), codes=np.array([1]), times=np.array([[10, 20]]),
                     attack_types=("dos",)), "unhashable"),
    (BaselineSpec, dict(kind=BaselineKind.RANDOM, p=0.5, seed=7), "value"),
    (MetricDefinition, dict(name="f1", summary="F1", compute=f1, params_help="beta=B",
                            aliases=("f",), params=(Param("beta", float),)), "value"),
    (_AlertColumns, dict(timestamps=np.array([1, 2]), values=np.array([True, False]),
                         kind=AlertKind.BOOLEAN, detector="d", lines=range(3, 5)), "unhashable"),
    (ValidationReport, dict(dataset="s", n_points=10, attack_fraction=Fraction(1, 5),
                            n_scenarios=1, scenarios_by_type={"dos": 1},
                            duration_seconds=Fraction(10), warnings=("w",)), "unhashable"),
    (DatasetManifest, dict(name="s", labels_path=Path("l.csv"), tick_seconds=Fraction(1, 10),
                           description="demo", alert_paths=(Path("a.jsonl"),)), "value"),
    (RocPoint, dict(threshold=0.5, fpr=0.25, tpr=0.75), "value"),
    (RocCurve, dict(thresholds=np.array([np.inf, 0.5, -np.inf]), fpr=np.array([0.0, 0.5, 1.0]),
                    tpr=np.array([0.0, 0.25, 1.0])), "unhashable"),
    (EtaParams, dict(theta_p=Fraction(1, 2), theta_r=Fraction(1, 10),
                     detection_weight=Fraction(1, 3)), "value"),
    (TimeAwareScores, dict(precision_like=0.5, recall_like=0.25, f1_like=None), "value"),
    (ComparisonTable, dict(dataset="s", columns=("f1",), detectors=("d",), cells=((None,),),
                           rank_by="f1"), "value"),
    (TimelineLane, dict(name="d", kind="alerts", true_spans=np.array([[0.0, 2.0]]),
                        drawn_spans=np.array([[0.0, 3.0]]), widened=np.array([True])),
     "unhashable"),
    (TimelineRendering, dict(svg="<svg/>", lanes=(), min_width_ticks=0.5), "value"),
]


def same(a, b, names) -> bool:
    """Equal type and fields, arrays compared element by element."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(map(a.__getattribute__, names), map(b.__getattribute__, names))
    )


@pytest.mark.parametrize(
    "cls,fields,hashing", CASES, ids=[cls.__name__ for cls, _, _ in CASES]
)
def test_record_behaviour(cls, fields, hashing):
    record = cls(**fields)
    assert same(record, cls(*fields.values()), fields)
    for name, value in fields.items():
        got = getattr(record, name)
        assert np.array_equal(got, value) if isinstance(value, np.ndarray) else got == value

    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.no_such_field = 1

    twin = cls(**fields)
    assert record == twin and not record != twin
    if hashing == "value":
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)

    for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert same(clone, record, fields)
        assert clone == record


def test_every_record_class_is_covered():
    assert len(CASES) == len({cls for cls, _, _ in CASES}) == 21


def test_records_of_another_class_are_not_equal():
    assert ConfusionMatrix(1, 2, 3, 4) != (1, 2, 3, 4)
    assert EtaParams(1, 1, 1) != TimeAwareScores(1, 1, 1)
    assert MetricValue("f1", 0.5).params == {}
    assert MetricValue("f1", 0.5).params is not MetricValue("f1", 0.5).params
    assert MetricValue("f1", None, Fraction(1, 4)).value == 0.25


class Sampled(Record):
    """A record defined here, holding an array and a scalar."""

    __slots__ = _fields = ("values", "rate")

    def __init__(self, values, rate) -> None:
        self._set(values, rate)


def test_any_record_compares_its_arrays_element_by_element():
    record = Sampled(np.array([1, 2, 3]), 0.5)
    assert record == Sampled(np.array([1, 2, 3]), 0.5)
    assert not record != Sampled(np.array([1, 2, 3]), 0.5)
    assert record != Sampled(np.array([1, 2, 4]), 0.5)
    assert record != Sampled(np.array([1, 2]), 0.5)
    assert record != Sampled(np.array([[1, 2, 3]]), 0.5)
    assert record != Sampled(np.array([1, 2, 3]), 0.25)
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    assert record != ConfusionMatrix(1, 2, 3, 4)
    assert record != Intervals([1], [3])


SOURCES = Path(__file__).resolve().parents[1] / "src" / "idseval"


def test_only_record_decides_equality_and_hashing():
    """``Record`` holds the one rule; ``Intervals`` and ``Scenarios`` only add
    their documented comparison with a list or tuple."""
    defines: dict[str, set[str]] = {"__eq__": set(), "__hash__": set()}
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names = [target.id for target in targets if isinstance(target, ast.Name)]
                else:
                    continue
                for name in set(names) & set(defines):
                    defines[name].add(node.name)
    assert defines == {"__eq__": {"Record", "Intervals", "Scenarios"}, "__hash__": {"Record"}}
