"""Canonical data types for labels, alerts, scenarios and metric results.

Everything here is immutable after construction and safe to share across
parallel metric evaluations. Time is kept as integer ticks plus a declared
tick duration in seconds (1 for packet indices or per-second records).
Alert runs (``Intervals``) and attack scenarios (``Scenarios``) are arrays
checked once when built; all their endpoints are inclusive.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .timeaware import ScenarioDetection

BENIGN_LABELS = ("benign", "0")


class EvaluationError(Exception):
    """Base class for all evaluation failures."""


class AlignmentError(EvaluationError):
    """An alert series does not line up with its labeled series."""


class ParameterError(EvaluationError):
    """A parameter or flag is malformed or outside its admissible range."""


# Fraction expands 10**exponent before any check; str() writes no int from _STR_LIMIT on.
_STR_LIMIT = 10**4300
# An exact parameter stays below half as many digits, so that every exact value
# derived from it, such as F-beta's, which carries beta squared, is one str() writes.
_PARAM_LIMIT = 10**2100


def exact_param(name: str, raw: object, within: str | None = "positive") -> Fraction:
    """Parameter ``name`` as an exact Fraction: ``raw`` is a Fraction, an int, a
    decimal or ``num/den`` string, or a float read through its repr (0.1 is 1/10).

    ``within`` is its range: "positive", "unit" for [0, 1], or None for any.
    A malformed or out-of-range value raises ParameterError.
    """
    read = str(raw) if isinstance(raw, float) else raw
    head, _, exponent = (read.lower() if isinstance(read, str) else "").rpartition("e")
    try:  # int() reads any Unicode digits; a huge exponent is read as 0 to check the rest
        huge = bool(head) and abs(int(exponent)) >= 10**4
        value = Fraction(head + "e0" if huge else read)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ParameterError(f"malformed parameter: {name} is not a number: {read!r}") from None
    if huge or max(abs(value.numerator), value.denominator) >= _PARAM_LIMIT:
        raise ParameterError(f"{name} needs more than 2100 digits")
    if within == "positive" and value <= 0:
        raise ParameterError(f"{name} must be positive, got {value}")
    if within == "unit" and not 0 <= value <= 1:
        raise ParameterError(f"{name} must lie in [0, 1], got {value}")
    return value


def parse_spec(text: str, noun: str = "metric") -> tuple[str, dict[str, str | bool]]:
    """Split ``name:key=value:flag`` into the name and its parameter dict."""
    parts = [part.strip() for part in text.split(":")]
    name = parts[0]
    if not name:
        raise ParameterError(f"empty {noun} name in {text!r}")
    params: dict[str, str | bool] = {}
    for part in parts[1:]:
        if not part:
            raise ParameterError(f"empty parameter in {noun} spec {text!r}")
        key, sep, value = part.partition("=")
        key = key.strip()
        if not key:
            raise ParameterError(f"empty parameter name in {noun} spec {text!r}")
        if key in params:
            raise ParameterError(f"duplicate parameter {key!r} in {noun} spec {text!r}")
        params[key] = value.strip() if sep else True
    return name, params


class Record:
    """An immutable record, as a frozen dataclass is: ``__init__`` sets its
    ``_fields`` once. Records are equal when they are of one class and their
    fields are equal, arrays compared element by element; they hash by their
    fields, so a record that holds an array is unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_fields_equal, self._values(), other._values()))

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = (f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()


def _fields_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return a is b or a == b  # identity first, as tuple equality has it


class Param(NamedTuple):
    """One declared spec parameter; ``convert`` reads its value, None makes it a flag."""

    key: str
    convert: Callable[[str], object] | None = None
    required: bool = False


def bind_params(
    declared: tuple[Param, ...], given: dict[str, str | bool], noun: str, name: str
) -> dict[str, object]:
    """Check ``given`` against ``declared``; the given keys' typed values, in declared order."""
    allowed = ", ".join(param.key for param in declared)
    unknown = ", ".join(sorted(set(given) - {param.key for param in declared}))
    if unknown and not declared:
        raise ParameterError(f"{noun} {name!r} takes no parameters, got: {unknown}")
    if unknown:
        raise ParameterError(
            f"{noun} {name!r} does not accept: {unknown}"
            f" (unknown {noun} parameter; allowed: {allowed})"
        )
    bound: dict[str, object] = {}
    for param in declared:
        raw = given.get(param.key)
        if raw is None:
            if param.required:
                raise ParameterError(f"{noun} {name!r} requires {param.key}=...")
        elif param.convert is None:
            if raw is not True:
                raise ParameterError(f"{param.key} is a flag and takes no value")
            bound[param.key] = True
        elif raw is True:
            raise ParameterError(
                f"parameter {param.key!r} of {noun} {name!r} needs a value; expected key=value"
            )
        else:
            try:
                bound[param.key] = param.convert(raw)
            except (ValueError, ZeroDivisionError):
                kind = "an integer" if param.convert is int else "a number"
                raise ParameterError(
                    f"malformed parameter: {param.key} is not {kind}: {raw!r}"
                ) from None
    return bound


def _frozen_array(values, dtype) -> np.ndarray:
    """A read-only copy of ``values``; a read-only array that owns its memory is shared."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class LabeledSeries(Record):
    """Ground-truth stream: per-point benign/attack-type labels over integer ticks.

    Labels are stored as integer codes: 0 is benign, code k (k >= 1) is
    ``attack_types[k - 1]``. Timestamps are strictly increasing ticks;
    ``tick_seconds`` converts ticks to wall-clock seconds.
    """

    _fields = ("name", "timestamps", "label_codes", "attack_types", "tick_seconds")

    def __init__(
        self,
        name: str,
        timestamps: np.ndarray,
        label_codes: np.ndarray,
        attack_types: tuple[str, ...],
        tick_seconds: Fraction | int | float | str = Fraction(1),
    ) -> None:
        timestamps = _frozen_array(timestamps, np.int64)
        label_codes = _frozen_array(label_codes, np.int32)
        tick_seconds = exact_param("tick_seconds", tick_seconds)
        self._set(name, timestamps, label_codes, attack_types, tick_seconds)
        if self.timestamps.ndim != 1 or self.label_codes.ndim != 1:
            raise ValueError("timestamps and labels must be one-dimensional")
        if len(self.timestamps) != len(self.label_codes):
            raise ValueError("timestamps and labels must have equal length")
        if len(self.timestamps) == 0:
            raise ValueError("series must contain at least one point")
        if not np.all(self.timestamps[1:] > self.timestamps[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        try:
            # Every duration reported in seconds (delays, the span) is at most this.
            float(self.span_seconds)
        except OverflowError:
            span = self.span_seconds / self.tick_seconds
            raise ParameterError(
                f"tick_seconds is too large: the series' {span} ticks in seconds"
                " overflow a 64-bit float"
            ) from None
        for type_name in self.attack_types:
            if not type_name:
                raise ValueError("attack type ids must be non-empty")
        if len(set(self.attack_types)) != len(self.attack_types):
            raise ValueError("attack type ids must be unique")
        if len(self.label_codes) and (
            self.label_codes.min() < 0 or self.label_codes.max() > len(self.attack_types)
        ):
            raise ValueError("label codes must reference attack_types")

    @classmethod
    def from_labels(
        cls,
        name: str,
        timestamps: Sequence[int],
        labels: Sequence[str],
        tick_seconds: Fraction | int | float | str = 1,
    ) -> "LabeledSeries":
        """Build a series from label strings; ``benign``/``0`` mean benign."""
        types: list[str] = []
        index: dict[str, int] = {}
        codes = np.zeros(len(labels), dtype=np.int32)
        for i, raw in enumerate(labels):
            if raw in BENIGN_LABELS:
                continue
            code = index.get(raw)
            if code is None:
                types.append(raw)
                code = len(types)
                index[raw] = code
            codes[i] = code
        return cls(
            name=name,
            timestamps=np.asarray(timestamps, dtype=np.int64),
            label_codes=codes,
            attack_types=tuple(types),
            tick_seconds=tick_seconds,
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def span_seconds(self) -> Fraction:
        """From the first tick to the end of the last, in seconds."""
        return (int(self.timestamps[-1]) - int(self.timestamps[0]) + 1) * self.tick_seconds

    @cached_property
    def attack_mask(self) -> np.ndarray:
        mask = self.label_codes > 0
        mask.setflags(write=False)
        return mask

    @property
    def is_binary(self) -> bool:
        return len(self.attack_types) <= 1


class AlertKind(str, Enum):
    BOOLEAN = "boolean"
    SCORED = "scored"


class AlertSeries(Record):
    """One detector's output aligned point-for-point to a LabeledSeries."""

    __slots__ = _fields = ("detector", "kind", "values", "aligned_to")

    def __init__(self, detector: str, kind: AlertKind, values: np.ndarray, aligned_to: str) -> None:
        dtype = np.bool_ if kind is AlertKind.BOOLEAN else np.float64
        self._set(detector, kind, _frozen_array(values, dtype), aligned_to)
        if self.values.ndim != 1:
            raise ValueError("alert values must be one-dimensional")
        if self.kind is AlertKind.SCORED and not np.all(np.isfinite(self.values)):
            raise ValueError("scores must be finite (no NaN or infinity)")
        if not self.detector:
            raise ValueError("detector name must be non-empty")

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_bool(cls, detector: str, values, aligned_to: str) -> "AlertSeries":
        return cls(detector, AlertKind.BOOLEAN, np.asarray(values, dtype=bool), aligned_to)

    @classmethod
    def from_scores(cls, detector: str, values, aligned_to: str) -> "AlertSeries":
        return cls(detector, AlertKind.SCORED, np.asarray(values, dtype=np.float64), aligned_to)


class AttackScenario(Record):
    """Maximal contiguous ground-truth attack interval of one attack type.

    ``start_index``/``end_index`` are inclusive point indices into the parent
    series; ``start_time``/``end_time`` are the corresponding tick instants.
    """

    __slots__ = _fields = ("start_index", "end_index", "start_time", "end_time", "attack_type")

    def __init__(
        self, start_index: int, end_index: int, start_time: int, end_time: int, attack_type: str
    ) -> None:
        self._set(start_index, end_index, start_time, end_time, attack_type)
        if self.start_index > self.end_index:
            raise ValueError("scenario start_index must be <= end_index")
        if self.start_time > self.end_time:
            raise ValueError("scenario start_time must be <= end_time")

    @property
    def length(self) -> int:
        """Number of points covered (inclusive index span)."""
        return self.end_index - self.start_index + 1


class ConfusionMatrix(Record):
    """TP/TN/FP/FN counts from a per-point comparison of labels and alerts."""

    __slots__ = _fields = ("tp", "tn", "fp", "fn")

    def __init__(self, tp: int, tn: int, fp: int, fn: int) -> None:
        self._set(tp, tn, fp, fn)
        for name in self._fields:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def n(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


class MetricValue(Record):
    """A named metric result; ``value`` is None when the metric is undefined.

    Undefined happens exactly when a metric's denominator contract is
    violated (for example TPR on a series without any attack point); it is
    never silently substituted by 0. ``exact`` carries the rational value for
    metrics computed from integer counts.
    """

    __slots__ = _fields = ("name", "value", "exact", "params")

    def __init__(
        self,
        name: str,
        value: float | None,
        exact: Fraction | None = None,
        params: dict[str, object] | None = None,
    ) -> None:
        if exact is not None and value is None:
            value = float(exact)
        self._set(name, value, exact, {} if params is None else params)

    @property
    def defined(self) -> bool:
        return self.value is not None

    @property
    def display_name(self) -> str:
        """Stable name including parameters, e.g. ``fbeta:beta=0.1``."""
        if not self.params:
            return self.name
        parts = []
        for key in sorted(self.params):
            val = self.params[key]
            if val is True:
                parts.append(key)
            else:
                parts.append(f"{key}={val}")
        return self.name + ":" + ":".join(parts)

    @classmethod
    def undefined(cls, name: str, **params: object) -> "MetricValue":
        return cls(name=name, value=None, params=dict(params))

    @classmethod
    def from_fraction(cls, name: str, exact: Fraction, **params: object) -> "MetricValue":
        return cls(name=name, value=float(exact), exact=exact, params=dict(params))


class MetricReport(Record):
    """All metric results of one detector on one dataset."""

    __slots__ = _fields = ("dataset", "detector", "metrics", "scenario_details", "tick_seconds")

    def __init__(
        self,
        dataset: str,
        detector: str,
        metrics: tuple[MetricValue, ...],
        scenario_details: tuple[ScenarioDetection, ...] = (),
        tick_seconds: Fraction = Fraction(1),
    ) -> None:
        self._set(dataset, detector, tuple(metrics), tuple(scenario_details), tick_seconds)
        names = [m.display_name for m in self.metrics]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate metric names in report: {', '.join(dupes)}")

    def get(self, display_name: str) -> MetricValue | None:
        for metric in self.metrics:
            if metric.display_name == display_name:
                return metric
        return None


def extract_scenarios(series: LabeledSeries, gap_tolerance: int = 0) -> "Scenarios":
    """Split the series into maximal runs of identically-typed attack points.

    Runs of the same attack type separated by at most ``gap_tolerance`` benign
    points are merged into one scenario (the swallowed benign points become
    part of its span). Gaps are counted in points, not ticks. Adjacent runs of
    different attack types always stay distinct scenarios.
    """
    if gap_tolerance < 0:
        raise ParameterError("gap_tolerance must be non-negative")
    codes = series.label_codes
    boundaries = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries - 1, [len(codes) - 1]))
    attack = codes[starts] > 0
    starts, ends = starts[attack], ends[attack]
    run_codes = codes[starts]
    # A run opens a scenario unless the one before has its type and a short gap;
    # it closes one when the next run opens (rolled, the last run's next is the first).
    opens = np.ones(len(starts), dtype=bool)
    opens[1:] = (run_codes[1:] != run_codes[:-1]) | (starts[1:] - ends[:-1] - 1 > gap_tolerance)
    starts, ends = starts[opens], ends[np.roll(opens, -1)]
    times = np.column_stack((series.timestamps[starts], series.timestamps[ends]))
    runs = Intervals(starts, ends, "scenario")
    return Scenarios(runs, run_codes[opens], times, series.attack_types)


def require_alignment(series: LabeledSeries, alerts: AlertSeries) -> None:
    """Raise AlignmentError unless ``alerts`` was built against ``series``."""
    if alerts.aligned_to != series.name:
        raise AlignmentError(
            f"alert series '{alerts.detector}' is aligned to "
            f"'{alerts.aligned_to}', not to dataset '{series.name}'"
        )
    if len(alerts) != len(series):
        raise AlignmentError(
            f"alert series '{alerts.detector}' has {len(alerts)} points, "
            f"dataset '{series.name}' has {len(series)}"
        )


class Intervals(Record):
    """Sorted, disjoint inclusive index runs held as int64 ``starts``/``ends``.

    The arrays are checked once, when the object is built. The object also
    reads as a sequence of ``(start, end)`` pairs: ``len`` is the run count,
    indexing gives a pair (a slice gives ``Intervals``), and it compares equal
    to a list or tuple holding the same pairs. ``what`` names the runs in
    error messages.
    """

    __slots__ = _fields = ("starts", "ends")

    def __init__(self, starts: np.ndarray, ends: np.ndarray, what: str = "index") -> None:
        starts = _frozen_array(starts, np.int64)
        ends = _frozen_array(ends, np.int64)
        self._set(starts, ends)
        if starts.ndim != 1 or starts.shape != ends.shape:
            raise ValueError(f"{what} interval starts and ends must be equal-length 1-D arrays")
        inverted = starts > ends
        faults = inverted.copy()
        faults[1:] |= starts[1:] <= ends[:-1]
        if faults.any():
            i = int(np.argmax(faults))
            if inverted[i]:
                raise ValueError(f"{what} interval ({starts[i]}, {ends[i]}) has start > end")
            raise ValueError(f"{what} intervals must be sorted and disjoint")

    @classmethod
    def of_scenarios(cls, scenarios: ScenariosLike) -> "Intervals":
        """Index spans of attack scenarios, which must be sorted and disjoint."""
        return Scenarios.of(scenarios).runs

    @property
    def lengths(self) -> np.ndarray:
        """Points per run."""
        return self.ends - self.starts + 1

    def spans(self, timestamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Half-open float tick spans: run ``(i, j)`` occupies ``[ts[i], ts[j] + 1)``.

        Ticks are counted as ``float_ticks`` counts them.
        """
        return (
            float_ticks(timestamps, self.starts),
            float_ticks(timestamps, self.ends) + 1.0,
        )

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self):
        return zip(self.starts.tolist(), self.ends.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Intervals(self.starts[index], self.ends[index])
        return int(self.starts[index]), int(self.ends[index])

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return super().__eq__(other)


IntervalsLike = Intervals | Sequence[tuple[int, int]]


class Scenarios(Record):
    """Attack scenarios as arrays checked once, read as a sequence of ``AttackScenario``.

    ``runs`` are their index spans, ``codes`` their types (k is ``attack_types[k - 1]``)
    and ``times`` one row of (start, end) ticks each.
    """

    __slots__ = _fields = ("runs", "codes", "times", "attack_types")

    def __init__(
        self, runs: Intervals, codes: np.ndarray, times: np.ndarray, attack_types: tuple[str, ...]
    ) -> None:
        codes = _frozen_array(codes, np.int32)
        times = _frozen_array(times, np.int64)
        self._set(runs, codes, times, attack_types)
        if codes.shape != (len(self.runs),) or times.shape != (len(self.runs), 2):
            raise ValueError("scenario codes and times must have one entry per run")
        if len(codes) and (codes.min() < 1 or codes.max() > len(self.attack_types)):
            raise ValueError("scenario codes must reference attack_types")

    @classmethod
    def of(cls, scenarios: ScenariosLike) -> "Scenarios":
        """``scenarios`` itself, or the checked table of a sequence of ``AttackScenario``."""
        if isinstance(scenarios, Scenarios):
            return scenarios
        index: dict[str, int] = {}
        rows = [
            (s.start_index, s.end_index, s.start_time, s.end_time,
             index.setdefault(s.attack_type, len(index) + 1))
            for s in scenarios
        ]
        table = np.array(rows, dtype=np.int64).reshape(-1, 5)
        runs = Intervals(table[:, 0], table[:, 1], "scenario")
        return cls(runs, table[:, 4], table[:, 2:4], tuple(index))

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        types = map(self.attack_types.__getitem__, (self.codes - 1).tolist())
        indices = self.runs.starts.tolist(), self.runs.ends.tolist()
        return map(AttackScenario, *indices, *self.times.T.tolist(), types)

    def __getitem__(self, index: int) -> AttackScenario:
        attack_type = self.attack_types[self.codes[index] - 1]
        return AttackScenario(*self.runs[index], *self.times[index].tolist(), attack_type)

    def __eq__(self, other) -> bool:
        if isinstance(other, (Scenarios, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


ScenariosLike = Scenarios | Sequence[AttackScenario]

# float64 holds every integer of smaller magnitude exactly.
_EXACT_FLOAT_TICKS = 2**53


def float_ticks(timestamps: np.ndarray, index) -> np.ndarray:
    """``timestamps[index]`` as float64, for span arithmetic.

    ``timestamps`` is a whole series' strictly increasing ticks. When one of
    them is too large for float64 to hold exactly, every tick is counted
    from the first one, subtracted in 64-bit integers before the cast; the
    metrics and drawings built on spans only use differences of ticks, so
    this keeps neighbouring ticks apart. Otherwise the ticks are cast as
    they are.
    """
    ticks = timestamps[index]
    if -_EXACT_FLOAT_TICKS < timestamps[0] and timestamps[-1] < _EXACT_FLOAT_TICKS:
        return ticks.astype(np.float64)
    # A tick minus the first is in [0, 2**64), so uint64 arithmetic is exact.
    origin = np.int64(timestamps[0]).view(np.uint64)
    return (ticks.view(np.uint64) - origin).astype(np.float64)


def as_intervals(runs: IntervalsLike, what: str) -> Intervals:
    """``runs`` itself, or the checked ``Intervals`` of a sequence of pairs."""
    if isinstance(runs, Intervals):
        return runs
    pairs = np.array(list(runs), dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"{what} intervals must be (start, end) pairs")
    return Intervals(pairs[:, 0], pairs[:, 1], what)


def alerts_to_intervals(alerts: AlertSeries, series: LabeledSeries) -> Intervals:
    """Maximal runs of true alerts as inclusive index intervals, sorted."""
    if alerts.kind is not AlertKind.BOOLEAN:
        raise EvaluationError("alert intervals require boolean alerts, not scores")
    require_alignment(series, alerts)
    return mask_to_intervals(alerts.values)


def mask_to_intervals(mask: np.ndarray) -> Intervals:
    """Inclusive index intervals of the true runs of a boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    ends = edges[1::2] - 1
    ends.setflags(write=False)  # owned and read-only, so Intervals shares it
    return Intervals(edges[0::2], ends)


def intervals_to_mask(intervals: Iterable[tuple[int, int]], n: int) -> np.ndarray:
    """Expand inclusive index intervals back into a boolean mask of length n."""
    mask = np.zeros(n, dtype=bool)
    for start, end in intervals:
        if start < 0 or end >= n or start > end:
            raise ValueError(f"interval ({start}, {end}) out of range for length {n}")
        mask[start : end + 1] = True
    return mask


def format_fraction(value: Fraction) -> str:
    """Shortest exact rendering: terminating decimals as decimals, else num/den.

    Used wherever a rational parameter becomes part of a stable name, so that
    ``fbeta:beta=0.1`` round-trips instead of surfacing as ``beta=1/10``.
    """
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    twos = (den & -den).bit_length() - 1  # den's trailing zero bits
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    places = max(twos, fives)
    scaled = abs(num) * 10**places // den
    if rest != 1 or scaled >= _STR_LIMIT:  # no decimal form, or one too long for str()
        return f"{num}/{den}"
    digits = str(scaled).rjust(places + 1, "0")
    return f"{'-' if num < 0 else ''}{digits[:-places]}.{digits[-places:]}"


COLLAPSED_ATTACK_TYPE = "attack"


def collapse_multiclass(series: LabeledSeries) -> LabeledSeries:
    """Map a multi-class series to its binary equivalent.

    Every attack type becomes one synthetic attack type; benign stays benign.
    """
    codes = series.attack_mask.astype(np.int32)
    codes.setflags(write=False)
    # Read-only arrays are shared by the new series, not copied.
    return LabeledSeries(
        name=series.name,
        timestamps=series.timestamps,
        label_codes=codes,
        attack_types=(COLLAPSED_ATTACK_TYPE,) if codes.any() else (),
        tick_seconds=series.tick_seconds,
    )
