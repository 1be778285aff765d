"""Trivial reference detectors: never alarm, always alarm, coin flip.

These anchor any comparison table. A detector that cannot beat them on the
metric of interest adds nothing, however impressive its headline number
looks on imbalanced data.
"""

from __future__ import annotations

import random
from enum import Enum

import numpy as np

from .model import (
    AlertSeries,
    LabeledSeries,
    Param,
    ParameterError,
    Record,
    bind_params,
    parse_spec,
)

PREFIX = "baseline"
# Points drawn per getrandbits call by the random baseline.
_DRAW_CHUNK = 1 << 16


class BaselineKind(str, Enum):
    NEVER = "never"
    ALWAYS = "always"
    RANDOM = "random"


# The parameters each kind's spec may give.
_PARAMS = {"never": (), "always": (), "random": (Param("p", float), Param("seed", int))}


class BaselineSpec(Record):
    """Parsed form of a baseline detector name such as ``baseline:random:p=0.5:seed=7``."""

    __slots__ = _fields = ("kind", "p", "seed")

    def __init__(self, kind: BaselineKind, p: float | None = None, seed: int | None = None) -> None:
        self._set(kind, p, seed)
        if self.kind is BaselineKind.RANDOM:
            if self.p is None:
                raise ParameterError("random baseline requires an alert probability p")
            if not 0.0 <= self.p <= 1.0:
                raise ParameterError(f"alert probability must lie in [0, 1], got {self.p!r}")
            # random.Random(seed) seeds with abs(seed): seed=-7 would repeat seed=7.
            if self.seed is not None and self.seed < 0:
                raise ParameterError(f"baseline seed must be non-negative, got {self.seed}")
        elif self.p is not None or self.seed is not None:
            raise ParameterError(f"baseline:{self.kind.value} takes no parameters")

    @property
    def label(self) -> str:
        if self.kind is not BaselineKind.RANDOM:
            return f"{PREFIX}:{self.kind.value}"
        return f"{PREFIX}:random:p={self.p!r}:seed={self.seed!r}"

    def with_seed(self, seed: int) -> "BaselineSpec":
        """Copy with the seed filled in; existing seeds are kept."""
        if self.kind is not BaselineKind.RANDOM or self.seed is not None:
            return self
        return BaselineSpec(kind=self.kind, p=self.p, seed=seed)

    @classmethod
    def parse(cls, text: str) -> "BaselineSpec":
        """Read ``baseline:kind:key=value...`` with the metric spec grammar."""
        prefix, sep, rest = text.partition(":")
        if prefix != PREFIX or not sep:
            raise ParameterError(f"not a baseline detector name: {text!r}")
        name, given = parse_spec(rest, "baseline")
        if name not in _PARAMS:
            raise ParameterError(f"unknown baseline {name!r}; expected one of {sorted(_PARAMS)}")
        return cls(kind=BaselineKind(name), **bind_params(_PARAMS[name], given, "baseline", name))


def is_baseline_name(text: str) -> bool:
    return text.startswith(PREFIX + ":")


def generate(spec: BaselineSpec, series: LabeledSeries) -> AlertSeries:
    """Materialize a baseline's alert stream for one labeled series.

    The random baseline draws one uniform variate per point from a fresh
    Mersenne Twister seeded with ``spec.seed``, so regeneration with the same
    seed is reproducible across runs and platforms.
    """
    n = len(series)
    if spec.kind is BaselineKind.NEVER:
        values = np.zeros(n, dtype=bool)
    elif spec.kind is BaselineKind.ALWAYS:
        values = np.ones(n, dtype=bool)
    else:
        if spec.seed is None:
            raise ParameterError("random baseline requires a seed to be reproducible")
        rng = random.Random(spec.seed)
        values = np.empty(n, dtype=bool)
        for start in range(0, n, _DRAW_CHUNK):
            count = min(_DRAW_CHUNK, n - start)
            # getrandbits puts the generator's 32-bit outputs in order from the
            # least significant word up; random() builds each double from two
            # of them, a and b, as ((a >> 5) * 2**26 + (b >> 6)) / 2**53.
            raw = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
            words = np.frombuffer(raw, dtype="<u4")
            draws = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (
                1.0 / 9007199254740992.0
            )
            values[start : start + count] = draws < spec.p
    values.setflags(write=False)
    return AlertSeries.from_bool(detector=spec.label, values=values, aligned_to=series.name)
