"""Baseline detector parsing and generation."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from idseval import (
    BaselineKind,
    BaselineSpec,
    ParameterError,
    accuracy,
    confusion,
    fpr,
    generate,
    is_baseline_name,
    tpr,
)
from support import make_series


class TestParse:
    @pytest.mark.parametrize(
        "text,kind,p,seed",
        [
            ("baseline:never", BaselineKind.NEVER, None, None),
            ("baseline:always", BaselineKind.ALWAYS, None, None),
            ("baseline:random:p=0.5", BaselineKind.RANDOM, 0.5, None),
            ("baseline:random:p=0.5:seed=7", BaselineKind.RANDOM, 0.5, 7),
            ("baseline:random:seed=7:p=1", BaselineKind.RANDOM, 1.0, 7),
        ],
    )
    def test_accepted_forms(self, text, kind, p, seed):
        spec = BaselineSpec.parse(text)
        assert (spec.kind, spec.p, spec.seed) == (kind, p, seed)

    def test_label_round_trips(self):
        for text in ["baseline:never", "baseline:always", "baseline:random:p=0.5:seed=7"]:
            assert BaselineSpec.parse(text).label == text

    @pytest.mark.parametrize(
        "text,match",
        [
            ("notabaseline:never", "not a baseline"),
            ("baseline", "not a baseline"),
            ("baseline:coin", "unknown baseline"),
            ("baseline:random", "requires an alert probability"),
            ("baseline:random:p=1.5", r"\[0, 1\]"),
            ("baseline:random:p=-0.1", r"\[0, 1\]"),
            ("baseline:random:p", "expected key=value"),
            ("baseline:random:p=half", "malformed"),
            ("baseline:random:p=0.5:burst=3", "unknown baseline parameter"),
            ("baseline:never:p=0.5", "takes no parameters"),
            ("baseline:always:seed=3", "takes no parameters"),
            ("baseline:random:p=0.5:seed=-7", "seed must be non-negative, got -7"),
        ],
    )
    def test_rejected_forms(self, text, match):
        with pytest.raises(ParameterError, match=match):
            BaselineSpec.parse(text)

    def test_is_baseline_name(self):
        assert is_baseline_name("baseline:never")
        assert is_baseline_name("baseline:whatever")
        assert not is_baseline_name("detector.jsonl")
        assert not is_baseline_name("baseline")


class TestWithSeed:
    def test_negative_seed_is_rejected(self):
        spec = BaselineSpec.parse("baseline:random:p=0.5")
        with pytest.raises(ParameterError, match="seed must be non-negative, got -1"):
            spec.with_seed(-1)

    def test_fills_missing_seed_only(self):
        spec = BaselineSpec.parse("baseline:random:p=0.5")
        assert spec.with_seed(11).seed == 11
        pinned = BaselineSpec.parse("baseline:random:p=0.5:seed=3")
        assert pinned.with_seed(11).seed == 3

    def test_no_op_for_deterministic_kinds(self):
        spec = BaselineSpec.parse("baseline:never")
        assert spec.with_seed(11) is spec


class TestGenerate:
    def test_never_and_always(self):
        series = make_series(["benign"] * 6)
        never = generate(BaselineSpec.parse("baseline:never"), series)
        always = generate(BaselineSpec.parse("baseline:always"), series)
        assert not never.values.any()
        assert always.values.all()
        assert never.detector == "baseline:never"
        assert never.aligned_to == "series"

    def test_random_requires_seed(self):
        series = make_series(["benign"] * 6)
        with pytest.raises(ParameterError, match="seed"):
            generate(BaselineSpec.parse("baseline:random:p=0.5"), series)

    def test_random_is_deterministic_per_seed(self):
        series = make_series(["benign"] * 500)
        spec = BaselineSpec.parse("baseline:random:p=0.3:seed=42")
        first = generate(spec, series)
        second = generate(spec, series)
        assert np.array_equal(first.values, second.values)
        other = generate(BaselineSpec.parse("baseline:random:p=0.3:seed=43"), series)
        assert not np.array_equal(first.values, other.values)

    def test_random_matches_stdlib_stream(self):
        series = make_series(["benign"] * 50)
        spec = BaselineSpec.parse("baseline:random:p=0.4:seed=9")
        rng = random.Random(9)
        expected = [rng.random() < 0.4 for _ in range(50)]
        assert list(generate(spec, series).values) == expected

    @pytest.mark.parametrize("seed", [0, 7, 123456789, 2**40 + 3])
    def test_random_matches_the_per_draw_loop(self, seed):
        n = 150_001  # spans several generation chunks
        series = make_series(["benign"] * n)
        rng = random.Random(seed)
        draws = [rng.random() for _ in range(n)]
        # At and just above a draw: a stream off in its lowest bit, or <=
        # for <, flips that point.
        edges = [
            edge
            for k in (0, 65_535, 65_536, n - 1)
            for edge in (draws[k], math.nextafter(draws[k], 1.0))
        ]
        for p in (0.0, 1e-9, 0.5, 1.0, *edges):
            spec = BaselineSpec(BaselineKind.RANDOM, p=p, seed=seed)
            rng = random.Random(seed)
            expected = [rng.random() < p for _ in range(n)]
            assert generate(spec, series).values.tolist() == expected, p

    def test_probability_extremes(self):
        series = make_series(["benign"] * 100)
        none = generate(BaselineSpec.parse("baseline:random:p=0:seed=1"), series)
        assert not none.values.any()
        full = generate(BaselineSpec.parse("baseline:random:p=1:seed=1"), series)
        assert full.values.all()

    def test_alert_rate_tracks_p(self):
        series = make_series(["benign"] * 10_000)
        alerts = generate(BaselineSpec.parse("baseline:random:p=0.5:seed=202"), series)
        rate = alerts.values.mean()
        assert 0.45 < rate < 0.55

    def test_always_on_imbalanced_series_scores_the_attack_fraction(self):
        # All-positive predictions: TPR = FPR = 1 and accuracy collapses to
        # the attack fraction (120 correct of 1000).
        series = make_series(["dos"] * 120 + ["benign"] * 880)
        cm = confusion(series, generate(BaselineSpec.parse("baseline:always"), series))
        assert tpr(cm).exact == 1
        assert fpr(cm).exact == 1
        assert accuracy(cm).exact == Fraction(12, 100)

    def test_never_alarm_accuracy_is_exactly_the_benign_fraction(self):
        rng = random.Random(3434)
        spec = BaselineSpec.parse("baseline:never")
        for _ in range(50):
            n = rng.randint(1, 300)
            n_attack = rng.randint(0, n)
            labels = ["dos"] * n_attack + ["benign"] * (n - n_attack)
            rng.shuffle(labels)
            series = make_series(labels)
            cm = confusion(series, generate(spec, series))
            assert accuracy(cm).exact == Fraction(n - n_attack, n)
