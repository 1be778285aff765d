"""``floattext.repr_fields`` against ``repr`` and ``fixed2_fields`` against
``'%.2f'``, byte for byte.

Both formatters certify every digit string they build and leave the rest to
Python, so their fields must equal Python's text for any double: raw bit
patterns, neighbours of powers of ten and two, signed zeros, subnormals,
non-finite values, the ``k/n`` ratios that ROC curves are made of, and for
``'%.2f'`` the ties and near-ties around every ``k/100``.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idseval import floattext
from idseval.floattext import WIDTH, fixed2_fields, repr_fields


def assert_reprs(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    fields = repr_fields(values)
    assert fields.shape == (len(values), WIDTH)
    got = [bytes(row).rstrip(b"\0").decode() for row in fields]
    assert got == [repr(value) for value in values.tolist()]


def from_bits(bits: list[int]) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


# Sign, biased exponent and mantissa; the exponents span 1e-5 to 1e17, where
# repr switches between exponent and fixed notation.
fixed_range_bits = st.builds(
    lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
    st.integers(0, 1),
    st.integers(1006, 1080),
    st.integers(0, 2**52 - 1),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1) | fixed_range_bits, max_size=40))
def test_raw_bit_patterns(bits):
    assert_reprs(from_bits(bits))


def test_neighbours_of_powers_of_ten():
    values = []
    for k in range(-5, 18):
        power = 10.0**k
        values += [power, np.nextafter(power, np.inf), np.nextafter(power, -np.inf)]
    assert_reprs(values + [-v for v in values])


def test_powers_of_two_and_integers_near_2_53():
    values = [2.0**k for k in range(-20, 60)]
    for base in (2**52, 2**53):
        values += [float(base + d) for d in range(-3, 4)]
    values += [np.nextafter(v, np.inf) for v in values] + [np.nextafter(v, -np.inf) for v in values]
    assert_reprs(values)


def test_zeros_subnormals_and_classics():
    assert_reprs([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
        0.1 + 0.2, 1e-4, 1e16, 9999999999999998.0, 0.00009999999999999999, 1 / 3, 2 / 3,
        np.inf, -np.inf, np.nan, 1.7976931348623157e308,
    ])


def test_ties_at_17_digits():
    # Dyadic values halfway between two 17-digit decimals: repr takes the even one.
    assert_reprs([211 / 2**21, 15.4560699462890625, 12.5990753173828125, 10.7559356689453125])


def test_ratios():
    # 10**5 fractions k/n, as fpr and tpr of a ROC sweep are.
    rng = np.random.default_rng(5)
    n = rng.integers(1, 10**7, 10**5)
    k = rng.integers(0, n + 1)
    assert_reprs(k / n)


def test_one_block_of_temporaries_stays_small():
    # A pass's temporaries are freed as one burst; kept small, the heap keeps
    # them instead of faulting them in again on every pass.
    x = np.random.default_rng(1).random(floattext._BLOCK)
    out = np.empty((len(x), 3), dtype=np.uint64)
    tracemalloc.start()
    try:
        floattext._fill(x, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


@pytest.mark.parametrize("size", [0, 1, 4095, 4096, 4097, 10000])
def test_any_length(size):
    # Values are formatted in blocks; lengths around a block's size.
    rng = np.random.default_rng(size)
    assert_reprs(rng.random(size) * 10.0 ** rng.integers(-6, 18, size))


# Values whose runs the formatter must keep apart or get right alone: both
# signed zeros, powers of two (left to float.__repr__), NaNs with different
# payloads and signs, subnormals, and values the arithmetic certifies.
RUN_POOL = [
    0x0000000000000000, 0x8000000000000000,  # 0.0, -0.0
    0x3FF0000000000000, 0x3FE0000000000000, 0x4090000000000000,  # 1.0, 0.5, 1024.0
    0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,  # NaNs
    0x0000000000000001, 0x000FFFFFFFFFFFFF,  # 5e-324 and the largest subnormal
    0x3FB999999999999A, 0x3FD5555555555555, 0x405EDD2F1A9FBE77,  # 0.1, 1/3, 123.456
]


def assert_run_reprs(values: np.ndarray) -> None:
    """``repr`` for every value, with each run of equal bits formatted once."""
    formatted = []
    fill = floattext._fill

    def spy(x, out):
        formatted.append(len(x))
        fill(x, out)

    bits = values.view(np.uint64)
    runs = int(len(bits) > 0) + int(np.count_nonzero(bits[1:] != bits[:-1]))
    with mock.patch.object(floattext, "_fill", spy):
        assert_reprs(values)
    assert sum(formatted) == runs


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(RUN_POOL), st.integers(1, 5)), max_size=30),
    st.sampled_from((1, 2, 3, 7, floattext._BLOCK)),
)
def test_runs_of_equal_bit_patterns(runs, block):
    # Small blocks put block edges inside and between runs.
    values = from_bits([bits for bits, length in runs for _ in range(length)])
    with mock.patch.object(floattext, "_BLOCK", block):
        assert_run_reprs(values)


def test_runs_across_a_block_edge():
    # A run of 1.0 over rows _BLOCK - 1 to _BLOCK + 1, then more than
    # _BLOCK distinct values, so the distinct values fill two blocks.
    block = floattext._BLOCK
    assert_run_reprs(np.concatenate((
        np.arange(1, block) / 7, [1.0] * 3, [-0.0, -0.0, 0.0, 0.0], np.arange(block) / 3,
    )))
    assert_run_reprs(np.full(block + 1, 0.1))
    assert_run_reprs(np.array([1.0]))
    assert_run_reprs(np.array([]))


def assert_fixed2(values) -> None:
    """Each row is NULs, then ``'%.2f' % v``; the rows are as wide as the longest text."""
    values = np.asarray(values, dtype=np.float64)
    fields = fixed2_fields(values)
    texts = [b"%.2f" % value for value in values.tolist()]
    assert fields.dtype == np.uint8
    assert fields.shape == (len(values), max(map(len, texts), default=0))
    assert [bytes(row).lstrip(b"\0") for row in fields] == texts


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1) | fixed_range_bits, max_size=40))
def test_fixed2_raw_bit_patterns(bits):
    assert_fixed2(from_bits(bits))


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.integers(-(10**15), 10**15), st.integers(-2, 2), st.sampled_from((100, 200))),
    max_size=40,
))
def test_fixed2_near_hundredths(cases):
    """``k/100``, ``k/200`` (ties when k is odd) and their neighbours a few ulps away."""
    values = []
    for k, ulps, scale in cases:
        value = k / scale
        for _ in range(abs(ulps)):
            value = np.nextafter(value, np.inf if ulps > 0 else -np.inf)
        values.append(value)
    assert_fixed2(values)


def test_fixed2_hand_cases():
    assert_fixed2([
        0.125, 0.375, 2.675, 1.005, 0.005, -0.0, 0.0, -0.001, 5e-324, -5e-324,
        2.0**43 - 1, 2.0**43, 2.0**43 + 1, np.nextafter(2.0**43, 0), 1e15,
        1.7976931348623157e308, -1.7976931348623157e308, np.nan, np.inf, -np.inf,
        9.995, 99.995, 0.995, 999999999999.995, -0.005, 0.01, 160.0, 880.0,
    ])


@pytest.mark.parametrize("size", [0, 1, floattext._BLOCK - 1, floattext._BLOCK + 1, 20000])
def test_fixed2_any_length(size):
    # Values are formatted in blocks; lengths around a block's size, and
    # every width of integer part from 1 to 13 digits.
    rng = np.random.default_rng(size)
    assert_fixed2((rng.random(size) - 0.5) * 10.0 ** rng.integers(-3, 14, size))
