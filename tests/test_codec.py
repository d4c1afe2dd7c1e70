"""Codec roundtrip tests — mirror of the reference's only asserting test,
the FastPFOR roundtrip (src/test/.../base/invertedIndex/InvertedIndexTest.java:91-146).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torchtrajectory_ray.functions.codec import (
    delta_decode,
    delta_encode,
    varint_decode,
    varint_encode,
)


@pytest.mark.parametrize("n", [0, 1, 2, 1000, 100_000])
def test_varint_roundtrip_sizes(n):
    rng = np.random.default_rng(7 + n)
    vals = rng.integers(0, 1 << 40, size=n, dtype=np.int64)
    if n > 10:  # planted large outliers (FIXTURES.md §5)
        vals[n // 2] = (1 << 62) + 12345
        vals[0] = 0
    out = varint_decode(varint_encode(vals), count=n)
    assert np.array_equal(out, vals)


@pytest.mark.parametrize("n", [0, 1, 2, 1000, 100_000])
def test_delta_roundtrip_sizes(n):
    rng = np.random.default_rng(11 + n)
    vals = np.sort(rng.integers(0, 1 << 45, size=n, dtype=np.int64))
    out = delta_decode(delta_encode(vals), count=n)
    assert np.array_equal(out, vals)


def test_varint_compresses_small_ints():
    vals = np.arange(10_000, dtype=np.int64) % 100
    assert len(varint_encode(vals)) == 10_000  # 1 byte each


def test_delta_compresses_dense_sorted():
    vals = np.arange(1_000_000, 1_050_000, dtype=np.int64)
    assert len(delta_encode(vals)) < 50_000 + 10


def test_negative_rejected():
    with pytest.raises(ValueError):
        varint_encode(np.array([-1], dtype=np.int64))
    with pytest.raises(ValueError):
        delta_encode(np.array([5, 3], dtype=np.int64))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 62)), max_size=300))
def test_varint_roundtrip_property(xs):
    vals = np.array(xs, dtype=np.int64)
    assert np.array_equal(varint_decode(varint_encode(vals), count=len(xs)), vals)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 62)), max_size=300))
def test_delta_roundtrip_property(xs):
    vals = np.sort(np.array(xs, dtype=np.int64))
    assert np.array_equal(delta_decode(delta_encode(vals), count=len(xs)), vals)
