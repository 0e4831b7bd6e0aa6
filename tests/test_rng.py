"""Deterministic randomness helpers."""

import pytest

from repro.util.rng import (derive_rng, sample_zipf_counts, stable_hash,
                            zipf_weights)


def test_stable_hash_is_stable_and_scoped():
    assert stable_hash(1, "a") == stable_hash(1, "a")
    assert stable_hash(1, "a") != stable_hash(1, "b")
    assert stable_hash(1, "a") != stable_hash(2, "a")


def test_derive_rng_streams_are_independent():
    a1 = derive_rng(0, "topology").random()
    a2 = derive_rng(0, "topology").random()
    b = derive_rng(0, "hosts").random()
    assert a1 == a2
    assert a1 != b


def test_zipf_weights_normalised_and_decreasing():
    w = zipf_weights(10)
    assert abs(sum(w) - 1.0) < 1e-9
    assert all(x >= y for x, y in zip(w, w[1:]))


def test_zipf_weights_rejects_bad_n():
    with pytest.raises(ValueError):
        zipf_weights(0)


def test_zipf_exponent_sharpens_head():
    flat = zipf_weights(100, exponent=0.5)
    sharp = zipf_weights(100, exponent=2.0)
    assert sharp[0] > flat[0]


def test_sample_zipf_counts_sum_and_determinism():
    rng1 = derive_rng(3, "x")
    rng2 = derive_rng(3, "x")
    c1 = sample_zipf_counts(rng1, 20, 1000)
    c2 = sample_zipf_counts(rng2, 20, 1000)
    assert sum(c1) == 1000
    assert c1 == c2
    assert min(c1) >= 0
