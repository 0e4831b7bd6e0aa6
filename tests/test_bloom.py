"""Bloom filter tests — ROFL's peering/isolation machinery relies on the
no-false-negative guarantee."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bloom import BloomFilter, CountingBloomFilter


class TestParameters:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            BloomFilter(n_bits=0, n_hashes=1)
        with pytest.raises(ValueError):
            CountingBloomFilter(n_bits=64, n_hashes=0)


class TestBloomFilter:
    def test_contains_what_was_added(self):
        bf = BloomFilter(n_bits=1024, n_hashes=4)
        for item in ("a", "b", 42, b"bytes"):
            bf.add(item)
        assert "a" in bf and "b" in bf and 42 in bf and b"bytes" in bf

    def test_one_mask_sets_the_same_bits_in_any_filter_of_the_geometry(self):
        """What a join relies on to hash an ID once for all its ancestors."""
        direct = BloomFilter(n_bits=1 << 10, n_hashes=4)
        masked = BloomFilter(n_bits=1 << 10, n_hashes=4)
        for item in range(50):
            direct.add(item)
            masked.add_mask(direct.mask_of(item))
        assert (masked._bits, masked.n_items) == (direct._bits, direct.n_items)

    def test_empty_filter_contains_nothing(self):
        bf = BloomFilter(n_bits=128, n_hashes=4)
        assert "x" not in bf

    def test_fp_rate_stays_near_target(self):
        # The textbook geometry for 500 items at a 1 % target.
        bf = BloomFilter(n_bits=4793, n_hashes=7)
        for i in range(500):
            bf.add("item-%d" % i)
        false_hits = sum(1 for i in range(500, 5500)
                         if ("item-%d" % i) in bf)
        assert false_hits / 5000 < 0.05

    def test_size_bits_is_reported(self):
        assert BloomFilter(n_bits=4096, n_hashes=3).size_bits == 4096


class TestCountingBloom:
    def test_remove_restores_absence(self):
        cbf = CountingBloomFilter(n_bits=1024, n_hashes=4)
        cbf.add("host-1")
        assert "host-1" in cbf
        assert cbf.remove("host-1")
        assert "host-1" not in cbf

    def test_remove_absent_item_fails_cleanly(self):
        cbf = CountingBloomFilter(n_bits=1024, n_hashes=4)
        assert not cbf.remove("never-added")

    def test_shared_bits_survive_partial_removal(self):
        cbf = CountingBloomFilter(n_bits=32, n_hashes=2)
        cbf.add("a")
        cbf.add("a")
        assert cbf.remove("a")
        assert "a" in cbf  # second copy still counted

    def test_counting_filter_refuses_a_mask(self):
        cbf = CountingBloomFilter(n_bits=128, n_hashes=2)
        with pytest.raises(TypeError):
            cbf.add_mask(cbf.mask_of("x"))
        assert "x" not in cbf and cbf.n_items == 0

    def test_counting_size_includes_counters(self):
        cbf = CountingBloomFilter(n_bits=128, n_hashes=2)
        assert cbf.size_bits == 128 * 4


@settings(max_examples=50)
@given(st.sets(st.integers(), min_size=0, max_size=200))
def test_no_false_negatives(items):
    """The property everything downstream depends on."""
    bf = BloomFilter(n_bits=2048, n_hashes=4)
    for item in items:
        bf.add(item)
    assert all(item in bf for item in items)


@settings(max_examples=30)
@given(st.sets(st.integers(), min_size=1, max_size=100))
def test_counting_bloom_no_false_negatives_after_churn(items):
    cbf = CountingBloomFilter(n_bits=1024, n_hashes=4)
    for item in items:
        cbf.add(item)
    half = list(items)[: len(items) // 2]
    for item in half:
        assert cbf.remove(item)
    for item in set(items) - set(half):
        assert item in cbf
