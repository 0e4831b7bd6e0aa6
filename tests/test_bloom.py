"""Bloom filter tests — ROFL's peering/isolation machinery relies on the
no-false-negative guarantee."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bloom import BloomFilter, CountingBloomFilter, optimal_parameters


class TestParameters:
    def test_optimal_parameters_reasonable(self):
        n_bits, n_hashes = optimal_parameters(1000, 0.01)
        assert n_bits > 1000
        assert 1 <= n_hashes <= 20

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            optimal_parameters(0, 0.01)
        with pytest.raises(ValueError):
            optimal_parameters(10, 1.5)
        with pytest.raises(ValueError):
            BloomFilter(n_bits=0, n_hashes=1)


class TestBloomFilter:
    def test_contains_what_was_added(self):
        bf = BloomFilter(capacity=100)
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
        bf = BloomFilter(capacity=10)
        assert "x" not in bf
        assert bf.false_positive_rate() == 0.0

    def test_fp_rate_stays_near_target(self):
        bf = BloomFilter(capacity=500, fp_rate=0.01)
        bf.update(("item-%d" % i for i in range(500)))
        false_hits = sum(1 for i in range(500, 5500)
                         if ("item-%d" % i) in bf)
        assert false_hits / 5000 < 0.05

    def test_union_preserves_membership(self):
        a = BloomFilter(n_bits=1024, n_hashes=4)
        b = BloomFilter(n_bits=1024, n_hashes=4)
        a.add("left")
        b.add("right")
        merged = a.union(b)
        assert "left" in merged and "right" in merged

    def test_union_requires_matching_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(n_bits=64, n_hashes=2).union(
                BloomFilter(n_bits=128, n_hashes=2))

    def test_size_bits_is_reported(self):
        assert BloomFilter(n_bits=4096, n_hashes=3).size_bits == 4096

    def test_fill_ratio_grows(self):
        bf = BloomFilter(n_bits=256, n_hashes=3)
        assert bf.fill_ratio() == 0.0
        bf.update(range(30))
        assert 0 < bf.fill_ratio() <= 1.0


class TestCountingBloom:
    def test_remove_restores_absence(self):
        cbf = CountingBloomFilter(capacity=64)
        cbf.add("host-1")
        assert "host-1" in cbf
        assert cbf.remove("host-1")
        assert "host-1" not in cbf

    def test_remove_absent_item_fails_cleanly(self):
        cbf = CountingBloomFilter(capacity=64)
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
    bf = BloomFilter(capacity=max(1, len(items)), fp_rate=0.01)
    bf.update(items)
    assert all(item in bf for item in items)


@settings(max_examples=30)
@given(st.sets(st.integers(), min_size=1, max_size=100))
def test_counting_bloom_no_false_negatives_after_churn(items):
    cbf = CountingBloomFilter(capacity=len(items) * 2)
    cbf.update(items)
    half = list(items)[: len(items) // 2]
    for item in half:
        assert cbf.remove(item)
    for item in set(items) - set(half):
        assert item in cbf
