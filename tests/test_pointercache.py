"""LRU pointer cache tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.identifier import RingSpace
from repro.intra.pointercache import PointerCache
from repro.intra.virtualnode import Pointer
from tests import pointercache_reference

SPACE = RingSpace(bits=16)


def ptr(value, path=("r0", "r1")):
    return Pointer(SPACE.make(value), tuple(path), "cache")


class TestLru:
    def test_put_get(self):
        cache = PointerCache(SPACE, capacity=4)
        cache.put(ptr(5))
        assert cache.get(SPACE.make(5)).dest_id.value == 5
        assert SPACE.make(5) in cache

    def test_eviction_order_is_lru(self):
        cache = PointerCache(SPACE, capacity=2)
        cache.put(ptr(1))
        cache.put(ptr(2))
        cache.get(SPACE.make(1))  # touch 1 → 2 becomes LRU
        cache.put(ptr(3))
        assert SPACE.make(1) in cache
        assert SPACE.make(2) not in cache
        assert cache.evictions == 1

    def test_best_match_touches_recency(self):
        cache = PointerCache(SPACE, capacity=2)
        cache.put(ptr(10))
        cache.put(ptr(20))
        cache.best_match(SPACE.make(11))  # hits 10
        cache.put(ptr(30))
        assert SPACE.make(10) in cache and SPACE.make(20) not in cache

    def test_zero_capacity_stores_nothing(self):
        cache = PointerCache(SPACE, capacity=0)
        cache.put(ptr(1))
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PointerCache(SPACE, capacity=-1)

    def test_reinsert_updates_value(self):
        cache = PointerCache(SPACE, capacity=2)
        cache.put(ptr(1, path=("a", "b")))
        cache.put(ptr(1, path=("a", "c")))
        assert len(cache) == 1
        assert cache.get(SPACE.make(1)).path == ("a", "c")


class TestMatching:
    def test_best_match_closest_not_past(self):
        cache = PointerCache(SPACE, capacity=8)
        for v in (10, 50, 90):
            cache.put(ptr(v))
        assert cache.best_match(SPACE.make(60)).dest_id.value == 50
        assert cache.best_match(SPACE.make(50)).dest_id.value == 50
        # Wrapping: nothing ≤ 5, so 90 is the closest from behind.
        assert cache.best_match(SPACE.make(5)).dest_id.value == 90

    def test_hit_miss_accounting(self):
        cache = PointerCache(SPACE, capacity=8)
        assert cache.best_match(SPACE.make(1)) is None
        cache.put(ptr(1))
        cache.best_match(SPACE.make(2))
        assert cache.misses == 1 and cache.hits == 1
        assert 0 < cache.hit_rate < 1


class TestInvalidation:
    def test_invalidate_id(self):
        cache = PointerCache(SPACE, capacity=4)
        cache.put(ptr(7))
        assert cache.invalidate_id(SPACE.make(7))
        assert not cache.invalidate_id(SPACE.make(7))
        assert cache.best_match(SPACE.make(8)) is None

    def test_invalidate_where_path_predicate(self):
        cache = PointerCache(SPACE, capacity=8)
        cache.put(ptr(1, path=("a", "x", "b")))
        cache.put(ptr(2, path=("a", "b")))
        dropped = cache.invalidate_where(lambda p: p.traverses("x"))
        assert dropped == 1
        assert SPACE.make(2) in cache and SPACE.make(1) not in cache

    def test_replace_reroutes_in_place(self):
        cache = PointerCache(SPACE, capacity=4)
        cache.put(ptr(3, path=("a", "dead", "b")))
        cache.replace(ptr(3, path=("a", "c", "b")))
        assert cache.get(SPACE.make(3)).path == ("a", "c", "b")

    def test_replace_ignores_absent(self):
        cache = PointerCache(SPACE, capacity=4)
        cache.replace(ptr(9))
        assert len(cache) == 0

    def test_clear(self):
        cache = PointerCache(SPACE, capacity=4)
        cache.put(ptr(1))
        cache.clear()
        assert len(cache) == 0
        assert cache.best_match(SPACE.make(2)) is None


@given(st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1),
                min_size=1, max_size=50),
       st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_best_match_matches_brute_force(values, probe_v):
    cache = PointerCache(SPACE, capacity=len(values))
    for v in values:
        cache.put(ptr(v))
    probe = SPACE.make(probe_v)
    got = cache.best_match(probe)
    expected = min(set(values),
                   key=lambda v: SPACE.distance_cw(SPACE.make(v), probe))
    assert got.dest_id.value == expected or \
        SPACE.distance_cw(got.dest_id, probe) == \
        SPACE.distance_cw(SPACE.make(expected), probe)


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=100))
def test_capacity_never_exceeded(values):
    cache = PointerCache(SPACE, capacity=10)
    for v in values:
        cache.put(ptr(v))
    assert len(cache) <= 10


# ---------------------------------------------------------------------------
# The one-column cache against the OrderedDict + SortedRingMap pair it
# replaced (tests/pointercache_reference.py, verbatim), step by step.
# ---------------------------------------------------------------------------

#: Mostly puts, so that a capacity of 8 fills and evicts (a list of steps
#: drawn one by one almost never gets there).
_OPS = ["put"] * 5 + ["replace", "get", "best_match", "invalidate_id",
                      "invalidate_where"]


def _draw(rng):
    """One step.  32 IDs make refreshes, exact hits and wrap-arounds
    common; a route goes via one of three routers, so ``invalidate_where``
    drops about a third of the entries."""
    op = rng.choice(_OPS) if rng.random() < 0.98 else "clear"
    return op, rng.randrange(32), rng.choice("xyz")


def _step(cache, step):
    op, value, via = step
    if op in ("put", "replace"):
        return getattr(cache, op)(ptr(value, path=("r0", via)))
    if op == "invalidate_where":
        return cache.invalidate_where(lambda p: p.traverses(via))
    if op == "clear":
        return cache.clear()
    return getattr(cache, op)(SPACE.make(value))


@pytest.mark.parametrize("capacity", [0, 1, 8])
@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False), n_steps=st.integers(0, 150))
def test_any_step_sequence_agrees_with_the_parent_cache(capacity, rng,
                                                        n_steps):
    cache = PointerCache(SPACE, capacity)
    oracle = pointercache_reference.PointerCache(SPACE, capacity)
    for _ in range(n_steps):
        step = _draw(rng)
        assert _step(cache, step) == _step(oracle, step), step
        assert list(cache._lru.items()) == list(oracle._lru.items())  # order
        assert (cache.hits, cache.misses, cache.evictions) == (
            oracle.hits, oracle.misses, oracle.evictions)
        assert cache._ivalues == sorted(cache._lru)
        assert len(cache) == len(oracle) <= capacity
        # ``best_match`` against a linear scan (probing moves both alike).
        for probe in (0, 13, 31):
            scan = min(cache._lru, default=None,
                       key=lambda iv: (probe - iv) % SPACE.size)
            for side in (cache, oracle):
                got = side.best_match(SPACE.make(probe))
                assert got is (None if scan is None else side._lru[scan])
