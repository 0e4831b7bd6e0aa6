"""LRU pointer cache tests: the flat intradomain :class:`RouteCache` (an
ID int and an interned route per entry) and the :class:`PointerCache` it
shares its LRU and key column with (the interdomain ``ASPointer`` cache)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.identifier import RingSpace
from repro.intra.pointercache import PointerCache, RouteCache
from repro.intra.virtualnode import Pointer, traverses
from repro.snapshot.codec import state_hash_of
from tests import pointercache_reference

SPACE = RingSpace(bits=16)


def put(cache, value, path=("r0", "r1")):
    cache.put(value, tuple(path))


class TestLru:
    def test_put_get(self):
        cache = RouteCache(SPACE, capacity=4)
        put(cache, 5)
        got = cache.get(SPACE.make(5))
        assert got == Pointer(SPACE.make(5), ("r0", "r1"), "cache")
        assert SPACE.make(5) in cache

    def test_eviction_order_is_lru(self):
        cache = RouteCache(SPACE, capacity=2)
        put(cache, 1)
        put(cache, 2)
        cache.get(SPACE.make(1))  # touch 1 → 2 becomes LRU
        put(cache, 3)
        assert SPACE.make(1) in cache
        assert SPACE.make(2) not in cache
        assert cache.evictions == 1

    def test_best_match_touches_recency(self):
        cache = RouteCache(SPACE, capacity=2)
        put(cache, 10)
        put(cache, 20)
        cache.best_match(SPACE.make(11))  # hits 10
        put(cache, 30)
        assert SPACE.make(10) in cache and SPACE.make(20) not in cache

    def test_zero_capacity_stores_nothing(self):
        cache = RouteCache(SPACE, capacity=0)
        put(cache, 1)
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            RouteCache(SPACE, capacity=-1)

    def test_reinsert_updates_value(self):
        cache = RouteCache(SPACE, capacity=2)
        put(cache, 1, ("a", "b"))
        put(cache, 1, ("a", "c"))
        assert len(cache) == 1
        assert cache.get(SPACE.make(1)).path == ("a", "c")


class TestMatching:
    def test_best_match_closest_not_past(self):
        cache = RouteCache(SPACE, capacity=8)
        for v in (10, 50, 90):
            put(cache, v)
        assert cache.best_match(SPACE.make(60)).dest_id.value == 50
        assert cache.best_match(SPACE.make(50)).dest_id.value == 50
        # Wrapping: nothing ≤ 5, so 90 is the closest from behind.
        assert cache.best_match(SPACE.make(5)).dest_id.value == 90

    def test_hit_miss_accounting(self):
        cache = RouteCache(SPACE, capacity=8)
        assert cache.best_match(SPACE.make(1)) is None
        put(cache, 1)
        cache.best_match(SPACE.make(2))
        assert cache.misses == 1 and cache.hits == 1
        assert 0 < cache.hit_rate < 1


class TestInvalidation:
    def test_invalidate_id(self):
        cache = RouteCache(SPACE, capacity=4)
        put(cache, 7)
        assert cache.invalidate_id(SPACE.make(7))
        assert not cache.invalidate_id(SPACE.make(7))
        assert cache.best_match(SPACE.make(8)) is None

    def test_invalidate_where_path_predicate(self):
        cache = RouteCache(SPACE, capacity=8)
        put(cache, 1, ("a", "x", "b"))
        put(cache, 2, ("a", "b"))
        dropped = cache.invalidate_where(
            lambda iv, route: traverses(route, "x"))
        assert dropped == 1
        assert SPACE.make(2) in cache and SPACE.make(1) not in cache

    def test_replace_reroutes_in_place(self):
        cache = RouteCache(SPACE, capacity=4)
        put(cache, 3, ("a", "dead", "b"))
        cache.replace(3, ("a", "c", "b"))
        assert cache.get(SPACE.make(3)).path == ("a", "c", "b")

    def test_replace_ignores_absent(self):
        cache = RouteCache(SPACE, capacity=4)
        cache.replace(9, ("r0", "r1"))
        assert len(cache) == 0

    def test_clear(self):
        cache = RouteCache(SPACE, capacity=4)
        put(cache, 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.best_match(SPACE.make(2)) is None


@given(st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1),
                min_size=1, max_size=50),
       st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_best_match_matches_brute_force(values, probe_v):
    cache = RouteCache(SPACE, capacity=len(values))
    for v in values:
        put(cache, v)
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
    cache = RouteCache(SPACE, capacity=10)
    for v in values:
        put(cache, v)
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
    """One step on either side; a pointer the flat cache builds answers as
    the route the reference stored."""
    op, value, via = step
    if op in ("put", "replace"):
        return getattr(cache, op)(value, ("r0", via))
    if op == "invalidate_where":
        return cache.invalidate_where(lambda iv, route: traverses(route, via))
    if op == "clear":
        return cache.clear()
    got = getattr(cache, op)(SPACE.make(value))
    return got.path if isinstance(got, Pointer) else got


@pytest.mark.parametrize("capacity", [0, 1, 8])
@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False), n_steps=st.integers(0, 150))
def test_any_step_sequence_agrees_with_the_parent_cache(capacity, rng,
                                                        n_steps):
    cache = RouteCache(SPACE, capacity)
    oracle = pointercache_reference.PointerCache(SPACE, capacity)
    for _ in range(n_steps):
        step = _draw(rng)
        assert _step(cache, step) == _step(oracle, step), step
        assert list(cache._lru.items()) == list(oracle._lru.items())  # order
        assert (cache.hits, cache.misses, cache.evictions) == (
            oracle.hits, oracle.misses, oracle.evictions)
        assert cache._ivalues == sorted(cache._lru)
        assert len(cache) == len(oracle) <= capacity
        _assert_interned(cache)
        # ``best_match`` against a linear scan (probing moves both alike).
        for probe in (0, 13, 31):
            scan = min(cache._lru, default=None,
                       key=lambda iv: (probe - iv) % SPACE.size)
            got = cache.best_match(SPACE.make(probe))
            assert oracle.best_match(SPACE.make(probe)) is (
                None if scan is None else oracle._lru[scan])
            if scan is None:
                assert got is None
            else:
                assert got.dest_id.value == scan and got.kind == "cache"
                assert got.path is cache._lru[scan]


# ---------------------------------------------------------------------------
# Interning: one tuple per distinct route, owned by the cache alone.
# ---------------------------------------------------------------------------

def _assert_interned(cache):
    """Equal routes in the cache are one tuple, and that tuple is the
    intern table's."""
    by_value = {}
    for route in cache._lru.values():
        assert by_value.setdefault(route, route) is route
        assert cache._routes[route] is route


class TestInterning:
    def test_equal_routes_are_one_tuple(self):
        cache = RouteCache(SPACE, capacity=8)
        for value in (1, 2, 3):
            put(cache, value, ["a", "b", "c"])
        assert len({id(route) for route in cache._lru.values()}) == 1
        _assert_interned(cache)

    def test_a_handed_tuple_is_never_adopted(self):
        cache = RouteCache(SPACE, capacity=8)
        route = ("a", "b")
        cache.put(1, route)
        cache.put(2, ("a", "c"))
        cache.replace(2, route)
        assert cache._lru[1] == route and cache._lru[1] is not route
        assert cache._lru[2] is cache._lru[1]

    def test_the_table_is_derived_state(self):
        cache = RouteCache(SPACE, capacity=8)
        put(cache, 1, ("a", "b"))
        put(cache, 2, ("a", "b"))
        assert set(cache.__getstate__()) == set(vars(cache)) - {"_routes"}
        clone = pickle.loads(pickle.dumps(cache))
        assert clone._lru[1] is clone._lru[2]
        _assert_interned(clone)
        assert state_hash_of(clone) == state_hash_of(cache)

    def test_the_hash_sees_the_entries_not_the_history(self):
        """Two caches with the same entries, one of which cached and
        evicted other routes first, hash alike and share alike."""
        fresh, churned = RouteCache(SPACE, 4), RouteCache(SPACE, 4)
        for value in range(40):
            put(churned, value, ("a", str(value % 3)))
        for value in range(36, 40):
            put(fresh, value, ("a", str(value % 3)))
        assert list(fresh._lru.items()) == list(churned._lru.items())
        fresh.evictions = churned.evictions     # the one counter that differs
        assert state_hash_of(fresh) == state_hash_of(churned)

    def test_the_table_stays_bounded(self):
        cache = RouteCache(SPACE, capacity=4)
        for value in range(1000):
            put(cache, value % 8, ("a", str(value)))
        assert len(cache._routes) <= 2 * len(cache) + 16
        _assert_interned(cache)
        cache.clear()
        assert not cache._routes


class TestPointerValues:
    """The same LRU with one pointer object per entry (the AS cache)."""

    def test_values_are_kept_as_given(self):
        cache = PointerCache(SPACE, capacity=2)
        first, second = object(), object()
        cache.put(5, first)
        cache.put(9, second)
        assert cache.best_match(SPACE.make(7)) is first
        assert cache.get(SPACE.make(9)) is second
        cache.replace(5, second)
        assert cache.get(SPACE.make(5)) is second
        assert cache.invalidate_where(lambda iv, value: iv == 9) == 1
        assert not hasattr(cache, "_routes")
