"""LRU pointer cache tests: the one :class:`PointerCache` of routers and
ASes (an ID int and an interned route per entry — router names on a
router, AS numbers on an AS)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.identifier import RingSpace
from repro.intra.pointercache import PointerCache
from repro.intra.virtualnode import traverses
from repro.snapshot.codec import state_hash_of
from tests import pointercache_reference

SPACE = RingSpace(bits=16)


def put(cache, value, path=("r0", "r1")):
    cache.put(value, tuple(path))


class TestLru:
    def test_put_get(self):
        cache = PointerCache(SPACE, capacity=4)
        put(cache, 5)
        assert cache.get(SPACE.make(5)) == ("r0", "r1")
        assert SPACE.make(5) in cache

    def test_eviction_order_is_lru(self):
        cache = PointerCache(SPACE, capacity=2)
        put(cache, 1)
        put(cache, 2)
        cache.get(SPACE.make(1))  # touch 1 → 2 becomes LRU
        put(cache, 3)
        assert SPACE.make(1) in cache
        assert SPACE.make(2) not in cache
        assert cache.evictions == 1

    def test_best_match_touches_recency(self):
        cache = PointerCache(SPACE, capacity=2)
        put(cache, 10)
        put(cache, 20)
        cache.best_match(SPACE.make(11))  # hits 10
        put(cache, 30)
        assert SPACE.make(10) in cache and SPACE.make(20) not in cache

    def test_zero_capacity_stores_nothing(self):
        cache = PointerCache(SPACE, capacity=0)
        put(cache, 1)
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PointerCache(SPACE, capacity=-1)

    def test_reinsert_updates_value(self):
        cache = PointerCache(SPACE, capacity=2)
        put(cache, 1, ("a", "b"))
        put(cache, 1, ("a", "c"))
        assert len(cache) == 1
        assert cache.get(SPACE.make(1)) == ("a", "c")


class TestMatching:
    def test_best_match_closest_not_past(self):
        cache = PointerCache(SPACE, capacity=8)
        for v in (10, 50, 90):
            put(cache, v)
        assert cache.best_match(SPACE.make(60)) == (50, ("r0", "r1"))
        assert cache.best_match(SPACE.make(50))[0] == 50
        # Wrapping: nothing ≤ 5, so 90 is the closest from behind.
        assert cache.best_match(SPACE.make(5))[0] == 90

    def test_hit_miss_accounting(self):
        cache = PointerCache(SPACE, capacity=8)
        assert cache.best_match(SPACE.make(1)) is None
        put(cache, 1)
        cache.best_match(SPACE.make(2))
        assert cache.misses == 1 and cache.hits == 1
        assert 0 < cache.hit_rate < 1


class TestInvalidation:
    def test_invalidate_id(self):
        cache = PointerCache(SPACE, capacity=4)
        put(cache, 7)
        assert cache.invalidate_id(SPACE.make(7))
        assert not cache.invalidate_id(SPACE.make(7))
        assert cache.best_match(SPACE.make(8)) is None

    def test_invalidate_where_path_predicate(self):
        cache = PointerCache(SPACE, capacity=8)
        put(cache, 1, ("a", "x", "b"))
        put(cache, 2, ("a", "b"))
        dropped = cache.invalidate_where(
            lambda iv, route: traverses(route, "x"))
        assert dropped == 1
        assert SPACE.make(2) in cache and SPACE.make(1) not in cache

    def test_replace_reroutes_in_place(self):
        cache = PointerCache(SPACE, capacity=4)
        put(cache, 3, ("a", "dead", "b"))
        cache.replace(3, ("a", "c", "b"))
        assert cache.get(SPACE.make(3)) == ("a", "c", "b")

    def test_replace_ignores_absent(self):
        cache = PointerCache(SPACE, capacity=4)
        cache.replace(9, ("r0", "r1"))
        assert len(cache) == 0

    def test_clear(self):
        cache = PointerCache(SPACE, capacity=4)
        put(cache, 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.best_match(SPACE.make(2)) is None


@given(st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1),
                min_size=1, max_size=50),
       st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_best_match_matches_brute_force(values, probe_v):
    cache = PointerCache(SPACE, capacity=len(values))
    for v in values:
        put(cache, v)
    probe = SPACE.make(probe_v)
    got, _ = cache.best_match(probe)
    expected = min(set(values),
                   key=lambda v: SPACE.distance_cw(SPACE.make(v), probe))
    assert got == expected or \
        SPACE.distance_cw(SPACE.make(got), probe) == \
        SPACE.distance_cw(SPACE.make(expected), probe)


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=100))
def test_capacity_never_exceeded(values):
    cache = PointerCache(SPACE, capacity=10)
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

#: A route's second hop, one of three, per kind of cache: router names on
#: a router, AS numbers on an AS.
_HOPS = {"router": ("r0", ("x", "y", "z")), "as": (7, (11, 12, 13))}


def _draw(rng):
    """One step.  32 IDs make refreshes, exact hits and wrap-arounds
    common; a route goes via one of three hops, so ``invalidate_where``
    drops about a third of the entries."""
    op = rng.choice(_OPS) if rng.random() < 0.98 else "clear"
    return op, rng.randrange(32), rng.randrange(3)


def _step(cache, step, kind):
    """One step on either side; the flat cache's ``(iv, route)`` match
    answers as the route the reference stored."""
    op, value, via = step
    origin, hops = _HOPS[kind]
    if op in ("put", "replace"):
        return getattr(cache, op)(value, (origin, hops[via]))
    if op == "invalidate_where":
        return cache.invalidate_where(lambda iv, route: hops[via] in route)
    if op == "clear":
        return cache.clear()
    got = getattr(cache, op)(SPACE.make(value))
    if op == "best_match" and got is not None \
            and isinstance(cache, PointerCache):
        return got[1]
    return got


@pytest.mark.parametrize("capacity", [0, 1, 8])
@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False), n_steps=st.integers(0, 150))
def test_any_step_sequence_agrees_with_the_parent_cache(capacity, rng,
                                                        n_steps):
    """Each drawn sequence runs twice: over router routes and over
    AS-number routes."""
    steps = [_draw(rng) for _ in range(n_steps)]
    for kind in _HOPS:
        cache = PointerCache(SPACE, capacity)
        oracle = pointercache_reference.PointerCache(SPACE, capacity)
        for step in steps:
            assert _step(cache, step, kind) == _step(oracle, step, kind), step
            assert list(cache._lru.items()) == list(oracle._lru.items())
            assert (cache.hits, cache.misses, cache.evictions) == (
                oracle.hits, oracle.misses, oracle.evictions)
            assert cache._ivalues == sorted(cache._lru)
            assert len(cache) == len(oracle) <= capacity
            _assert_interned(cache)
            # ``best_match`` against a linear scan (probing moves both
            # alike).
            for probe in (0, 13, 31):
                scan = min(cache._lru, default=None,
                           key=lambda iv: (probe - iv) % SPACE.size)
                got = cache.best_match(SPACE.make(probe))
                assert oracle.best_match(SPACE.make(probe)) is (
                    None if scan is None else oracle._lru[scan])
                if scan is None:
                    assert got is None
                else:
                    assert got[0] == scan and got[1] is cache._lru[scan]


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


#: One route per kind of cache: router names, and AS numbers.
_ROUTES = (("a", "b", "c"), (3, 1, 4))


class TestInterning:
    def test_equal_routes_are_one_tuple(self):
        for hops in _ROUTES:
            cache = PointerCache(SPACE, capacity=8)
            for value in (1, 2, 3):
                put(cache, value, list(hops))
            assert len({id(route) for route in cache._lru.values()}) == 1
            _assert_interned(cache)

    def test_a_handed_tuple_is_never_adopted(self):
        for route in _ROUTES:
            cache = PointerCache(SPACE, capacity=8)
            cache.put(1, route)
            cache.put(2, route[:2])
            cache.replace(2, route)
            assert cache._lru[1] == route and cache._lru[1] is not route
            assert cache._lru[2] is cache._lru[1]
            # A full slice of a tuple is that tuple: still copied.
            cache.put(3, route[0:])
            assert cache._lru[3] is cache._lru[1]

    def test_the_table_is_derived_state(self):
        cache = PointerCache(SPACE, capacity=8)
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
        fresh, churned = PointerCache(SPACE, 4), PointerCache(SPACE, 4)
        for value in range(40):
            put(churned, value, ("a", str(value % 3)))
        for value in range(36, 40):
            put(fresh, value, ("a", str(value % 3)))
        assert list(fresh._lru.items()) == list(churned._lru.items())
        fresh.evictions = churned.evictions     # the one counter that differs
        assert state_hash_of(fresh) == state_hash_of(churned)

    def test_the_table_stays_bounded(self):
        cache = PointerCache(SPACE, capacity=4)
        for value in range(1000):
            put(cache, value % 8, ("a", str(value)))
        assert len(cache._routes) <= 2 * len(cache) + 16
        _assert_interned(cache)
        cache.clear()
        assert not cache._routes
