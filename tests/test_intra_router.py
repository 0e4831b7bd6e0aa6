"""Hosting router: virtual-node table, candidate index, Algorithm 2 lookups."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.identifier import RingSpace
from repro.intra.router import RoflRouter
from repro.intra.virtualnode import Pointer, VirtualNode

SPACE = RingSpace(bits=16)


def make_router(cache_entries=8):
    return RoflRouter("r0", SPACE, cache_entries=cache_entries)


def vn(value, router="r0", ephemeral=False):
    return VirtualNode(id=SPACE.make(value), router=router,
                       host_name="h{}".format(value), ephemeral=ephemeral)


def succ(value, path=("r0", "r1")):
    return Pointer(SPACE.make(value), tuple(path), "successor")


class TestVnTable:
    def test_default_vn_always_present(self):
        router = make_router()
        assert router.default_vn.id in router.vn_table
        assert router.default_vn.is_default

    def test_register_and_remove(self):
        router = make_router()
        node = vn(100)
        router.register_virtual_node(node)
        assert router.hosts_id(SPACE.make(100))
        router.remove_virtual_node(SPACE.make(100))
        assert not router.hosts_id(SPACE.make(100))

    def test_duplicate_registration_rejected(self):
        router = make_router()
        router.register_virtual_node(vn(100))
        with pytest.raises(ValueError):
            router.register_virtual_node(vn(100))

    def test_foreign_vn_rejected(self):
        router = make_router()
        with pytest.raises(ValueError):
            router.register_virtual_node(vn(5, router="other"))

    def test_cannot_remove_default_vn(self):
        router = make_router()
        with pytest.raises(ValueError):
            router.remove_virtual_node(router.default_vn.id)


class TestBestMatch:
    def test_local_resident_wins_on_exact_distance(self):
        router = make_router()
        node = vn(100)
        router.register_virtual_node(node)
        match = router.best_match(SPACE.make(100))
        assert match.resident_vn is node

    def test_successor_pointers_are_candidates(self):
        router = make_router()
        node = vn(100)
        node.successors = [succ(200)]
        router.register_virtual_node(node)
        match = router.best_match(SPACE.make(210))
        assert match.dest_id.value == 200 and match.resident_vn is None

    def test_ephemeral_children_visible_only_to_data(self):
        router = make_router()
        node = vn(100)
        node.ephemeral_children[SPACE.make(150)] = Pointer(
            SPACE.make(150), ("r0", "r9"), "ephemeral")
        router.register_virtual_node(node)
        data = router.best_match(SPACE.make(150), include_ephemeral=True)
        assert data.dest_id.value == 150
        ctl = router.best_match(SPACE.make(150), include_ephemeral=False)
        assert ctl.dest_id.value == 100

    def test_ephemeral_residents_skipped_in_lookup(self):
        router = make_router()
        router.register_virtual_node(vn(100, ephemeral=True))
        match = router.best_match(SPACE.make(100), include_ephemeral=False)
        assert match.dest_id.value != 100

    def test_cache_shortcut_only_when_strictly_closer(self):
        router = make_router()
        node = vn(100)
        node.successors = [succ(150)]
        router.register_virtual_node(node)
        router.cache.put(Pointer(SPACE.make(180), ("r0", "r2"), "cache"))
        match = router.best_match(SPACE.make(190))
        assert match.dest_id.value == 180 and match.pointer.kind == "cache"
        # Cache not closer than VN state → VN wins.
        router.cache.put(Pointer(SPACE.make(120), ("r0", "r2"), "cache"))
        match = router.best_match(SPACE.make(151))
        assert match.dest_id.value == 150

    def test_index_invalidation_on_mutation(self):
        router = make_router()
        node = vn(100)
        router.register_virtual_node(node)
        assert router.best_match(SPACE.make(300)).dest_id.value == 100
        node.successors = [succ(250)]
        router.mark_dirty()
        assert router.best_match(SPACE.make(300)).dest_id.value == 250


class TestPointerUpkeep:
    def test_drop_pointer_everywhere(self):
        router = make_router()
        node = vn(100)
        node.successors = [succ(200)]
        router.register_virtual_node(node)
        router.cache.put(Pointer(SPACE.make(200), ("r0", "r1"), "cache"))
        router.drop_pointer(succ(200))
        assert node.successors == []
        assert SPACE.make(200) not in router.cache

    def test_reroute_pointer(self):
        router = make_router()
        node = vn(100)
        old = succ(200, path=("r0", "dead", "r1"))
        node.successors = [old]
        router.register_virtual_node(node)
        new = succ(200, path=("r0", "r2", "r1"))
        router.reroute_pointer(old, new)
        assert node.successors[0].path == ("r0", "r2", "r1")

    def test_state_entries(self):
        router = make_router()
        node = vn(100)
        node.successors = [succ(200), succ(300)]
        node.predecessor = Pointer(SPACE.make(50), ("r0", "r3"), "predecessor")
        router.register_virtual_node(node)
        router.cache.put(Pointer(SPACE.make(1), ("r0", "r1"), "cache"))
        # default VN (1) + node (1 + 2 succ + 1 pred) + 1 cache entry
        assert router.state_entries() == 1 + 4 + 1
        assert router.state_entries(include_cache=False) == 5


class TestFlushCoalescing:
    def test_pointer_upkeep_marks_each_vn_once(self):
        """reroute + drop on the same VN coalesce into one re-diff at the
        next flush, and the flush itself is a single epoch."""
        from repro.util import perf

        router = make_router()
        node = vn(100)
        old = succ(200, path=("r0", "dead", "r1"))
        node.successors = [old, succ(300)]
        router.register_virtual_node(node)
        router.best_match(SPACE.make(1))  # settle the initial rebuild
        epoch0 = router._candidates.flush_epoch
        flushes0 = perf.value("router.index.refresh.flushes")
        owners0 = perf.value("router.index.refresh.owners")
        router.reroute_pointer(old, succ(200, path=("r0", "r2", "r1")))
        router.drop_pointer(succ(300))
        router.flush_index()
        assert router._candidates.flush_epoch == epoch0 + 1
        assert perf.value("router.index.refresh.flushes") == flushes0 + 1
        assert perf.value("router.index.refresh.owners") == owners0 + 1
        assert node.successors[0].path == ("r0", "r2", "r1")
        assert len(node.successors) == 1

    def test_flush_index_is_idempotent_when_clean(self):
        from repro.util import perf

        router = make_router()
        router.register_virtual_node(vn(100))
        router.flush_index()
        epoch0 = router._candidates.flush_epoch
        flushes0 = perf.value("router.index.refresh.flushes")
        router.flush_index()
        router.flush_index()
        assert router._candidates.flush_epoch == epoch0
        assert perf.value("router.index.refresh.flushes") == flushes0


def test_index_bookkeeping_adds_no_state_key():
    """The candidate index, its owner map and anything they remember
    between flushes are derived and rebuilt on load; a new key here would
    move every intradomain state hash."""
    router = make_router()
    node = vn(100)
    node.successors = [succ(200)]
    router.register_virtual_node(node)
    router.flush_index()
    assert set(router.__getstate__()) == {
        "name", "space", "router_id", "vn_table", "cache", "default_vn"}
    assert set(vars(router.cache)) == {
        "space", "capacity", "_lru", "_ivalues", "hits", "misses",
        "evictions"}


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=65535),
                          st.lists(st.integers(min_value=0, max_value=65535),
                                   max_size=4),
                          st.booleans()),
                min_size=0, max_size=8),
       st.integers(min_value=0, max_value=65535),
       st.booleans())
def test_index_matches_reference_scan(specs, dest_v, include_eph):
    """The O(log n) candidate index must agree with the brute-force scan."""
    router = make_router(cache_entries=0)
    for i, (vid, succs, ephemeral) in enumerate(specs):
        if SPACE.make(vid) in router.vn_table:
            continue
        node = vn(vid, ephemeral=ephemeral)
        if not ephemeral:
            node.successors = [succ(s) for s in dict.fromkeys(succs)
                               if s != vid]
        router.register_virtual_node(node)
    dest = SPACE.make(dest_v)
    # A zero-capacity cache makes best_match the VN-only query.
    fast = router.best_match(dest, include_ephemeral=include_eph)
    slow = router.vn_best_match_scan(dest, include_ephemeral=include_eph)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert fast.distance == slow.distance
