"""Hosting router: virtual-node table, candidate index, Algorithm 2 lookups."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.identifier import RingSpace
from repro.intra import forwarding
from repro.intra.network import IntraDomainNetwork
from repro.intra.router import RoflRouter
from repro.intra.virtualnode import Pointer, VirtualNode
from repro.obs import trace
from repro.topology.isp import synthetic_isp

SPACE = RingSpace(bits=16)


def make_router(cache_entries=8):
    return RoflRouter("r0", SPACE, cache_entries=cache_entries)


def vn(value, router="r0", ephemeral=False):
    return VirtualNode(id=SPACE.make(value), router=router,
                       host_name="h{}".format(value), ephemeral=ephemeral)


def succ(value, path=("r0", "r1")):
    return Pointer(SPACE.make(value), tuple(path))


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
        assert match.target == 200 and match.resident_vn is None

    def test_ephemeral_children_visible_only_to_data(self):
        router = make_router()
        node = vn(100)
        node.ephemeral_children[SPACE.make(150)] = Pointer(
            SPACE.make(150), ("r0", "r9"))
        router.register_virtual_node(node)
        data = router.best_match(SPACE.make(150), include_ephemeral=True)
        assert data.target == 150 and data.ephemeral
        ctl = router.best_match(SPACE.make(150), include_ephemeral=False)
        assert ctl.target == 100

    def test_ephemeral_residents_skipped_in_lookup(self):
        router = make_router()
        router.register_virtual_node(vn(100, ephemeral=True))
        match = router.best_match(SPACE.make(100), include_ephemeral=False)
        assert match.target != 100

    def test_an_ephemeral_id_matches_only_as_the_destination(self):
        """An ephemeral resident or parked child holds no onward state: a
        greedy walk that stepped onto one on the way stalled with
        "destination ID not found"."""
        router = make_router(cache_entries=0)
        router.register_virtual_node(vn(100, ephemeral=True))
        node = vn(50)
        node.successors = [succ(60)]
        node.ephemeral_children[SPACE.make(150)] = Pointer(
            SPACE.make(150), ("r0", "r9"))
        router.register_virtual_node(node)
        assert router.best_match(SPACE.make(120)).target == 60
        assert router.best_match(SPACE.make(170)).target == 60
        assert router.best_match(SPACE.make(150)).ephemeral
        assert router.best_match(SPACE.make(100)).resident_vn.ephemeral

    def test_cache_shortcut_only_when_strictly_closer(self):
        router = make_router()
        node = vn(100)
        node.successors = [succ(150)]
        router.register_virtual_node(node)
        router.cache.put(180, ("r0", "r2"))
        match = router.best_match(SPACE.make(190))
        # A cache win is its entry's int and route: no pointer is built.
        assert match == (180, ("r0", "r2"), None, None, 10, False)
        # Cache not closer than VN state → VN wins.
        router.cache.put(120, ("r0", "r2"))
        match = router.best_match(SPACE.make(151))
        assert match.target == 150

    def test_index_invalidation_on_mutation(self):
        router = make_router()
        node = vn(100)
        router.register_virtual_node(node)
        assert router.best_match(SPACE.make(300)).target == 100
        node.successors = [succ(250)]
        router.mark_dirty(node)
        assert router.best_match(SPACE.make(300)).target == 250


class TestPointerUpkeep:
    def test_drop_pointer_everywhere(self):
        router = make_router()
        node = vn(100)
        node.successors = [succ(200)]
        router.register_virtual_node(node)
        router.cache.put(200, ("r0", "r1"))
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
        node.predecessor = Pointer(SPACE.make(50), ("r0", "r3"))
        router.register_virtual_node(node)
        router.cache.put(1, ("r0", "r1"))
        # default VN (1) + node (1 + 2 succ + 1 pred) + 1 cache entry
        assert router.state_entries() == 1 + 4 + 1
        assert router.state_entries(include_cache=False) == 5


def _successor_with_a_spare_route(net):
    """A router, a successor pointer of one of its VNs that leaves it by
    a link the ISP can lose, and that link."""
    for name, router in sorted(net.routers.items()):
        for vn in router.vn_table.values():
            for ptr in vn.successors:
                if ptr.n_hops < 1:
                    continue
                link = ptr.path[:2]
                net.lsmap.fail_link(*link)
                spare = len(net.lsmap.components()) == 1
                net.lsmap.restore_link(*link)
                if spare:
                    return router, ptr, link
    raise AssertionError("no successor route with a spare link")


def test_a_repaired_ring_pointer_leaves_a_cache_entry_a_cache_entry():
    """``reroute_pointer`` once put the repaired ring pointer itself into
    the cache, so a later packet that took that cache entry reported
    ``used_cache=False`` and the trace rule ``"successor"``.  A cache entry
    takes the repaired route alone."""
    net = IntraDomainNetwork(synthetic_isp(n_routers=12, seed=1), seed=1)
    net.join_random_hosts(20)
    router, succ_ptr, link = _successor_with_a_spare_route(net)
    target = succ_ptr.dest_id
    net.fail_link(*link)            # ring pointers keep their dead route
    spare = tuple(net.paths.hop_path(router.name, succ_ptr.hosting_router))
    router.cache.put(target.value, spare)
    # The successor wins the tie with the cache entry; its route is
    # repaired at commit time, and the owner re-routes every copy.
    first = forwarding.route(net, router.name, target)
    assert first.delivered and not first.used_cache
    repaired = router.cache._lru[target.value]
    assert repaired == tuple(first.path) and repaired is not spare
    # With the successor gone, the cache entry is the closest ID known.
    for vn in router.vn_table.values():
        if vn.drop_successor(target):
            router.mark_dirty(vn)
    assert router.cache.get(target) == repaired
    second = forwarding.route(net, router.name, target)
    assert second.delivered and second.used_cache


def _cached_predecessor_with_a_spare_route(net):
    """A router, one of its VNs whose predecessor lives elsewhere, and a
    link the ISP can lose on the router's cached route to that
    predecessor — where the cache entry is the only state naming it."""
    for name, router in sorted(net.routers.items()):
        named = {ptr.dest_id for vn in router.vn_table.values()
                 for ptr in [*vn.successors, *vn.ephemeral_children.values()]}
        for vn in router.vn_table.values():
            pred = vn.predecessor
            if pred is None or pred.dest_id in named \
                    or pred.hosting_router == name:
                continue
            route = router.cache._lru.get(pred.dest_id.value)
            if route is None or len(route) < 2:
                continue
            link = route[:2]
            net.lsmap.fail_link(*link)
            spare = len(net.lsmap.components()) == 1
            net.lsmap.restore_link(*link)
            if spare:
                return router, vn, link
    raise AssertionError("no cached predecessor route with a spare link")


def test_a_revalidated_cache_entry_leaves_a_ring_pointer_its_kind():
    """``reroute_pointer`` once stored the repaired pointer itself as a
    VN's predecessor (and successor, and ephemeral child), so a cached
    route repaired after a bare link-state cut turned a ring neighbour's
    pointer into a cache pointer.  Now a pointer's kind is the slot that
    holds it: the entry stays in the cache, the predecessor stays in its
    slot (a pointer of its own, on the repaired route), and a packet that
    takes the entry again traces ``"cache"`` and reports ``used_cache``."""
    net = IntraDomainNetwork(synthetic_isp(n_routers=12, seed=1), seed=1)
    net.join_random_hosts(20)
    router, vn, link = _cached_predecessor_with_a_spare_route(net)
    target = vn.predecessor.dest_id
    net.lsmap.fail_link(*link)      # a bare cut: the cached route stays
    sent = forwarding.route(net, router.name, target)
    assert sent.delivered and sent.used_cache
    assert router.cache._lru[target.value] == tuple(sent.path)
    assert vn.predecessor.dest_id == target
    assert vn.predecessor.path == tuple(sent.path)
    assert all(ptr is not vn.predecessor for ptr in
               [*vn.successors, *vn.ephemeral_children.values()])
    tracer = trace.Tracer(sink=trace.RingBufferSink())
    with trace.tracing(tracer):
        again = forwarding.route(net, router.name, target)
    assert again.delivered and again.used_cache
    assert [record.data["rule"] for record in tracer.sink.records()
            if record.kind == "decision"][0] == "cache"


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
    assert set(router.cache.__getstate__()) == {
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
