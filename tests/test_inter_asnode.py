"""Unit tests for the per-AS aggregated routing state."""

import pytest

from repro.idspace.identifier import RingSpace
from repro.inter.asnode import RoflAS
from repro.inter.pointers import ASPointer, InterVirtualNode

SPACE = RingSpace(bits=16)


def make_vn(value, home="AS-X", **kwargs):
    return InterVirtualNode(id=SPACE.make(value), home_as=home, **kwargs)


def ptr(value, route=("AS-X", "AS-Y"), level=None):
    return ASPointer(SPACE.make(value), tuple(route), level)


class FakeNet:
    """Just enough policy surface for RoflAS.best_match."""

    class _Policy:
        @staticmethod
        def subtree(level):
            # Every level here is a lone AS: its subtree is itself.
            return {level}

        @staticmethod
        def step_type(a, b):
            # The import rule's two questions: a packet from "blocked" came
            # over a peer link, and every pointer route here starts upward.
            return "peer" if a == "blocked" else "up"

    policy = _Policy()


class TestHosting:
    def test_host_and_unhost(self):
        node = RoflAS("AS-X", SPACE)
        vn = make_vn(10)
        node.host(vn)
        assert node.hosts_id(SPACE.make(10))
        node.unhost(SPACE.make(10))
        assert not node.hosts_id(SPACE.make(10))

    def test_duplicate_host_rejected(self):
        node = RoflAS("AS-X", SPACE)
        node.host(make_vn(10))
        with pytest.raises(ValueError):
            node.host(make_vn(10))

    def test_foreign_vn_rejected(self):
        node = RoflAS("AS-X", SPACE)
        with pytest.raises(ValueError):
            node.host(make_vn(10, home="AS-Z"))


class TestBestMatch:
    def test_unscoped_local_win(self):
        node = RoflAS("AS-X", SPACE)
        node.host(make_vn(100))
        match = node.best_match(FakeNet(), SPACE.make(100))
        assert match.is_local and match.dest_id.value == 100

    def test_pointer_candidates(self):
        node = RoflAS("AS-X", SPACE)
        vn = make_vn(100)
        vn.set_successor(None, ptr(200))
        node.host(vn)
        match = node.best_match(FakeNet(), SPACE.make(250))
        assert not match.is_local and match.dest_id.value == 200

    def test_scoped_membership_filter(self):
        node = RoflAS("AS-X", SPACE)
        vn = make_vn(100)
        vn.joined_levels = ["AS-X"]   # home ring only
        node.host(vn)
        net = FakeNet()
        in_home = node.best_match(net, SPACE.make(100), scope="AS-X")
        assert in_home is not None and in_home.is_local
        outside = node.best_match(net, SPACE.make(100), scope="OTHER")
        assert outside is None

    def test_scoped_skips_fingers(self):
        node = RoflAS("AS-X", SPACE)
        vn = make_vn(100)
        vn.fingers = [ptr(180, level="AS-X")]
        node.host(vn)
        net = FakeNet()
        scoped = node.best_match(net, SPACE.make(190), scope="AS-X")
        # The finger is skipped; the hosted ID wins (it is in its home ring).
        assert scoped.is_local
        unscoped = node.best_match(net, SPACE.make(190))
        assert unscoped.dest_id.value == 180 and unscoped.finger

    def test_import_rule_blocks_shortcuts(self):
        node = RoflAS("AS-X", SPACE)
        vn = make_vn(100)
        vn.set_successor(None, ptr(200))
        node.host(vn)
        net = FakeNet()
        blocked = node.best_match(net, SPACE.make(250), arrived_from="blocked")
        assert blocked is None or blocked.is_local

    def test_cache_needs_bloom_clearance(self):
        node = RoflAS("AS-X", SPACE, cache_entries=8)
        node.host(make_vn(10))
        node.cache.put(240, ("AS-X", "AS-Y"))
        net = FakeNet()
        hit = node.best_match(net, SPACE.make(250))
        # A cache win at a decision point is the one place its pointer is
        # built: the entry's ID and the cache's own route tuple.
        assert hit.pointer == ptr(240) and hit.cached and not hit.finger
        assert hit.pointer.as_route is node.cache._lru[240]
        # A transit AS only asks how close: a distance, no pointer.
        assert node.best_match(net, SPACE.make(250), closer_than=20) == 10
        # Once the destination appears below this AS, the cache is barred.
        node.subtree_bloom.add(SPACE.make(250))
        barred = node.best_match(net, SPACE.make(250))
        assert barred is None or not barred.cached

    def test_index_rebuild_on_mutation(self):
        node = RoflAS("AS-X", SPACE)
        vn = make_vn(100)
        node.host(vn)
        net = FakeNet()
        assert node.best_match(net, SPACE.make(300)).dest_id.value == 100
        vn.set_successor(None, ptr(250))
        node.mark_dirty(vn)
        assert node.best_match(net, SPACE.make(300)).dest_id.value == 250


class TestFlushCoalescing:
    def test_repeated_marks_one_rediff_per_flush(self):
        """A mark-dirty storm on one VN coalesces into a single re-diff."""
        from repro.util import perf

        node = RoflAS("AS-X", SPACE)
        vn = make_vn(100)
        vn.set_successor(None, ptr(200))
        node.host(vn)
        net = FakeNet()
        node.best_match(net, SPACE.make(300))  # settle the initial rebuild
        epoch0 = node._candidates.flush_epoch
        flushes0 = perf.value("asnode.index.refresh.flushes")
        owners0 = perf.value("asnode.index.refresh.owners")
        for _ in range(5):
            node.mark_dirty(vn)
        node.best_match(net, SPACE.make(300))
        assert node._candidates.flush_epoch == epoch0 + 1
        assert perf.value("asnode.index.refresh.flushes") == flushes0 + 1
        assert perf.value("asnode.index.refresh.owners") == owners0 + 1

    def test_owners_counter_counts_distinct_vns(self):
        from repro.util import perf

        node = RoflAS("AS-X", SPACE)
        vn_a, vn_b = make_vn(100), make_vn(5000)
        node.host(vn_a)
        node.host(vn_b)
        net = FakeNet()
        node.best_match(net, SPACE.make(300))
        owners0 = perf.value("asnode.index.refresh.owners")
        for _ in range(3):
            node.mark_dirty(vn_a)
            node.mark_dirty(vn_b)
        node.best_match(net, SPACE.make(300))
        assert perf.value("asnode.index.refresh.owners") == owners0 + 2

    def test_dead_target_sweep_marks_each_vn_once(self):
        """The fail-AS sweep pattern: many dead pointers on one VN cause
        one mark (and so one re-diff), not one per dropped pointer."""
        from repro.util import perf

        node = RoflAS("AS-X", SPACE)
        vn = make_vn(100)
        vn.set_successor(None, ptr(200))
        vn.fingers = [ptr(300), ptr(400)]
        node.host(vn)
        net = FakeNet()
        node.best_match(net, SPACE.make(10))
        owners0 = perf.value("asnode.index.refresh.owners")
        dropped = vn.drop_dead_targets({SPACE.make(200), SPACE.make(300),
                                        SPACE.make(400)})
        if dropped:
            node.mark_dirty(vn)
        assert dropped == 3
        node.best_match(net, SPACE.make(10))
        assert perf.value("asnode.index.refresh.owners") == owners0 + 1


class TestUpkeep:
    def test_drop_pointer(self):
        node = RoflAS("AS-X", SPACE, cache_entries=8)
        vn = make_vn(100)
        doomed = ptr(200)
        vn.set_successor(None, doomed)
        node.host(vn)
        node.cache.put(200, ("AS-X", "AS-Y"))
        node.drop_pointer(doomed)
        assert SPACE.make(200) not in node.cache
        assert not vn.succ_by_level

    def test_state_entries(self):
        node = RoflAS("AS-X", SPACE, cache_entries=8)
        vn = make_vn(100)
        vn.set_successor(None, ptr(200))
        vn.fingers = [ptr(50)]
        node.host(vn)
        node.cache.put(240, ("AS-X", "AS-Y"))
        # id itself + 1 succ + 1 finger + 1 cache entry
        assert node.state_entries() == 4


class TestPointerValidation:
    def test_as_route_must_end_at_dest(self):
        """The target AS is the route's end by construction: no field to
        disagree with it."""
        pointer = ASPointer(SPACE.make(1), ("AS-X", "AS-Y"))
        assert pointer.dest_as == "AS-Y" and pointer.owner_as == "AS-X"
        assert ASPointer._fields == ("dest_id", "as_route", "level")

    def test_empty_route_rejected(self):
        with pytest.raises(ValueError):
            ASPointer(SPACE.make(1), ())

    def test_drop_dead_target_sweeps_all_tables(self):
        vn = make_vn(100)
        vn.set_successor(None, ptr(200))
        vn.set_successor("L", ptr(200, level="L"))
        vn.pred_by_level["L"] = ptr(50)
        vn.fingers = [ptr(200)]
        dropped = vn.drop_dead_targets({SPACE.make(200)})
        assert dropped == 3
        assert not vn.succ_by_level and not vn.fingers
        assert "L" in vn.pred_by_level  # different target survives

    def test_drop_dead_targets_at_once_equals_one_at_a_time(self):
        def table():
            vn = make_vn(100)
            vn.set_successor(None, ptr(200))
            vn.set_successor("L", ptr(300, level="L"))
            vn.set_successor("M", ptr(200, level="M"))
            vn.pred_by_level["L"] = ptr(400)
            vn.pred_by_level["M"] = ptr(50)
            vn.fingers = [ptr(t) for t in (300, 500, 400, 600)]
            return vn
        dead = [SPACE.make(t) for t in (200, 400, 500, 700)]
        together, singly = table(), table()
        assert together.drop_dead_targets(set(dead)) \
            == sum(singly.drop_dead_targets({d}) for d in dead) == 5
        assert together == singly
        assert list(together.succ_by_level) == ["L"]
        assert [f.dest_id.value for f in together.fingers] == [300, 600]


def test_index_bookkeeping_adds_no_state_key():
    """The candidate index and anything it remembers between flushes are
    derived; a new key here would move every interdomain state hash."""
    node = RoflAS("AS-X", SPACE, cache_entries=8)
    vn = make_vn(100)
    vn.set_successor(None, ptr(200))
    node.host(vn)
    node.flush_index()
    assert set(node.__getstate__()) == {
        "asn", "space", "hosted", "cache", "subtree_bloom"}
    node.cache.put(240, ("AS-X", "AS-Y"))
    assert set(node.cache.__getstate__()) == {
        "space", "capacity", "_lru", "_ivalues", "hits", "misses",
        "evictions"}
