"""Intradomain joining (Algorithm 1) and ring maintenance."""

import pytest

from repro.idspace.crypto import KeyPair
from repro.idspace.identifier import FlatId
from repro.intra import ring
from repro.intra.ring import JoinError
from repro.topology.hosts import PlannedHost


class TestBootstrap:
    def test_router_ring_is_consistent_before_any_host(self, intra_net_factory):
        net = intra_net_factory(n_hosts=0)
        net.check()
        assert len(net.vn_index) == len(net.routers)

    def test_bootstrap_cost_charged_separately(self, intra_net_factory):
        net = intra_net_factory(n_hosts=0)
        assert net.stats.total_messages("bootstrap") > 0
        assert net.stats.total_messages("join") == 0


class TestJoin:
    def test_ring_stays_consistent_through_joins(self, intra_net_factory):
        net = intra_net_factory(n_hosts=0)
        for _ in range(40):
            net.join_host(net.next_planned_host())
            net.check()

    def test_join_receipt_fields(self, intra_net_factory):
        net = intra_net_factory(n_hosts=0)
        host = net.next_planned_host()
        receipt = net.join_host(host)
        assert receipt.flat_id == host.flat_id
        assert receipt.messages > 0
        assert receipt.latency_ms > 0
        assert receipt.router == host.attach_at

    def test_join_cost_near_four_diameters(self, intra_net_factory):
        """The paper: join overhead ≈ 4 × network diameter."""
        net = intra_net_factory(n_hosts=200)
        costs = net.stats.operation_costs("join")
        mean = sum(costs) / len(costs)
        diameter = net.topology.diameter()
        assert mean <= 6 * diameter

    def test_duplicate_id_rejected(self, intra_net_factory):
        net = intra_net_factory(n_hosts=0)
        host = net.next_planned_host()
        net.join_host(host)
        clone = PlannedHost(name="clone", attach_at=host.attach_at,
                            key_pair=host.key_pair)
        with pytest.raises(JoinError):
            net.join_host(clone)

    def test_spoofed_identity_rejected(self, intra_net_factory):
        from repro.idspace.crypto import SpoofedIdentityError
        net = intra_net_factory(n_hosts=0)
        outsider = KeyPair.generate(b"outsider")  # wrong authority
        host = PlannedHost(name="spoof", attach_at=net.topology.routers[0],
                           key_pair=outsider)
        with pytest.raises(SpoofedIdentityError):
            net.join_host(host)

    def test_join_via_down_router_fails(self, intra_net_factory):
        net = intra_net_factory(n_hosts=5)
        victim = net.topology.routers[0]
        net.lsmap.fail_router(victim)
        host = net.next_planned_host()
        with pytest.raises(JoinError):
            net.join_host(host, via_router=victim)

    def test_successor_groups_filled(self, intra_net_factory):
        net = intra_net_factory(n_hosts=50)
        for vn in net.ring_members():
            assert 1 <= len(vn.successors) <= net.successor_group_size
            # No duplicate targets inside a group.
            ids = [p.dest_id for p in vn.successors]
            assert len(set(ids)) == len(ids)

    def test_successor_group_matches_ring_order(self, intra_net_factory):
        net = intra_net_factory(n_hosts=30)
        members = sorted(net.ring_members(), key=lambda v: v.id)
        index = {vn.id: i for i, vn in enumerate(members)}
        n = len(members)
        for vn in members:
            primary = vn.primary_successor()
            assert index[primary.dest_id] == (index[vn.id] + 1) % n

    def test_predecessor_pointers_consistent(self, intra_net_factory):
        net = intra_net_factory(n_hosts=30)
        members = sorted(net.ring_members(), key=lambda v: v.id)
        n = len(members)
        for i, vn in enumerate(members):
            assert vn.predecessor is not None
            assert vn.predecessor.dest_id == members[(i - 1) % n].id

    def test_source_routes_are_live_paths(self, intra_net_factory):
        net = intra_net_factory(n_hosts=30)
        for vn in net.ring_members():
            for ptr in vn.successors:
                assert net.lsmap.path_is_live(list(ptr.path))
                assert ptr.path[0] == vn.router

    def test_cache_entries_created_by_control_traffic(self, intra_net_factory):
        net = intra_net_factory(n_hosts=60)
        assert sum(len(r.cache) for r in net.routers.values()) > 0

    def test_cache_fill_can_be_disabled(self, intra_net_factory):
        """No capacity is no fill: no entry, and no route record."""
        net = intra_net_factory(n_hosts=60, cache_entries=0)
        assert sum(len(r.cache) for r in net.routers.values()) == 0
        assert not any(vn.cached_at for vn in net.vn_index.values())


class TestJoinIndexMarks:
    def test_a_stable_join_marks_the_new_id_and_its_predecessor(
            self, intra_net_factory):
        """A router's candidate pointers are successors and parked
        children.  The successor's side of a join writes only its
        predecessor pointer, which no index holds, so it must not send its
        owner back through the re-diff: one mark for hosting the new ID,
        one for the predecessor re-pointed at it."""
        from repro.util import perf

        net = intra_net_factory(n_hosts=0)
        net.flush_indexes()
        marks0 = perf.value("router.index.marks")
        for _ in range(300):
            net.join_host(net.next_planned_host())
            net.flush_indexes()
        assert not any(vn.ephemeral for vn in net.vn_index.values())
        assert perf.value("router.index.marks") - marks0 == 2 * 300
        net.check()


class TestEphemeral:
    def test_ephemeral_hosts_stay_off_ring(self, intra_net_factory):
        net = intra_net_factory(n_hosts=0, ephemeral_fraction=1.0)
        receipts = net.join_random_hosts(10)
        assert all(r.ephemeral for r in receipts)
        assert all(vn.is_default for vn in net.ring_members())
        net.check()

    def test_ephemeral_join_is_cheaper(self, intra_net_factory):
        stable_net = intra_net_factory(n_hosts=100, seed=3)
        eph_net = intra_net_factory(n_hosts=0, seed=3, ephemeral_fraction=1.0)
        # Join the same number of hosts so the rings are comparable.
        eph_net.join_random_hosts(100)
        stable_cost = sum(stable_net.stats.operation_costs("join")) / 100
        eph_cost = sum(eph_net.stats.operation_costs("join")) / 100
        assert eph_cost < stable_cost

    def test_ephemeral_host_reachable(self, intra_net_factory):
        net = intra_net_factory(n_hosts=30, seed=9, ephemeral_fraction=0.3)
        ephemerals = [name for name, vn in net.hosts.items() if vn.ephemeral]
        stables = [name for name, vn in net.hosts.items() if not vn.ephemeral]
        assert ephemerals, "seed produced no ephemeral hosts"
        result = net.send(stables[0], ephemerals[0])
        assert result.delivered

    def test_ephemeral_parked_at_predecessor(self, intra_net_factory):
        net = intra_net_factory(n_hosts=40, seed=9, ephemeral_fraction=0.25)
        for name, vn in net.hosts.items():
            if not vn.ephemeral:
                continue
            pred = net.vn_index[vn.predecessor.dest_id]
            assert vn.id in pred.ephemeral_children


    def test_an_ephemeral_host_is_parked_at_its_ring_predecessor(
            self, intra_net_factory):
        """A stable join between a parked ID and the VN it is parked at
        takes the child over, as a departure hands children back."""
        net = intra_net_factory(n_hosts=150, seed=0, ephemeral_fraction=0.4)
        ring_ids = sorted(vn.id for vn in net.ring_members())
        for vn in net.hosts.values():
            if vn.ephemeral:
                expected = max((i for i in ring_ids if i < vn.id),
                               default=ring_ids[-1])
                assert vn.predecessor.dest_id == expected
                assert vn.id in net.vn_index[expected].ephemeral_children

    def test_every_ephemeral_host_is_reached_from_every_router(
            self, intra_net_factory):
        """With no cache to shortcut through, only ring state routes: 57
        ephemeral hosts, each sent to from all 40 routers (every one was
        unreachable from at least one router before the fix)."""
        net = intra_net_factory(n_hosts=150, seed=0, ephemeral_fraction=0.4,
                                cache_entries=0)
        ephemeral = [vn for vn in net.hosts.values() if vn.ephemeral]
        assert len(ephemeral) == 57
        for vn in ephemeral:
            for router in net.routers:
                assert net.send_to_id(router, vn.id).delivered, (router, vn)


class TestJoinWithId:
    def test_raw_id_join(self, intra_net_factory):
        net = intra_net_factory(n_hosts=10)
        target = FlatId(12345)
        receipt = ring.join_with_id(net, target, net.topology.routers[0],
                                    "raw-id")
        assert receipt.flat_id == target
        net.check()
        result = net.send_to_id(net.topology.routers[5], target)
        assert result.delivered

    def test_raw_id_duplicate_rejected(self, intra_net_factory):
        net = intra_net_factory(n_hosts=5)
        ring.join_with_id(net, FlatId(999), net.topology.routers[0], "one")
        with pytest.raises(JoinError):
            ring.join_with_id(net, FlatId(999), net.topology.routers[1], "two")
