"""Failure handling: host, router and link failures (Section 3.2)."""

import random

import pytest

from repro import build_network
from repro.intra import failure
from repro.intra.failure import directed_flood_cost
from repro.intra.virtualnode import uses_link


class TestHostFailure:
    def test_ring_heals_after_each_failure(self, intra_net_factory):
        net = intra_net_factory(n_hosts=60, seed=2)
        rng = random.Random(0)
        for _ in range(25):
            victim = rng.choice(sorted(net.hosts))
            net.fail_host(victim)
            net.check()

    def test_failed_host_unreachable(self, intra_net_factory):
        net = intra_net_factory(n_hosts=30)
        victim = sorted(net.hosts)[0]
        dead_id = net.hosts[victim].id
        net.fail_host(victim)
        result = net.send_to_id(net.topology.routers[0], dead_id)
        assert not result.delivered

    def test_no_pointers_to_dead_id_remain(self, intra_net_factory):
        net = intra_net_factory(n_hosts=60, seed=4)
        victim = sorted(net.hosts)[7]
        dead_id = net.hosts[victim].id
        net.fail_host(victim)
        for router in net.routers.values():
            assert dead_id not in router.cache
            for vn in router.vn_table.values():
                assert all(p.dest_id != dead_id for p in vn.successors)
                assert dead_id not in vn.ephemeral_children

    def test_failure_cost_comparable_to_join(self, intra_net_factory):
        """Paper §6.2: failure overhead comparable to join overhead."""
        net = intra_net_factory(n_hosts=150, seed=5)
        join_avg = sum(net.stats.operation_costs("join")) / 150
        rng = random.Random(1)
        costs = [net.fail_host(rng.choice(sorted(net.hosts)))
                 for _ in range(40)]
        fail_avg = sum(costs) / len(costs)
        assert fail_avg < 6 * join_avg

    def test_unknown_host_raises(self, intra_net_factory):
        net = intra_net_factory(n_hosts=5)
        with pytest.raises(KeyError):
            net.fail_host("nope")

    def test_traffic_flows_after_failures(self, intra_net_factory):
        net = intra_net_factory(n_hosts=60, seed=6)
        rng = random.Random(2)
        for _ in range(15):
            net.fail_host(rng.choice(sorted(net.hosts)))
        for _ in range(30):
            a, b = net.random_host_pair()
            assert net.send(a, b).delivered

    def test_ephemeral_failure_cleans_parent(self, intra_net_factory):
        net = intra_net_factory(n_hosts=40, seed=9, ephemeral_fraction=0.3)
        eph = next(name for name, vn in net.hosts.items() if vn.ephemeral)
        vn = net.hosts[eph]
        parent = net.vn_index[vn.predecessor.dest_id]
        assert vn.id in parent.ephemeral_children
        net.fail_host(eph)
        assert vn.id not in parent.ephemeral_children
        net.check()


class TestRouterFailure:
    def test_hosts_rehome_and_ring_heals(self, intra_net_factory):
        net = intra_net_factory(n_hosts=80, seed=3)
        victim = net.hosts[sorted(net.hosts)[0]].router
        resident = [name for name, vn in net.hosts.items()
                    if vn.router == victim]
        net.fail_router(victim)
        net.check()
        # Every resident host rejoined elsewhere.
        for name in resident:
            assert name in net.hosts
            assert net.hosts[name].router != victim
            assert net.lsmap.is_router_up(net.hosts[name].router)

    def test_failover_router_is_deterministic(self, intra_net_factory):
        net = intra_net_factory(n_hosts=0)
        ordered = sorted(net.routers)
        target = net.failover_router(ordered[0], "h")
        assert target == ordered[1]
        net.lsmap.fail_router(ordered[1])
        assert net.failover_router(ordered[0], "h") == ordered[2]

    def test_delivery_after_router_failure(self, intra_net_factory):
        net = intra_net_factory(n_hosts=80, seed=3)
        victim = net.topology.routers[3]
        net.fail_router(victim)
        for _ in range(30):
            a, b = net.random_host_pair()
            result = net.send(a, b)
            assert result.delivered
            assert victim not in result.path


class TestLinkFailure:
    def test_no_ring_change_on_link_failure(self, intra_net_factory):
        net = intra_net_factory(n_hosts=50, seed=8)
        members_before = {vn.id for vn in net.ring_members()}
        a, b = next(iter(net.lsmap.links()))
        net.fail_link(a, b)
        assert {vn.id for vn in net.ring_members()} == members_before

    def test_cached_routes_over_link_invalidated(self, intra_net_factory):
        net = intra_net_factory(n_hosts=80, seed=8)
        a, b = next(iter(net.lsmap.links()))
        net.fail_link(a, b)
        for router in net.routers.values():
            for route in router.cache._lru.values():
                assert not uses_link(route, a, b)

    def test_delivery_survives_link_failures(self, intra_net_factory):
        net = intra_net_factory(n_hosts=60, seed=8)
        rng = random.Random(5)
        edges = list(net.lsmap.links())
        rng.shuffle(edges)
        failed = 0
        for a, b in edges[:5]:
            net.lsmap.fail_link(a, b)
            if len(net.lsmap.components()) > 1:
                net.lsmap.restore_link(a, b)  # keep connected for this test
            else:
                net.fail_link(a, b) if net.lsmap.is_link_up(a, b) else None
                failed += 1
        for _ in range(30):
            x, y = net.random_host_pair()
            assert net.send(x, y).delivered


    def test_a_cut_that_splits_the_isp_heals_and_its_restore_merges(self):
        """``r17``–``r33`` is the one bridge of this ISP (32 and 8 routers
        either side).  The cut once left both rings broken (``check``
        raised, and about a third of same-side sends failed), and the
        restore never merged them: the ring stayed broken on a connected
        map."""
        net = build_network("intra", 0, hosts=300, n_routers=40)
        rng = random.Random(1)
        names = sorted(net.hosts)

        def sends_on_one_side(n):
            delivered = 0
            for _ in range(n):
                x, y = rng.sample(names, 2)
                while not net.lsmap.reachable(net.hosts[x].router,
                                              net.hosts[y].router):
                    x, y = rng.sample(names, 2)
                delivered += net.send(x, y).delivered
            return delivered

        net.fail_link("r17", "r33")
        assert sorted(map(len, net.lsmap.components())) == [8, 32]
        net.check()
        assert sends_on_one_side(400) == 400
        net.restore_link("r17", "r33")
        assert len(net.lsmap.components()) == 1
        net.check()
        assert sends_on_one_side(400) == 400


class TestDirectedFlood:
    def test_cost_is_edge_union(self, intra_net_factory):
        net = intra_net_factory(n_hosts=0)
        routers = net.topology.routers
        single = directed_flood_cost(net, routers[0], [routers[1]])
        assert single == net.paths.hop_dist(routers[0], routers[1])
        both = directed_flood_cost(net, routers[0], routers[1:3])
        assert both <= (net.paths.hop_dist(routers[0], routers[1])
                        + net.paths.hop_dist(routers[0], routers[2]))

    def test_empty_targets_cost_nothing(self, intra_net_factory):
        net = intra_net_factory(n_hosts=0)
        assert directed_flood_cost(net, net.topology.routers[0], []) == 0

    def test_no_cache_is_no_route_record_and_no_flood(self, monkeypatch):
        """A zero-capacity cache is never filled, so no route record names
        it and a host failure floods nobody.  On this shape the route
        records once named 1 338 empty caches, and the 20 failures charged
        991 teardown messages, 269 of them floods to empty caches."""
        net = build_network("intra", 0, hosts=200, n_routers=40,
                            cache_entries=0)
        assert not any(vn.cached_at for vn in net.vn_index.values())
        floods = []

        def recorded(net, origin, targets):
            floods.append(directed_flood_cost(net, origin, targets))
            return floods[-1]

        monkeypatch.setattr(failure, "directed_flood_cost", recorded)
        before = net.stats.total_messages("teardown")
        for victim in list(net.hosts)[:20]:
            net.fail_host(victim)
        assert floods == [0] * 20
        assert net.stats.total_messages("teardown") - before == 722
        assert not any(vn.cached_at for vn in net.vn_index.values())
