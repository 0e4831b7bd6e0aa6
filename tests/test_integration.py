"""End-to-end scenarios crossing module boundaries, including churn mixes."""

import random


from repro import quick_interdomain, quick_intradomain
from repro.inter.policy import JoinStrategy
from repro.services.anycast import AnycastGroup
from repro.services.multicast import MulticastGroup


class TestQuickstarts:
    def test_quick_intradomain(self):
        net = quick_intradomain(n_routers=30, n_hosts=40, seed=1)
        net.check_ring()
        a, b = net.random_host_pair()
        assert net.send(a, b).delivered

    def test_quick_interdomain(self):
        net = quick_interdomain(n_ases=40, n_hosts=60, seed=1)
        net.check_rings()
        a, b = net.random_host_pair()
        assert net.send(a, b).delivered


class TestIntradomainChurn:
    def test_mixed_churn_keeps_invariants(self, intra_net_factory):
        net = intra_net_factory(n_hosts=50, seed=11)
        rng = random.Random(11)
        for step in range(60):
            op = rng.random()
            if op < 0.45:
                net.join_random_hosts(1)
            elif op < 0.75 and len(net.hosts) > 5:
                net.fail_host(rng.choice(sorted(net.hosts)))
            elif op < 0.9:
                a, b = rng.choice(list(net.lsmap.links()))
                net.fail_link(a, b)
                if len(net.lsmap.components()) > 1:
                    net.restore_link(a, b)
            else:
                a, b = net.random_host_pair()
                assert net.send(a, b).delivered
            net.check_ring()
        # Final sweep: everyone reaches everyone.
        for _ in range(40):
            a, b = net.random_host_pair()
            assert net.send(a, b).delivered

    def test_router_failures_then_partition(self, intra_net_factory):
        net = intra_net_factory(n_hosts=60, seed=12)
        victims = [r for r in net.topology.routers[:3]]
        for victim in victims:
            if net.lsmap.is_router_up(victim):
                net.fail_router(victim)
                net.check_ring()
        pops = sorted(net.topology.pops)
        net.partition_pop(pops[-1])
        net.check_ring()

    def test_services_coexist_with_churn(self, intra_net_factory):
        net = intra_net_factory(n_hosts=40, seed=13)
        anycast = AnycastGroup(net, "resolver")
        mcast = MulticastGroup(net, "feed")
        routers = net.topology.edge_routers()
        for i in range(3):
            anycast.add_server(routers[i])
            mcast.join("m{}".format(i), routers[i + 5])
        rng = random.Random(13)
        for _ in range(10):
            net.fail_host(rng.choice(sorted(
                h for h, vn in net.hosts.items()
                if vn.host_name and vn.host_name.startswith("h"))))
            net.check_ring()
        assert anycast.send(routers[10]).delivered
        assert len(mcast.multicast("m0").receivers) == 3


class TestInterdomainChurn:
    def test_join_fail_interleave(self, inter_net_factory):
        net = inter_net_factory(n_hosts=80, seed=14, n_fingers=4)
        rng = random.Random(14)
        stubs = [s for s in net.asg.stubs()]
        for step in range(6):
            net.join_random_hosts(10)
            candidates = [s for s in stubs
                          if net.as_is_up(s) and len(net.ases[s].hosted) > 0]
            if len(candidates) > 4:
                net.fail_as(rng.choice(candidates))
            net.check_rings()
        for _ in range(40):
            a, b = net.random_host_pair()
            assert net.send(a, b).delivered

    def test_mixed_strategies_coexist(self, inter_net_factory):
        """Hosts with different joining strategies share one Internet and
        can all reach each other through the global ring."""
        net = inter_net_factory(n_hosts=0, seed=15, n_fingers=4)
        strategies = list(JoinStrategy)
        names = []
        for i in range(60):
            host = net.next_planned_host()
            net.join_host(host, strategy=strategies[i % len(strategies)])
            names.append(host.name)
        rng = random.Random(15)
        for _ in range(60):
            a, b = rng.sample(names, 2)
            assert net.send(a, b).delivered


class TestCrossScale:
    def test_intra_results_scale_with_topology(self):
        small = quick_intradomain(n_routers=24, n_hosts=40, seed=5)
        large = quick_intradomain(n_routers=96, n_hosts=40, seed=5)
        small_cost = sum(small.stats.operation_costs("join")) / 40
        large_cost = sum(large.stats.operation_costs("join")) / 40
        # Bigger diameter → proportionally more join messages.
        assert large_cost > small_cost

    def test_deterministic_replay(self):
        a = quick_intradomain(n_routers=30, n_hosts=50, seed=42)
        b = quick_intradomain(n_routers=30, n_hosts=50, seed=42)
        assert a.stats.operation_costs("join") == b.stats.operation_costs("join")
        pa, pb = a.random_host_pair(), b.random_host_pair()
        assert pa == pb
        assert a.send(*pa).path == b.send(*pb).path
