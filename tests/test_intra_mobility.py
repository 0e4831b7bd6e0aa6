"""Mobility and graceful departure (the architecture's headline feature)."""

import random

import pytest


class TestGracefulLeave:
    def test_ring_heals_after_leave(self, intra_net_factory):
        net = intra_net_factory(n_hosts=50, seed=20)
        rng = random.Random(0)
        for _ in range(20):
            net.leave_host(rng.choice(sorted(net.hosts)))
            net.check()

    def test_leave_cheaper_than_failure(self, intra_net_factory):
        net_a = intra_net_factory(n_hosts=120, seed=21)
        net_b = intra_net_factory(n_hosts=120, seed=21)
        rng_a, rng_b = random.Random(1), random.Random(1)
        leaves = [net_a.leave_host(rng_a.choice(sorted(net_a.hosts)))
                  for _ in range(40)]
        fails = [net_b.fail_host(rng_b.choice(sorted(net_b.hosts)))
                 for _ in range(40)]
        assert sum(leaves) < sum(fails)

    def test_left_host_unreachable(self, intra_net_factory):
        net = intra_net_factory(n_hosts=30, seed=22)
        victim = sorted(net.hosts)[3]
        dead_id = net.hosts[victim].id
        net.leave_host(victim)
        result = net.send_to_id(net.topology.routers[0], dead_id)
        assert not result.delivered
        net.check()

    def test_leave_unknown_host(self, intra_net_factory):
        net = intra_net_factory(n_hosts=5)
        with pytest.raises(KeyError):
            net.leave_host("ghost")

    def test_ephemeral_leave(self, intra_net_factory):
        net = intra_net_factory(n_hosts=40, seed=9, ephemeral_fraction=0.3)
        eph = next(n for n, vn in net.hosts.items() if vn.ephemeral)
        cost = net.leave_host(eph)
        assert cost >= 0
        net.check()


class TestMove:
    def test_identity_survives_move(self, intra_net_factory):
        net = intra_net_factory(n_hosts=60, seed=23)
        mover = sorted(net.hosts)[5]
        old_id = net.hosts[mover].id
        old_router = net.hosts[mover].router
        target = next(r for r in net.topology.edge_routers()
                      if r != old_router)
        receipt = net.move_host(mover, target)
        assert receipt.flat_id == old_id
        assert net.hosts[mover].id == old_id
        assert net.hosts[mover].router == target
        net.check()

    def test_correspondent_still_reaches_mover(self, intra_net_factory):
        net = intra_net_factory(n_hosts=60, seed=24)
        mover, peer = sorted(net.hosts)[0], sorted(net.hosts)[1]
        for target in net.topology.edge_routers()[::11][:3]:
            if target == net.hosts[mover].router:
                continue
            net.move_host(mover, target)
            result = net.send(peer, mover)
            assert result.delivered
            assert result.path[-1] == target

    def test_move_cost_comparable_to_join(self, intra_net_factory):
        """§6.2: mobility overhead comparable to join overhead."""
        net = intra_net_factory(n_hosts=150, seed=25)
        join_avg = sum(net.stats.operation_costs("join")) / 150
        rng = random.Random(2)
        totals = []
        for _ in range(25):
            mover = rng.choice(sorted(net.hosts))
            target = rng.choice(net.topology.edge_routers())
            if target == net.hosts[mover].router:
                continue
            receipt = net.move_host(mover, target)
            totals.append(receipt.leave_messages + receipt.rejoin_messages)
        assert totals
        assert sum(totals) / len(totals) < 4 * join_avg

    def test_move_to_down_router_rejected(self, intra_net_factory):
        net = intra_net_factory(n_hosts=20, seed=26)
        victim_router = net.topology.routers[0]
        net.lsmap.fail_router(victim_router)
        mover = next(n for n, vn in net.hosts.items()
                     if vn.router != victim_router)
        with pytest.raises(ValueError):
            net.move_host(mover, victim_router)
