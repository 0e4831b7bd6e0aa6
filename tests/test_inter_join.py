"""Interdomain joining (Algorithm 3): strategies, condition (b), oracle
agreement, bootstrap."""

import pytest

from repro.inter import routing
from repro.inter.canon import InterJoinError
from repro.inter.network import InterDomainNetwork
from repro.inter.policy import JoinStrategy
from repro.topology.asgraph import synthetic_as_graph
from repro.topology.hosts import PlannedHost
from repro.util import perf


class TestJoinBasics:
    def test_rings_consistent_under_every_strategy(self, inter_net_factory):
        for strategy in JoinStrategy:
            net = inter_net_factory(n_hosts=0, strategy=strategy, n_fingers=4)
            net.join_random_hosts(80)
            net.check()
            assert net.lookup_mismatches == 0

    def test_distributed_lookups_agree_with_oracle(self, inter_net_readonly):
        assert inter_net_readonly.lookup_mismatches == 0

    def test_receipt_fields(self, inter_net_factory):
        net = inter_net_factory(n_hosts=0, n_fingers=6)
        host = net.next_planned_host()
        receipt = net.join_host(host)
        assert receipt.flat_id == host.flat_id
        assert receipt.home_as == host.attach_at
        assert receipt.messages > 0
        assert receipt.levels_joined >= 2
        assert receipt.fingers <= 6

    def test_duplicate_id_rejected(self, inter_net_factory):
        net = inter_net_factory(n_hosts=0)
        host = net.next_planned_host()
        net.join_host(host)
        with pytest.raises(InterJoinError):
            net.join_host(PlannedHost(name="dup", attach_at=host.attach_at,
                                      key_pair=host.key_pair))

    def test_join_via_failed_as_rejected(self, inter_net_factory):
        net = inter_net_factory(n_hosts=10)
        host = net.next_planned_host()
        net.fail_as(host.attach_at)
        with pytest.raises(InterJoinError):
            net.join_host(host)


class TestStrategyCosts:
    def test_paper_ordering_of_join_costs(self):
        """Fig 8a: ephemeral < single-homed ≤ multihomed < peering."""
        means = {}
        for strategy in JoinStrategy:
            graph = synthetic_as_graph(n_ases=60, seed=12)
            net = InterDomainNetwork(graph, n_fingers=4, seed=12,
                                     strategy=strategy)
            receipts = net.join_random_hosts(100)
            means[strategy] = sum(r.messages for r in receipts) / 100
        assert means[JoinStrategy.EPHEMERAL] < means[JoinStrategy.SINGLE_HOMED]
        assert means[JoinStrategy.SINGLE_HOMED] <= \
            means[JoinStrategy.MULTIHOMED] * 1.05
        assert means[JoinStrategy.MULTIHOMED] < means[JoinStrategy.PEERING]

    def test_multihomed_not_much_more_than_single(self):
        """"Surprisingly … the cost of a multi-homed join is not
        significantly larger than that of a single-homed join" thanks to
        redundant-lookup elimination."""
        graph = synthetic_as_graph(n_ases=60, seed=13)
        single = InterDomainNetwork(graph, n_fingers=0, seed=13,
                                    strategy=JoinStrategy.SINGLE_HOMED)
        single.join_random_hosts(100)
        graph2 = synthetic_as_graph(n_ases=60, seed=13)
        multi = InterDomainNetwork(graph2, n_fingers=0, seed=13,
                                   strategy=JoinStrategy.MULTIHOMED)
        multi.join_random_hosts(100)
        s = sum(single.stats.operation_costs("join")) / 100
        m = sum(multi.stats.operation_costs("join")) / 100
        assert m < 1.6 * s

    def test_more_fingers_cost_more_messages(self, inter_net_factory):
        lean = inter_net_factory(n_hosts=60, n_fingers=2, seed=3)
        rich = inter_net_factory(n_hosts=60, n_fingers=24, seed=3)
        lean_cost = sum(lean.stats.operation_costs("join")) / 60
        rich_cost = sum(rich.stats.operation_costs("join")) / 60
        assert rich_cost > lean_cost


class TestConditionB:
    def test_state_is_logarithmic_not_linear(self, inter_net_readonly):
        """Condition (b) keeps per-ID pointer state O(log n): far fewer
        stored successors than joined levels in the typical case."""
        net = inter_net_readonly
        total_levels = 0
        total_stored = 0
        for vn in net.hosts.values():
            total_levels += len(vn.joined_levels)
            total_stored += len(vn.succ_by_level)
        assert total_stored < total_levels

    def test_effective_successor_covers_unstored_levels(self, inter_net_readonly):
        net = inter_net_readonly
        for vn in list(net.hosts.values())[:40]:
            for level in vn.joined_levels:
                eff = routing.effective_successor(net, vn, level)
                ring = net.ring_at(level)
                if len(ring) < 2:
                    continue
                assert eff is not None
                assert eff.dest_id == ring.successor(vn.id)


class TestBootstrapRegistry:
    def test_first_host_in_empty_internet(self, inter_net_factory):
        net = inter_net_factory(n_hosts=0)
        receipt = net.join_host(net.next_planned_host())
        assert receipt.messages >= 0
        net.check()

    def test_second_host_reaches_first(self, inter_net_factory):
        net = inter_net_factory(n_hosts=0)
        h1 = net.next_planned_host()
        h2 = net.next_planned_host()
        net.join_host(h1)
        net.join_host(h2)
        net.check()
        assert net.send(h1.name, h2.name).delivered
        assert net.send(h2.name, h1.name).delivered


class TestPointerRoutes:
    def test_pointer_routes_are_valley_free(self, inter_net_readonly):
        net = inter_net_readonly
        for vn in list(net.hosts.values())[:50]:
            for ptr in [*vn.succ_by_level.values(), *vn.fingers]:
                assert net.policy.route_is_valley_free(ptr.as_route)
                assert ptr.as_route[0] == vn.home_as

    def test_scoped_pointers_stay_in_level_subtree(self, inter_net_readonly):
        net = inter_net_readonly
        for vn in list(net.hosts.values())[:50]:
            for level, ptr in vn.succ_by_level.items():
                subtree = net.policy.subtree(level)
                assert all(asn in subtree for asn in ptr.as_route)


class TestJoinIndexMarks:
    def test_join_marks_only_owners_that_stored_a_successor(
            self, inter_net_factory):
        """Candidate pointers are successors and fingers.  A join level
        that only wrote a predecessor (the successor's side of the
        exchange) or was deduped by condition (b) (the joiner's side)
        must not send an owner back through the AS index re-diff."""
        from repro.util import perf

        net = inter_net_factory(n_hosts=40, n_fingers=0)
        deduped_levels = 0
        for _ in range(40):
            net.flush_indexes()
            marks0 = perf.value("asnode.index.marks")
            owners0 = perf.value("asnode.index.refresh.owners")
            vn = net.hosts[net.join_random_hosts(1)[0].host_name]
            net.flush_indexes()
            repointed = sum(ptr.dest_id == vn.id
                            for other in net.hosts.values()
                            for ptr in other.succ_by_level.values())
            # One mark for hosting the new ID, one per successor it
            # stored, one per predecessor re-pointed at it.
            stored = 1 + len(vn.succ_by_level) + repointed
            assert perf.value("asnode.index.marks") - marks0 == stored
            assert perf.value("asnode.index.refresh.owners") - owners0 \
                <= stored
            deduped_levels += len(vn.joined_levels) - len(vn.succ_by_level)
        assert deduped_levels > 40  # the case under test did occur


class TestJoinHotPathGuards:
    """Counts, not timings: what a join may redo, on the graph and the
    parameters of the ``inter_5k`` benchmark workload."""

    def test_500_joins_build_one_tree_per_source_and_rediff_few_slots(
            self, monkeypatch):
        net = InterDomainNetwork(synthetic_as_graph(n_ases=100, seed=0),
                                 n_fingers=8, seed=3, cache_entries=0,
                                 strategy=JoinStrategy.MULTIHOMED)
        asked = set()
        policy_path = net.policy.policy_path

        def recording(src, dst, scope=None):
            asked.add((src, scope))
            return policy_path(src, dst, scope)

        monkeypatch.setattr(net.policy, "policy_path", recording)
        before = {name: perf.value(name) for name in (
            "inter.policy.bfs_trees", "asnode.index.refresh.owners",
            "asnode.index.refresh.slots")}
        net.join_random_hosts(500)
        net.flush_indexes()
        spent = {name: perf.value(name) - start
                 for name, start in before.items()}
        # The valley-free BFS runs once per (source, scope), however many
        # destinations are asked for (17 030 searches for 429 pairs over
        # 5 000 joins before the trees).
        assert 0 < spent["inter.policy.bfs_trees"] <= len(asked)
        # A join changes a pointer or two of the VNs it touches; the
        # re-diff must not re-insert the ~13 keys each of them holds.
        # Measured 2.93-3.04 slots per re-diff over seeds 0-3 and 7 here
        # (2.8 over 5 000 joins): of ~20 slots a join touches, 8 are the
        # joiner's new fingers and ~6 are a predecessor's fingers moving
        # down one position when it gains a successor level.
        assert spent["asnode.index.refresh.owners"] > 500
        assert spent["asnode.index.refresh.slots"] \
            <= 3.5 * spent["asnode.index.refresh.owners"]
