"""Partition detection and zero-ID ring merging (Section 3.2, Fig 7)."""

import json
import random
from pathlib import Path

import pytest

from repro.intra.partition import pop_boundary_links
from repro.network import RingInconsistency
from repro.workload.driver import run_scenario
from repro.workload.scenario import Scenario

CRASH_THEN_PARTITION = (Path(__file__).resolve().parent.parent / "examples"
                        / "scenarios" / "crash-then-partition.json")


class TestBoundary:
    def test_boundary_links_have_one_foot_in_pop(self, intra_net_factory):
        net = intra_net_factory(n_hosts=0)
        members = set(net.topology.routers_in_pop(0))
        for a, b in pop_boundary_links(net, 0):
            assert (a in members) != (b in members)

    def test_unknown_pop_raises(self, intra_net_factory):
        net = intra_net_factory(n_hosts=0)
        with pytest.raises(KeyError):
            pop_boundary_links(net, "no-such-pop")


class TestPartitionCycle:
    def test_single_cycle_converges(self, intra_net_factory):
        net = intra_net_factory(n_hosts=60, seed=3)
        report = net.partition_pop(0)  # includes the consistency check
        assert report.disconnect_messages >= 0
        assert report.reconnect_messages > 0
        assert report.cut_links

    def test_every_pop_converges(self, intra_net_factory):
        """The paper: "our approach converged correctly in every case"."""
        net = intra_net_factory(n_hosts=80, seed=4)
        for pop in sorted(net.topology.pops):
            net.partition_pop(pop)
            net.check()

    def test_delivery_restored_after_cycle(self, intra_net_factory):
        net = intra_net_factory(n_hosts=60, seed=5)
        net.partition_pop(1)
        for _ in range(40):
            a, b = net.random_host_pair()
            assert net.send(a, b).delivered

    def test_rings_heal_separately_while_disconnected(self, intra_net_factory):
        from repro.intra import partition as P
        net = intra_net_factory(n_hosts=60, seed=6)
        cut = P.pop_boundary_links(net, 0)
        for a, b in cut:
            net.lsmap.fail_link(a, b)
        P.heal_components(net)
        # Each component's members form a consistent ring.
        net.check()
        assert len(net.lsmap.components()) >= 2
        for a, b in cut:
            net.lsmap.restore_link(a, b)
        P.merge_rings(net, set(net.topology.routers_in_pop(0)))
        net.check()

    def test_healing_asks_the_component_not_a_path_search(
            self, intra_net_factory, monkeypatch):
        """A member keeps exactly the successors and parked ephemeral
        children hosted inside its own component; "inside" is a set test
        (the member's router is in the component), never a BFS per
        pointer."""
        from repro.intra import partition as P
        from repro.linkstate.lsdb import LinkStateMap
        net = intra_net_factory(n_hosts=150, seed=6, ephemeral_fraction=0.4)

        def parked():
            return sum(len(vn.ephemeral_children) for vn in net.ring_members())

        before = parked()
        for a, b in P.pop_boundary_links(net, 0):
            net.lsmap.fail_link(a, b)
        monkeypatch.setattr(LinkStateMap, "reachable", None)    # not callable
        P.heal_components(net)
        monkeypatch.undo()
        assert 0 < parked() < before        # some stranded, some kept
        for vn in net.ring_members():
            for ptr in list(vn.successors) + list(
                    vn.ephemeral_children.values()):
                assert net.lsmap.reachable(vn.router, ptr.hosting_router)
        net.check()

    def test_repair_cost_tracks_pop_population(self, intra_net_factory):
        """Fig 7's shape: overhead grows with the IDs in the PoP and is
        on the order of rejoining them."""
        net_small = intra_net_factory(n_hosts=20, seed=7)
        net_big = intra_net_factory(n_hosts=160, seed=7)
        rep_small = net_small.partition_pop(0)
        rep_big = net_big.partition_pop(0)
        assert rep_big.ids_in_pop > rep_small.ids_in_pop
        assert rep_big.total_messages > rep_small.total_messages
        join_costs = net_big.stats.operation_costs("join")
        avg_join = sum(join_costs) / len(join_costs)
        rejoin_baseline = max(1.0, rep_big.ids_in_pop * avg_join)
        assert rep_big.total_messages < 20 * rejoin_baseline

    def test_repeated_cycles_on_same_pop(self, intra_net_factory):
        net = intra_net_factory(n_hosts=50, seed=8)
        for _ in range(3):
            net.partition_pop(2)
            net.check()

    def test_churn_between_cycles(self, intra_net_factory):
        net = intra_net_factory(n_hosts=50, seed=9)
        rng = random.Random(0)
        for pop in (0, 1):
            net.partition_pop(pop)
            net.join_random_hosts(10)
            net.fail_host(rng.choice(sorted(net.hosts)))
            net.check()


@pytest.mark.parametrize("seed", [3, 14])
def test_a_cycle_on_an_isp_a_crash_already_split_converges(seed):
    """``crash-then-partition.json``: at these seeds a router crash at
    t = 5 leaves routers cut off (components of 7, 8 and 23 routers at
    seed 3; 3 and 35 at seed 14), and the PoP cycle at t = 10 once merged
    against one zero ID and reconciled one global ring, so its closing
    ``check`` raised ``RingInconsistency``.  Per component, the run
    ends clean."""
    spec = json.loads(CRASH_THEN_PARTITION.read_text())
    result = run_scenario(Scenario.from_dict(dict(spec, seed=seed)),
                          probes=True)
    assert result.violations == []
    assert [fault["kind"] for fault in result.fault_log] \
        == ["router_crash", "pop_partition"]


def test_both_rofl_kinds_raise_the_one_ring_inconsistency(
        intra_net_factory, inter_net_factory):
    """``check()`` is each kind's one consistency check, and a broken
    ring raises ``repro.network.RingInconsistency`` (an ``AssertionError``)
    from either, each with its own message."""
    intra = intra_net_factory(n_hosts=30)
    intra.check()
    vn = min(intra.ring_members(), key=lambda vn: vn.id)
    vn.successors = []
    with pytest.raises(RingInconsistency, match="has no successor"):
        intra.check()

    inter = inter_net_factory(n_hosts=30)
    inter.check()
    ring = inter.rings[next(iter(inter.rings))]
    ring.payloads()[ring.key_values()[0]].succ_by_level.clear()
    with pytest.raises(RingInconsistency, match="effective successor None"):
        inter.check()
    assert issubclass(RingInconsistency, AssertionError)
