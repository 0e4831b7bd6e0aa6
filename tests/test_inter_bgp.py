"""Gao-Rexford BGP baseline tests."""

import pickle

import pytest

from repro.inter.bgp import BgpBaseline
from repro.inter.network import InterDomainNetwork
from repro.topology.asgraph import ASGraph, synthetic_as_graph


@pytest.fixture()
def small_internet():
    asg = ASGraph()
    for name, tier in (("T1a", 1), ("T1b", 1), ("T2a", 2), ("T2b", 2),
                       ("S1", 3), ("S2", 3)):
        asg.add_as(name, tier=tier)
    asg.add_peering("T1a", "T1b")
    asg.add_customer_provider("T2a", "T1a")
    asg.add_customer_provider("T2b", "T1b")
    asg.add_customer_provider("S1", "T2a")
    asg.add_customer_provider("S2", "T2b")
    return asg


def test_customer_route_preferred(small_internet):
    bgp = BgpBaseline(small_internet)
    # T1a reaches S1 through its customer cone: 2 hops, preference 0.
    assert bgp.routes_to("S1")["T1a"] == (0, 2)


def test_peer_route_when_no_customer_route(small_internet):
    bgp = BgpBaseline(small_internet)
    pref, hops = bgp.routes_to("S2")["T1a"]
    assert pref == 1          # learned across the T1a–T1b peering
    assert hops == 3


def test_provider_route_at_the_edge(small_internet):
    bgp = BgpBaseline(small_internet)
    pref, hops = bgp.routes_to("S2")["S1"]
    assert pref == 2
    assert hops == 5  # S1 T2a T1a T1b T2b S2


def test_policy_distance_and_symmetric_shape(small_internet):
    bgp = BgpBaseline(small_internet)
    assert bgp.policy_distance("S1", "S2") == 5
    assert bgp.policy_distance("S2", "S1") == 5
    assert bgp.policy_distance("S1", "S1") == 0


def test_valley_is_never_used(small_internet):
    # S1 → S2 must not shortcut through another stub.
    bgp = BgpBaseline(small_internet)
    assert bgp.policy_distance("T2a", "T2b") == 3  # via the T1 peering


def test_policy_stretch_at_least_one(small_internet):
    bgp = BgpBaseline(small_internet)
    stretch = bgp.policy_stretch("S1", "S2")
    assert stretch >= 1.0


def test_unreachable_returns_none():
    asg = ASGraph()
    asg.add_as("A", tier=1)
    asg.add_as("B", tier=1)
    asg.add_as("C", tier=3)
    asg.add_peering("A", "B")
    asg.add_customer_provider("C", "A")
    bgp = BgpBaseline(asg)
    # B can reach C (peer then down); C reaches B via provider.
    assert bgp.policy_distance("B", "C") == 2
    assert bgp.policy_distance("C", "B") == 2


def test_backup_links_excluded_by_default():
    asg = ASGraph()
    asg.add_as("P", tier=1)
    asg.add_as("Q", tier=1)
    asg.add_as("C", tier=3)
    asg.add_peering("P", "Q")
    asg.add_customer_provider("C", "P", backup=True)
    bgp = BgpBaseline(asg)
    assert bgp.policy_distance("Q", "C") is None
    assert bgp.policy_distance("C", "Q") is None


def test_synthetic_graph_all_pairs_policy_reachable():
    asg = synthetic_as_graph(n_ases=40, seed=3)
    bgp = BgpBaseline(asg)
    ases = asg.ases()
    for src in ases[::4]:
        for dst in ases[::5]:
            assert bgp.policy_distance(src, dst) is not None


def test_policy_never_shorter_than_shortest():
    asg = synthetic_as_graph(n_ases=50, seed=4)
    bgp = BgpBaseline(asg)
    ases = asg.ases()
    for src in ases[::5]:
        for dst in ases[::7]:
            if src == dst:
                continue
            policy = bgp.policy_distance(src, dst)
            shortest = bgp.shortest_distance(src, dst)
            if policy is not None and shortest is not None:
                assert policy >= shortest


def test_invalidate_clears_memo():
    """The memo is dropped in one place only, a snapshot: the saved state
    carries no tables (``warm()`` rebuilds them on load), the warmed
    original keeps its own, and the loaded copy answers alike."""
    asg = synthetic_as_graph(n_ases=30, seed=5)
    bgp = BgpBaseline(asg)
    assert bgp.warm() == 30
    state = bgp.__getstate__()
    assert state["_tables"] == {} and state["_topo_order"] is None
    assert len(bgp._tables) == 30
    loaded = pickle.loads(pickle.dumps(bgp))
    assert not loaded._tables
    ases = asg.ases()
    assert all(loaded.policy_distance(a, b) == bgp.policy_distance(a, b)
               for a in ases for b in ases)


def test_fail_as_keeps_the_warmed_tables():
    """The tables read only the static AS graph: one stub failure used to
    drop all 20 warmed tables, which the next sends rebuilt unchanged."""
    net = InterDomainNetwork(synthetic_as_graph(n_ases=20, seed=5), seed=5)
    net.join_random_hosts(40)
    assert net.bgp.warm() == 20
    stub = next(s for s in sorted(net.asg.stubs(), key=str)
                if net.ases[s].hosted)
    net.fail_as(stub)
    assert len(net.bgp._tables) == 20
    net.restore_as(stub)
    assert len(net.bgp._tables) == 20
    fresh = BgpBaseline(net.asg)
    ases = net.asg.ases()
    assert all(net.bgp.policy_distance(a, b) == fresh.policy_distance(a, b)
               for a in ases for b in ases)
