"""Multicast service tests (Section 5.2): path-painting trees, every case
on both ROFL kinds — a node is a router on ``intra`` and an AS on
``inter``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import snapshot
from repro.services.multicast import MulticastGroup

#: Each kind's way to take a node down.
FAIL_NODE = {"intra": "fail_router", "inter": "fail_as"}


@pytest.fixture(params=["intra", "inter"])
def net(request, intra_net_factory, inter_net_factory):
    if request.param == "intra":
        return intra_net_factory(n_hosts=40, seed=5)
    return inter_net_factory(n_hosts=80, seed=41, n_fingers=6)


@pytest.fixture()
def sites(net):
    """Where the kind attaches hosts: edge routers, or host-bearing ASes."""
    if net.kind == "intra":
        return net.topology.edge_routers()
    return [asn for asn in net.asg.ases() if net.asg.hosts(asn) > 0]


def members_at(sites, count, start=0, step=2):
    return sites[start:start + count * step:step]


def join_all(group, nodes):
    for i, node in enumerate(nodes):
        group.join("m{}".format(i), node)


def test_every_member_receives_exactly_once(net, sites):
    group = MulticastGroup(net, "video")
    join_all(group, members_at(sites, 8))
    report = group.multicast("m0")
    assert report.receivers == {"m{}".format(i) for i in range(8)}


def test_delivery_from_any_member(net, sites):
    group = MulticastGroup(net, "video")
    join_all(group, members_at(sites, 6))
    for i in range(6):
        report = group.multicast("m{}".format(i))
        assert len(report.receivers) == 6


def test_tree_is_acyclic_connected(net, sites):
    group = MulticastGroup(net, "tree")
    join_all(group, members_at(sites, 7))
    n_nodes = len(set(group.tree_links) | set(group.local_members))
    # A tree has exactly n-1 edges.
    assert group.tree_edge_count() == n_nodes - 1


def test_messages_equal_tree_edges_reached(net, sites):
    group = MulticastGroup(net, "msgs")
    join_all(group, members_at(sites, 6))
    report = group.multicast("m0")
    assert report.messages == group.tree_edge_count()


def test_cheaper_than_unicast_fanout(net, sites):
    """The reason multicast exists: one copy per tree edge beats one
    unicast per member."""
    group = MulticastGroup(net, "cdn")
    join_all(group, members_at(sites, 8))
    report = group.multicast("m0")
    assert report.messages <= group.unicast_equivalent_cost("m0")


def test_duplicate_member_rejected(net, sites):
    group = MulticastGroup(net, "dup")
    group.join("m0", sites[0])
    with pytest.raises(ValueError):
        group.join("m0", sites[1])


def test_join_cost_charged(net, sites):
    group = MulticastGroup(net, "cost")
    nodes = members_at(sites, 3)
    group.join("m0", nodes[0])
    cost = group.join("m1", nodes[1])
    assert cost > 0
    assert net.stats.total_messages("multicast-join") >= cost


def test_co_located_members(net, sites):
    group = MulticastGroup(net, "colo")
    group.join("m0", sites[0])
    assert group.join("m1", sites[0]) == 0  # same node: no painting needed
    report = group.multicast("m0")
    assert report.receivers == {"m0", "m1"}
    assert report.messages == 0


def test_leave_prunes_leaf_branches(net, sites):
    group = MulticastGroup(net, "prune")
    join_all(group, members_at(sites, 4))
    edges_before = group.tree_edge_count()
    group.leave("m3")
    assert group.tree_edge_count() <= edges_before
    report = group.multicast("m0")
    assert report.receivers == {"m0", "m1", "m2"}


def test_leave_unknown_member(net):
    group = MulticastGroup(net, "x")
    with pytest.raises(KeyError):
        group.leave("ghost")


def test_multicast_from_unknown_member(net):
    group = MulticastGroup(net, "x")
    with pytest.raises(KeyError):
        group.multicast("ghost")


def test_member_at_a_down_node_is_refused_untouched(net, sites):
    """Refused before anything is painted or joined: the state hash holds
    (the intradomain copy used to raise ``JoinError`` mid-join)."""
    getattr(net, FAIL_NODE[net.kind])(sites[2])
    group = MulticastGroup(net, "down")
    before = snapshot.state_hash(net)
    with pytest.raises(ValueError, match="down"):
        group.join("m0", sites[2])
    group.join("m1", sites[0])
    with pytest.raises(ValueError, match="down"):
        group.join("m2", sites[2])
    assert snapshot.state_hash(net) == before
    assert group.members == {"m1": sites[0]}


def test_a_group_that_emptied_takes_new_members(net, sites):
    group = MulticastGroup(net, "again")
    join_all(group, members_at(sites, 3))
    for i in range(3):
        group.leave("m{}".format(i))
    assert group.tree_links == {} and group.local_members == {}
    group.join("n0", sites[7])
    assert group.join("n1", sites[9]) > 0
    assert group.multicast("n0").receivers == {"n0", "n1"}


def test_two_groups_with_one_name_share_a_network(net, sites):
    first, second = MulticastGroup(net, "same"), MulticastGroup(net, "same")
    join_all(first, members_at(sites, 3))
    join_all(second, members_at(sites, 3, start=1))
    assert first.multicast("m0").receivers == {"m0", "m1", "m2"}
    assert second.multicast("m2").receivers == {"m0", "m1", "m2"}
    net.check()


#: Ten members at every third edge router of a 60-router ISP; prints the
#: tree and what painting it cost.
_BUILD_ONE_TREE = """
import json
from repro import build_network
from repro.services.multicast import MulticastGroup
net = build_network("intra", seed=5, hosts=100, n_routers=60,
                    cache_entries=1024)
group = MulticastGroup(net, "feed")
for i, router in enumerate(net.topology.edge_routers()[::3][:10]):
    group.join("m{}".format(i), router)
print(json.dumps({"tree_links": {node: sorted(links) for node, links
                                 in sorted(group.tree_links.items())},
                  "edges": group.tree_edge_count(),
                  "messages": net.stats.total_messages("multicast-join")}))
"""


def test_the_tree_does_not_depend_on_the_hash_seed():
    """Same seed, same tree, whatever ``PYTHONHASHSEED`` orders sets by
    (the intradomain copy picked among equally near on-tree routers in set
    order: 23 or 24 edges over hash seeds 0-7)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    trees = []
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _BUILD_ONE_TREE],
                              env=env, capture_output=True, text=True,
                              check=True)
        trees.append(json.loads(done.stdout))
    assert trees[0]["messages"] > 0
    assert all(tree == trees[0] for tree in trees[1:])
