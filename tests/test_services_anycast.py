"""Anycast service tests (Section 5.2), every case on both ROFL kinds: a
node is a router on ``intra`` and an AS on ``inter``."""

import pytest

from repro import snapshot
from repro.idspace.groups import DEFAULT_GROUP_BITS
from repro.network import Unsupported
from repro.services.anycast import AnycastGroup

#: Each kind's way to take a node down.
FAIL_NODE = {"intra": "fail_router", "inter": "fail_as"}


@pytest.fixture(params=["intra", "inter"])
def net(request, intra_net_factory, inter_net_factory):
    if request.param == "intra":
        return intra_net_factory(n_hosts=60, seed=4)
    return inter_net_factory(n_hosts=100, seed=34, n_fingers=6)


@pytest.fixture()
def sites(net):
    """Where the kind attaches hosts: edge routers, or host-bearing ASes."""
    if net.kind == "intra":
        return net.topology.edge_routers()
    return [asn for asn in net.asg.ases() if net.asg.hosts(asn) > 0]


def test_servers_join_with_group_prefix(net, sites):
    group = AnycastGroup(net, "dns")
    ids = [group.add_member(sites[i]) for i in range(3)]
    prefixes = {fid.prefix_bits(DEFAULT_GROUP_BITS) for fid in ids}
    assert len(prefixes) == 1
    net.check()


def test_anycast_reaches_some_member(net, sites):
    group = AnycastGroup(net, "dns")
    for i in range(4):
        group.add_member(sites[i])
    result = group.send(sites[10])
    assert result.delivered
    # Delivered at a member's node.
    assert result.path[-1] in group.member_nodes()


def test_anycast_to_empty_group_fails(net, sites):
    group = AnycastGroup(net, "empty")
    assert not group.send(sites[0]).delivered


def test_suffix_steering_changes_target(net, sites):
    group = AnycastGroup(net, "steer")
    group.add_member(sites[0], suffix=0)
    group.add_member(sites[5], suffix=7)
    r0 = group.send(sites[10], suffix=0)
    r7 = group.send(sites[10], suffix=7)
    assert r0.delivered and r7.delivered
    # Each send lands at *a* member node ("the first server in G for
    # which the packet encounters a route" — possibly not the aimed one).
    assert r0.path[-1] in group.member_nodes()
    assert r7.path[-1] in group.member_nodes()
    # Steering directly from the target's own node is exact.
    exact = group.send(sites[5], suffix=7)
    assert exact.delivered and exact.hops == 0


def test_duplicate_suffix_rejected(net, sites):
    group = AnycastGroup(net, "dup")
    group.add_member(sites[0], suffix=1)
    with pytest.raises(ValueError):
        group.add_member(sites[1], suffix=1)


def test_remove_member(net, sites):
    """A member leaves by failing its host out of the ring, which the
    interdomain kind does not implement yet (ROADMAP item 2)."""
    group = AnycastGroup(net, "rm")
    group.add_member(sites[0], suffix=0)
    group.add_member(sites[3], suffix=1)
    if net.kind == "inter":
        with pytest.raises(Unsupported, match="fail_host"):
            group.remove_member(0)
        assert 0 in group.members
        return
    group.remove_member(0)
    net.check()
    assert 0 not in group.members
    result = group.send(sites[10], suffix=0)
    assert result.delivered  # falls through to the surviving member
    with pytest.raises(KeyError):
        group.remove_member(0)


def test_anycast_cost_vs_nearest_member(net, sites):
    """The early-exit means anycast cost is bounded by routing to the
    group arc — and never absurdly worse than the nearest member."""
    group = AnycastGroup(net, "near")
    for i in range(0, 12, 3):
        group.add_member(sites[i])
    src = sites[20]
    result = group.send(src)
    nearest = group.nearest_member_distance(src)
    assert result.delivered and nearest is not None
    assert result.hops <= max(6 * nearest, 12)


def test_anycast_needs_no_extra_state(net, sites):
    """"This approach to anycast requires no additional state or control
    message overhead beyond that of joining the network": adding a server
    is exactly one ring join."""
    group = AnycastGroup(net, "cost")
    before = len(net.stats.operations)
    group.add_member(sites[0])
    joins = [op for op in net.stats.operations[before:] if op["kind"] == "join"]
    assert len(joins) == 1


def test_member_nodes_tracked(net, sites):
    group = AnycastGroup(net, "track")
    group.add_member(sites[0])
    group.add_member(sites[1])
    assert group.member_nodes() == [sites[0], sites[1]]


def test_member_at_a_down_node_is_refused_untouched(net, sites):
    """Refused before the network is touched: the state hash holds (the
    intradomain copy used to raise ``JoinError`` mid-join)."""
    getattr(net, FAIL_NODE[net.kind])(sites[2])
    group = AnycastGroup(net, "down")
    before = snapshot.state_hash(net)
    with pytest.raises(ValueError, match="down"):
        group.add_member(sites[2])
    assert snapshot.state_hash(net) == before
    assert group.members == {}
