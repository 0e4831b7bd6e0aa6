"""Interdomain failure handling: stub AS failures (§6.3)."""

import random

import pytest

from repro.inter.network import InterDomainNetwork
from repro.inter.policy import JoinStrategy
from repro.topology.asgraph import synthetic_as_graph


@pytest.fixture()
def net():
    graph = synthetic_as_graph(n_ases=60, seed=30)
    net = InterDomainNetwork(graph, n_fingers=6, seed=30)
    net.join_random_hosts(150)
    return net


def populated_stub(net):
    return next(s for s in net.asg.stubs() if len(net.ases[s].hosted) > 0)


def test_rings_heal_after_stub_failure(net):
    stub = populated_stub(net)
    net.fail_as(stub)
    net.check()


def test_dead_ids_removed_everywhere(net):
    stub = populated_stub(net)
    dead = {vn.id for vn in net.ases[stub].hosted.values()}
    net.fail_as(stub)
    for flat_id in dead:
        assert flat_id not in net.id_owner_index
        for ring in net.rings.values():
            assert flat_id not in ring
    for node in net.ases.values():
        for vn in node.hosted.values():
            for ptr in [*vn.succ_by_level.values(), *vn.fingers]:
                assert ptr.dest_id not in dead
                assert stub not in ptr.as_route


def test_survivors_still_reachable(net):
    stub = populated_stub(net)
    net.fail_as(stub)
    for _ in range(50):
        a, b = net.random_host_pair()
        result = net.send(a, b)
        assert result.delivered
        assert stub not in result.path


def test_repair_cost_scales_with_resident_ids(net):
    """Paper: repair messages "roughly correspond to the number of
    identifiers hosted in the failed stub AS"."""
    stub = populated_stub(net)
    ids = len(net.ases[stub].hosted)
    messages = net.fail_as(stub)
    assert messages > 0
    assert messages <= 60 * ids  # per-ID repair is a handful of exchanges


def test_double_failure_is_idempotent(net):
    stub = populated_stub(net)
    net.fail_as(stub)
    assert net.fail_as(stub) == 0


def test_sequential_failures_keep_converging(net):
    rng = random.Random(0)
    stubs = [s for s in net.asg.stubs() if len(net.ases[s].hosted) > 0]
    rng.shuffle(stubs)
    for stub in stubs[:4]:
        net.fail_as(stub)
        net.check()


def test_restore_allows_rejoining(net):
    stub = populated_stub(net)
    net.fail_as(stub)
    net.restore_as(stub)
    host = net.next_planned_host()
    while host.attach_at != stub:
        host = net.next_planned_host()
    receipt = net.join_host(host)
    assert receipt.home_as == stub
    net.check()
    a = host.name
    b = next(n for n in net.hosts if n != a)
    assert net.send(b, a).delivered


def test_repaired_and_finger_routes_enter_a_single_homed_id_by_its_provider():
    """Section 5.1: a single-homed ID is entered through the provider it
    joined by.  Every pointer route is formed by one rule
    (``canon.pointer_to``), so a finger and a ring repair honour it as a
    join does; here the three failures leave a repaired successor that
    once came in over the other provider, and 44 fingers did."""
    net = InterDomainNetwork(synthetic_as_graph(n_ases=40, seed=2), seed=2,
                             n_fingers=6, strategy=JoinStrategy.SINGLE_HOMED)
    net.join_random_hosts(80)
    for stub in [s for s in net.asg.stubs() if net.ases[s].hosted][:3]:
        net.fail_as(stub)
    net.check()

    def wrong_entries(table):
        wrong = []
        for node in net.ases.values():
            for vn in node.hosted.values():
                for ptr in table(vn):
                    target = net.id_owner_index[ptr.dest_id]
                    providers = set(net.asg.providers(target.home_as))
                    joined_by = providers & set(target.joined_levels)
                    if len(ptr.as_route) > 1 and joined_by \
                            and ptr.as_route[-2] in providers - joined_by:
                        wrong.append((vn.id, ptr))
        return wrong

    assert wrong_entries(lambda vn: vn.succ_by_level.values()) == []
    assert wrong_entries(lambda vn: vn.pred_by_level.values()) == []
    assert wrong_entries(lambda vn: vn.fingers) == []
