"""Proximity finger tables (Section 4.1)."""

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import snapshot
from repro.idspace.identifier import FlatId
from repro.inter import fingers
from repro.inter.network import InterDomainNetwork
from repro.inter.policy import JoinStrategy
from repro.topology.asgraph import synthetic_as_graph

from tests import fingers_reference
from tests.conftest import profile_examples
from tests.fingers_reference import lowest_containing_level, slot_arc


class TestSlotArcs:
    def test_arc_shares_prefix_and_digit(self):
        fid = FlatId(0xABCD << 112)
        low, high = slot_arc(fid, row=1, digit=0x3)
        assert low.digit(0, 4) == 0xA
        assert low.digit(1, 4) == 0x3
        assert high.value - low.value == (1 << 120) - 1

    def test_row_zero_partitions_space(self):
        fid = FlatId(0)
        covered = 0
        for digit in range(16):
            low, high = slot_arc(fid, 0, digit)
            covered += high.value - low.value + 1
        assert covered == 1 << 128

    def test_out_of_range_row(self):
        with pytest.raises(ValueError):
            slot_arc(FlatId(0), row=32, digit=0)


class TestFingerAcquisition:
    @pytest.fixture()
    def net(self, inter_net_factory):
        return inter_net_factory(n_hosts=120, n_fingers=12, seed=8)

    def test_fingers_acquired_up_to_budget(self, net):
        for vn in net.hosts.values():
            assert len(vn.fingers) <= 12

    def test_fingers_spread_over_digits(self, net):
        vn = max(net.hosts.values(), key=lambda v: len(v.fingers))
        digits = {f.dest_id.digit(0, 4) for f in vn.fingers}
        assert len(digits) >= min(6, len(vn.fingers))

    def test_finger_targets_exist(self, net):
        for vn in net.hosts.values():
            for f in vn.fingers:
                assert f.dest_id in net.id_owner_index
                assert net.id_owner_index[f.dest_id].home_as == f.dest_as

    def test_finger_level_preserves_isolation(self, net):
        """Each finger is formed at the lowest joined level containing its
        target — the table maintenance rule that preserves isolation."""
        for vn in list(net.hosts.values())[:30]:
            for f in vn.fingers:
                if f.level is None:
                    continue
                assert net.policy.level_contains(f.level, f.dest_as)
                expected = lowest_containing_level(net, vn, f.dest_as)
                assert len(net.policy.subtree(f.level)) == \
                    len(net.policy.subtree(expected))

    def test_ephemeral_strategy_skips_fingers(self, inter_net_factory):
        net = inter_net_factory(n_hosts=40, n_fingers=12, seed=9,
                                strategy=JoinStrategy.EPHEMERAL)
        assert all(len(vn.fingers) == 0 for vn in net.hosts.values())


class TestProximity:
    def test_up_links_metric(self, inter_net_readonly):
        net = inter_net_readonly
        stub = net.asg.stubs()[0]
        provider = net.asg.providers(stub)[0]
        ups, hops = net.policy.path_profile(stub, provider)
        assert (ups, hops) == (1, 1)
        assert net.policy.path_profile(stub, stub) == (0, 0)

    def test_proximity_choice_beats_random_on_stretch(self):
        """Ablation: proximity-selected fingers give lower mean stretch
        than no fingers at all, and fingers with more slots do better."""
        def stretch_for(n_fingers, seed=22):
            graph = synthetic_as_graph(n_ases=60, seed=seed)
            net = InterDomainNetwork(graph, n_fingers=n_fingers, seed=seed)
            net.join_random_hosts(100)
            vals = []
            for _ in range(120):
                a, b = net.random_host_pair()
                r = net.send(a, b)
                if r.delivered and r.optimal_hops > 0:
                    vals.append(r.stretch)
            return sum(vals) / len(vals)
        none = stretch_for(0)
        many = stretch_for(20)
        assert many < none


class TestFingerTablesPinned:
    """Selection samples index ranges of the global ring's sorted column
    instead of copied key slices.  The draws are the same, so the tables
    are: 300 hosts on the 60-AS graph, captured at the commit before the
    change (PR 15) as the SHA-256 of ``repr`` of every table, the last
    host's spelled out so a mismatch has something to read."""

    DIGEST = "766c5a599bed24d696d963f74aa669b82a4985f84b645665f827fc64a41d2a2e"
    H299 = [
        ("0181d67a99979dc2fabd4d53fbdb6537", "S-23", ("S-39", "T2-0", "S-23"), "T2-0"),
        ("17628a4b0e4d79dbb7c6c64151f852b0", "T2-8", ("S-39", "T2-0", "T1-0", "T2-8"), "T1-0"),
        ("297f81c06c0d0360933710e3e93bb128", "S-20", ("S-39", "T2-0", "S-20"), "T2-0"),
        ("347e349536c460cccfd42ca7a5b7aeaa", "S-26", ("S-39", "T2-0", "S-26"), "T2-0"),
        ("4cbd887b621c776de0ead54bed5a4fc0", "S-26", ("S-39", "T2-0", "S-26"), "T2-0"),
        ("50eb00d93009203e98372326beb9f66c", "S-11", ("S-39", "T2-0", "S-11"), "T2-0"),
        ("6406986c51bbffd23e44ccdc6f536846", "S-39", ("S-39",), "S-39"),
        ("77c0973f5c2b2069566da4ceaef916be", "S-20", ("S-39", "T2-0", "S-20"), "T2-0"),
        ("8b9481586d8694f235e55ceeb436447a", "S-20", ("S-39", "T2-0", "S-20"), "T2-0"),
        ("9d6a8e85577b80b4df21f4c129c07047", "S-2", ("S-39", "T2-0", "S-2"), "T2-0"),
        ("a27d3503b7adbcb634a34bb1d5a361dc", "S-39", ("S-39",), "S-39"),
        ("be874ecfeec0a8c8b9bb6f2a0ed6d4a5", "S-20", ("S-39", "T2-0", "S-20"), "T2-0"),
        ("c2a44fa4614393032c9a05f2a4f8a5b0", "T2-0", ("S-39", "T2-0"), "T2-0"),
        ("e7e47ee51383550b5fe14fa2f7d53b97", "S-28", ("S-39", "T2-0", "T1-0", "T2-2", "S-28"), "T1-0"),
        ("f0133e26514377da7cdb5f1804b44131", "S-20", ("S-39", "T2-0", "S-20"), "T2-0"),
        ("d1d69f34e440f9b852cd62fa96df20f5", "S-20", ("S-39", "T2-0", "S-20"), "T2-0"),
    ]

    def test_tables_equal_the_ones_captured_before_index_sampling(self):
        net = InterDomainNetwork(synthetic_as_graph(n_ases=60, seed=0), seed=7)
        net.join_random_hosts(300)
        tables = [(name, [(f.dest_id.to_hex(), f.dest_as, f.as_route,
                           str(f.level)) for f in net.hosts[name].fingers])
                  for name in net.hosts.names]
        assert tables[-1] == ("h299", self.H299)
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == self.DIGEST


def _finger_facts(net):
    """Per host, in join order, each finger's target, level and route, and
    whether that route is the policy memo's own tuple for it."""
    facts = []
    for name in net.hosts.names:
        vn = net.hosts[name]
        facts.append((name, [(f.dest_id, f.level, f.as_route, f.as_route is (
            net.policy.level_route(vn.home_as, f.dest_as, f.level)
            if f.level is not None else None)) for f in vn.fingers]))
    return facts


def _twins(build):
    """``build()`` once with the reference's finger selection and once with
    the module's; both must give the same fingers, charges and state."""
    with fingers_reference.installed():
        ref = build()
    new = build()
    assert snapshot.state_hash(new) == snapshot.state_hash(ref)
    assert new.stats.operation_costs("join") == \
        ref.stats.operation_costs("join")
    assert _finger_facts(new) == _finger_facts(ref)
    return new


class TestReferenceTwin:
    """``acquire_fingers`` against the selection it replaced
    (``tests/fingers_reference.py``, verbatim): join by join the same
    fingers — target, level, route object — the same messages charged,
    and the same state hash.  Tier-1 runs two networks per strategy and
    peering mode; CI's twin step runs the ``twins`` profile."""

    @pytest.mark.parametrize("peering_mode", ["virtual_as", "bloom"])
    @pytest.mark.parametrize("strategy", list(JoinStrategy))
    @settings(max_examples=profile_examples(2), deadline=None)
    @given(seed=st.integers(0, 2 ** 16), hosts=st.integers(20, 300),
           n_fingers=st.sampled_from([1, 8, 16]))
    def test_fingers_equal_the_reference(self, strategy, peering_mode, seed,
                                         hosts, n_fingers):
        def build():
            net = InterDomainNetwork(
                synthetic_as_graph(n_ases=40, seed=seed), n_fingers=n_fingers,
                seed=seed, strategy=strategy, peering_mode=peering_mode)
            net.join_random_hosts(hosts)
            return net
        _twins(build)

    def test_the_rejection_branch_equals_the_reference(self):
        """A global ring of 1 500 IDs puts ~94 in each first-row slot, so
        most draws of the last 100 joins take ``sample``'s rejection-set
        branch, which CPython uses above 85 members (the first 1 400 join
        as ephemeral IDs: the global ring's cheapest members)."""
        def build():
            net = InterDomainNetwork(synthetic_as_graph(n_ases=40, seed=4),
                                     n_fingers=8, seed=4)
            for _ in range(1400):
                net.join_host(net.next_joinable_host(),
                              strategy=JoinStrategy.EPHEMERAL)
            net.join_random_hosts(100)
            return net
        net = _twins(build)
        assert len(net.global_ring) > 16 * 85


def test_a_finger_costs_at_most_twenty_seven_python_calls(monkeypatch):
    """Finger upkeep's stated budget (ROADMAP aim 1), as a count:
    Python-level calls per acquired finger, everything under
    ``acquire_fingers`` included, over the 500 joins after 2 000 on the
    100-AS graph (network seed 7, 8 fingers, multihomed).  Deterministic
    and clock-free.  55.4 at ``1aa484b`` (``slot_arc``'s two ``FlatId``
    per slot, ``sample``, ``SortedRingMap.__getitem__`` per candidate,
    ``lowest_containing_level`` per finger); 24.9 with the draws (one
    ``sample`` call: its frame, six ``_randbelow`` and three ``abc``
    frames for its ``Sequence`` check), the six ``path_profile`` ranks
    and ``canon.pointer_to`` left.  The budget is that plus 10 %."""
    net = InterDomainNetwork(synthetic_as_graph(n_ases=100, seed=0),
                             n_fingers=8, seed=7,
                             strategy=JoinStrategy.MULTIHOMED)
    net.join_random_hosts(2000)
    acquire = fingers.acquire_fingers
    calls = acquired = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    def counted(net, vn, n_fingers):
        nonlocal acquired
        sys.setprofile(count)
        try:
            return acquire(net, vn, n_fingers)
        finally:
            sys.setprofile(None)
            acquired += len(vn.fingers)

    monkeypatch.setattr(fingers, "acquire_fingers", counted)
    net.join_random_hosts(500)
    assert acquired == 4000
    assert calls / acquired <= 27, calls / acquired
