"""Proximity finger tables (Section 4.1)."""

import hashlib

import pytest

from repro.idspace.identifier import FlatId
from repro.inter.fingers import (lowest_containing_level, slot_arc,
                                 up_links_between)
from repro.inter.network import InterDomainNetwork
from repro.inter.policy import JoinStrategy
from repro.topology.asgraph import synthetic_as_graph


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
        ups, hops = up_links_between(net, stub, provider)
        assert (ups, hops) == (1, 1)
        assert up_links_between(net, stub, stub) == (0, 0)

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
