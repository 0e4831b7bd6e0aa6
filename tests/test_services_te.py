"""Traffic-engineering services (Section 5.1)."""

import pytest

from repro.idspace.crypto import KeyPair
from repro.inter.network import InterDomainNetwork
from repro.services.traffic_eng import (MultihomedSuffixJoin,
                                        build_regional_hierarchy,
                                        negotiate_path_set, send_negotiated)
from repro.topology.hosts import PlannedHost


@pytest.fixture()
def net(inter_net_factory):
    return inter_net_factory(n_hosts=100, seed=6, n_fingers=6)


class TestNegotiation:
    def test_negotiated_set_covers_both_hierarchies(self, net):
        a, b = net.random_host_pair()
        src, dst = net.hosts[a].home_as, net.hosts[b].home_as
        neg = negotiate_path_set(net, src, dst)
        assert src in neg.allowed_ases and dst in neg.allowed_ases

    def test_post_negotiation_stretch_is_one(self, net):
        """"stretch for remaining packets can be reduced to one"."""
        stretches = []
        for _ in range(25):
            a, b = net.random_host_pair()
            neg = negotiate_path_set(net, net.hosts[a].home_as,
                                     net.hosts[b].home_as)
            result, within = send_negotiated(net, a, b, neg)
            assert result.delivered
            if within and result.optimal_hops > 0:
                stretches.append(result.stretch)
        assert stretches and sum(stretches) / len(stretches) <= 1.3

    def test_destination_selection_validated(self, net):
        a, b = net.random_host_pair()
        with pytest.raises(ValueError):
            negotiate_path_set(net, net.hosts[a].home_as,
                               net.hosts[b].home_as,
                               dst_selection={"not-an-upstream"})

    def test_destination_can_prune_providers(self, net):
        a, b = net.random_host_pair()
        dst_as = net.hosts[b].home_as
        up = net.policy.hierarchy.up_chain(dst_as)
        neg = negotiate_path_set(net, net.hosts[a].home_as, dst_as,
                                 dst_selection=set(up[:2]))
        assert dst_as in neg.allowed_ases

    def test_negotiation_charged(self, net):
        before = net.stats.total_messages("negotiation")
        a, b = net.random_host_pair()
        negotiate_path_set(net, net.hosts[a].home_as, net.hosts[b].home_as)
        assert net.stats.total_messages("negotiation") > before


class TestMultihomedSuffixes:
    def make_te(self, net):
        home = next(asn for asn in net.asg.ases()
                    if len(net.asg.providers(asn)) >= 2
                    and net.asg.hosts(asn) > 0)
        host = PlannedHost(name="te-host", attach_at=home,
                           key_pair=KeyPair.generate(b"te-key",
                                                     net.authority))
        return MultihomedSuffixJoin(net, host, "te-group")

    def test_one_suffix_per_provider(self, net):
        te = self.make_te(net)
        suffix_map = te.join_all()
        providers = set(net.asg.providers(te.host.attach_at))
        assert {p for p, _ in suffix_map.values()} == providers

    def test_suffix_selects_entry_provider(self, net):
        """Traffic arriving over an *access (provider) link* must use the
        engineered provider.  (A ring predecessor inside the home AS's own
        customer cone may hand packets up from below — that is not an
        access link, so the multihoming policy does not apply to it.)"""
        te = self.make_te(net)
        te.join_all()
        home = te.host.attach_at
        src_as = next(vn.home_as for vn in net.hosts.values()
                      if vn.home_as != home)
        checked = 0
        for suffix, (provider, _) in te.suffix_map.items():
            result, engineered = te.send_via(src_as, suffix)
            assert result.delivered
            entered = te.entry_provider(result.path)
            if entered is not None and net.asg.is_provider_of(entered, home):
                assert entered == engineered == provider
                checked += 1
        assert checked >= 1

    def test_requires_multihomed_as(self, net):
        stub = next(asn for asn in net.asg.ases()
                    if len(net.asg.providers(asn)) == 0)
        host = PlannedHost(name="x", attach_at=stub,
                           key_pair=KeyPair.generate(b"x", net.authority))
        with pytest.raises(ValueError):
            MultihomedSuffixJoin(net, host, "g").join_all()


class TestRegionalRings:
    def test_regional_hierarchy_shape(self):
        asg = build_regional_hierarchy({"EU": 100, "US": 200})
        assert set(asg.ases()) == {"GLOBAL", "EU", "US"}
        assert asg.providers("EU") == ["GLOBAL"]
        assert asg.hosts("US") == 200

    def test_regional_isolation(self):
        """Intra-region traffic must not transit inter-region links."""
        asg = build_regional_hierarchy({"EU": 50, "US": 50, "APAC": 50})
        net = InterDomainNetwork(asg, n_fingers=4, seed=9)
        net.join_random_hosts(60)
        net.check()
        same_region_pairs = 0
        for _ in range(200):
            a, b = net.random_host_pair()
            if net.hosts[a].home_as != net.hosts[b].home_as:
                continue
            same_region_pairs += 1
            result = net.send(a, b)
            assert result.delivered
            assert set(result.path) == {net.hosts[a].home_as}
        assert same_region_pairs > 0
