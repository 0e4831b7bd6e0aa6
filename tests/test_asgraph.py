"""AS-graph generator and relationship-annotation invariants."""

import pytest

from repro.topology.asgraph import ASGraph, Relationship, synthetic_as_graph


def tiny_graph():
    asg = ASGraph()
    asg.add_as("T1a", tier=1)
    asg.add_as("T1b", tier=1)
    asg.add_as("T2", tier=2)
    asg.add_as("S1", tier=3, hosts=10)
    asg.add_as("S2", tier=3, hosts=5)
    asg.add_peering("T1a", "T1b")
    asg.add_customer_provider("T2", "T1a")
    asg.add_customer_provider("S1", "T2")
    asg.add_customer_provider("S2", "T2")
    asg.add_customer_provider("S2", "T1b", backup=True)
    return asg


class TestASGraph:
    def test_relationship_queries(self):
        asg = tiny_graph()
        assert asg.providers("S1") == ["T2"]
        assert asg.backup_providers("S2") == ["T1b"]
        assert set(asg.customers("T2")) == {"S1", "S2"}
        assert asg.customers("T1b", include_backup=False) == []
        assert asg.peers("T1a") == ["T1b"]
        assert asg.relationship("T2", "T1a") is Relationship.CUSTOMER_PROVIDER
        assert asg.relationship("S1", "S2") is None

    def test_is_provider_of_direction(self):
        asg = tiny_graph()
        assert asg.is_provider_of("T2", "S1")
        assert not asg.is_provider_of("S1", "T2")

    def test_tier1_and_stubs(self):
        asg = tiny_graph()
        assert set(asg.tier1()) == {"T1a", "T1b"}
        assert set(asg.stubs()) == {"S1", "S2"}

    def test_multihomed(self):
        asg = tiny_graph()
        assert [asn for asn in asg.ases() if len(
            asg.providers(asn) + asg.backup_providers(asn)) > 1] == ["S2"]

    def test_hosts(self):
        asg = tiny_graph()
        assert asg.hosts("S1") == 10
        asg.set_hosts("S1", 20)
        assert asg.hosts("S1") == 20

    def test_duplicate_as_rejected(self):
        asg = tiny_graph()
        with pytest.raises(ValueError):
            asg.add_as("S1")

    def test_self_relationship_rejected(self):
        asg = tiny_graph()
        with pytest.raises(ValueError):
            asg.add_peering("S1", "S1")

    def test_unknown_as_rejected(self):
        asg = tiny_graph()
        with pytest.raises(KeyError):
            asg.add_customer_provider("S1", "nope")

    def test_validate_accepts_tiny_graph(self):
        tiny_graph().validate()

    def test_validate_rejects_provider_cycle(self):
        asg = tiny_graph()
        asg.add_customer_provider("T1a", "S1")  # S1 provides for T1a: cycle
        with pytest.raises(ValueError):
            asg.validate()


class TestSyntheticAsGraph:
    def test_basic_shape(self):
        asg = synthetic_as_graph(n_ases=80, seed=0)
        assert asg.n_ases == 80
        asg.validate()
        assert len(asg.tier1()) >= 3
        assert len(asg.stubs()) > 80 * 0.4

    def test_tier1_is_a_peering_clique(self):
        asg = synthetic_as_graph(n_ases=60, seed=1)
        tier1 = asg.tier1()
        for a in tier1:
            for b in tier1:
                if a != b:
                    assert asg.relationship(a, b) is Relationship.PEER

    def test_every_non_tier1_reaches_tier1_via_providers(self):
        asg = synthetic_as_graph(n_ases=60, seed=2)
        tier1 = set(asg.tier1())
        for asn in asg.ases():
            current = {asn}
            seen = set()
            while current and not (current & tier1):
                seen |= current
                nxt = set()
                for x in current:
                    nxt |= set(asg.providers(x)) | set(asg.backup_providers(x))
                current = nxt - seen
            assert current & tier1 or asn in tier1

    def test_host_totals(self):
        asg = synthetic_as_graph(n_ases=60, seed=3, total_hosts=5000)
        assert sum(asg.hosts(a) for a in asg.ases()) == 5000
        # Transit core carries no endpoints.
        assert all(asg.hosts(t) == 0 for t in asg.tier1())

    def test_host_distribution_is_skewed(self):
        asg = synthetic_as_graph(n_ases=100, seed=4, total_hosts=50_000)
        counts = sorted((asg.hosts(a) for a in asg.ases()), reverse=True)
        top5 = sum(counts[:5])
        assert top5 > 0.25 * 50_000  # heavy head, Zipf-like

    def test_determinism(self):
        a = synthetic_as_graph(n_ases=50, seed=5)
        b = synthetic_as_graph(n_ases=50, seed=5)
        assert sorted((x, y, r.value) for x, y, r in a.links()) == \
               sorted((x, y, r.value) for x, y, r in b.links())

    def test_multihoming_and_backup_exist(self):
        asg = synthetic_as_graph(n_ases=120, seed=6)
        assert any(len(asg.providers(a) + asg.backup_providers(a)) > 1
                   for a in asg.ases())
        assert any(asg.backup_providers(a) for a in asg.ases())

    def test_rejects_tiny_graph(self):
        with pytest.raises(ValueError):
            synthetic_as_graph(n_ases=3)
