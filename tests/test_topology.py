"""Router-level topology model and the synthetic ISP generator."""

import pytest

from repro.topology.graph import RouterTopology
from repro.topology.isp import (MIN_ROUTERS, ROCKETFUEL_PROFILES,
                                TCAM_ENTRIES, synthetic_isp)


class TestRouterTopology:
    def make(self):
        topo = RouterTopology("t")
        topo.add_router("a", pop=0, role="backbone")
        topo.add_router("b", pop=0)
        topo.add_router("c", pop=1)
        topo.add_link("a", "b", latency_ms=1.0)
        topo.add_link("b", "c", latency_ms=2.0)
        return topo

    def test_basic_queries(self):
        topo = self.make()
        assert topo.n_routers == 3 and topo.n_links == 2
        assert topo.nodes["a"]["pop"] == 0
        assert set(topo.routers_in_pop(0)) == {"a", "b"}
        assert set(topo.edge_routers()) == {"b", "c"}
        assert topo.adjacency["b"]["c"] == topo.adjacency["c"]["b"] == 2.0

    def test_duplicate_router_rejected(self):
        topo = self.make()
        with pytest.raises(ValueError):
            topo.add_router("a")

    def test_self_loop_rejected(self):
        topo = self.make()
        with pytest.raises(ValueError):
            topo.add_link("a", "a")

    def test_link_to_unknown_router_rejected(self):
        topo = self.make()
        with pytest.raises(KeyError):
            topo.add_link("a", "zz")

    def test_validate_catches_disconnection(self):
        topo = self.make()
        topo.add_router("island")
        with pytest.raises(ValueError):
            topo.validate()

    def test_validate_catches_bad_latency(self):
        topo = self.make()
        topo.adjacency["a"]["b"] = 0
        with pytest.raises(ValueError):
            topo.validate()

    def test_diameter(self):
        assert self.make().diameter() == 2


class TestSyntheticIsp:
    def test_router_count_and_connectivity(self):
        topo = synthetic_isp(n_routers=75, seed=1)
        assert topo.n_routers == 75
        assert topo.is_connected()

    def test_determinism(self):
        a = synthetic_isp(n_routers=50, seed=3)
        b = synthetic_isp(n_routers=50, seed=3)
        assert sorted(a.links()) == sorted(b.links())

    def test_seeds_differ(self):
        a = synthetic_isp(n_routers=50, seed=3)
        b = synthetic_isp(n_routers=50, seed=4)
        assert sorted(a.links()) != sorted(b.links())

    def test_pop_structure(self):
        topo = synthetic_isp(n_routers=64, seed=0)
        assert len(topo.pops) == 8
        for pop, members in topo.pops.items():
            assert 7 <= len(members) <= 9
            # Every PoP elects at least one backbone router.
            assert any(topo.nodes[r]["role"] == "backbone"
                       for r in members)

    def test_every_router_has_a_pop(self):
        topo = synthetic_isp(n_routers=40, seed=2)
        assert all(topo.nodes[r]["pop"] is not None
                   for r in topo.routers)

    def test_rejects_tiny_inputs(self):
        with pytest.raises(ValueError):
            synthetic_isp(n_routers=MIN_ROUTERS - 1)
        synthetic_isp(n_routers=MIN_ROUTERS)

    def test_latency_jitter_present(self):
        topo = synthetic_isp(n_routers=80, seed=5)
        latencies = {round(topo.adjacency[a][b], 4) for a, b in topo.links()}
        assert len(latencies) > 3  # not all equal

    def test_rocketfuel_profiles(self):
        for name, params in ROCKETFUEL_PROFILES.items():
            assert params["routers"] > 0 and params["hosts"] > 0

    def test_tcam_budget_matches_paper(self):
        # "roughly 70,000 entries (corresponding to a 9Mbit cache of
        # 128-bit IDs)"
        assert 70_000 <= TCAM_ENTRIES <= 75_000
