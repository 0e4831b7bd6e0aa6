"""The one ``Network`` contract (``repro.network``) over all five kinds,
and the flat-label baselines behind it: CMU-ETHERNET, OSPF and the
Disco-style compact-routing network, which the head-to-head harness
drives interchangeably with ROFL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_network
from repro.baselines.cmu_ethernet import CmuEthernetNetwork
from repro.baselines.ospf_routing import OspfHostRouting
from repro.compact import DiscoNetwork
from repro.intra.network import IntraDomainNetwork
from repro.network import KINDS, Network, Unsupported
from repro.sim.stats import PathResult
from repro.topology.isp import synthetic_isp

BASELINES = [CmuEthernetNetwork, OspfHostRouting, DiscoNetwork]

#: Every operation of the contract a kind may leave to the base class,
#: with arguments enough to call it.
OPTIONAL = {"leave_host": ("h0",), "fail_host": ("h0",),
            "fail_router": ("r0",), "fail_link": ("r0", "r1"),
            "restore_link": ("r0", "r1"), "partition_pop": (0,),
            "fail_as": (1,), "restore_as": (1,)}

#: What each kind implements of them today (DESIGN.md §4's table).
IMPLEMENTS = {"intra": {"leave_host", "fail_host", "fail_router", "fail_link",
                        "restore_link", "partition_pop"},
              "inter": {"fail_as", "restore_as"},
              "cmu": set(), "ospf": set(), "disco": {"leave_host"}}


def test_registry_holds_the_five_kinds_in_order():
    assert list(KINDS) == ["intra", "inter", "cmu", "ospf", "disco"]
    assert all(cls.kind == kind for kind, cls in KINDS.items())

    class Instrumented(DiscoNetwork):       # e.g. a test double
        pass
    assert KINDS["disco"] is DiscoNetwork and len(KINDS) == 5


@pytest.mark.parametrize("kind", list(KINDS))
def test_network_contract(kind):
    """Every registered kind builds through the one entry point, the
    operations every consumer needs work on it, and whatever it does not
    implement raises ``Unsupported`` naming the operation and the kind —
    never ``AttributeError``."""
    net = build_network(kind, 3, n_routers=16, n_ases=16, hosts=12)
    assert isinstance(net, Network) and type(net) is KINDS[kind]
    assert net.kind == kind and net.n_hosts == 12 and net.seed == 3

    name, messages, latency = net.join_next()
    assert name in net.hosts and net.n_hosts == 13
    assert isinstance(messages, int) and messages >= 0
    assert latency is None or latency >= 0
    assert messages == net.stats.operation_costs("join")[-1]

    src, dst = net.random_host_pair()
    result = net.send(src, dst)
    assert isinstance(result, PathResult) and result.delivered
    if result.optimal_hops > 0:
        assert result.stretch <= net.stretch_bound + 1e-9
    entries = net.state_entries()
    assert entries and all(isinstance(v, int) and v >= 0
                           for v in entries.values())
    net.check()
    net.flush_indexes()
    described = net.describe()
    assert described["hosts"] == 13
    assert described["rng_streams"] == len(net.rngs)

    missing = type(net).unsupported(OPTIONAL)
    assert set(missing) == set(OPTIONAL) - IMPLEMENTS[kind]
    for operation in missing:
        with pytest.raises(Unsupported, match="{}.*{}|{}.*{}".format(
                operation, kind, kind, operation)):
            getattr(net, operation)(*OPTIONAL[operation])
    assert net.n_hosts == 13        # a refused operation changed nothing


def test_unknown_kind_names_the_registry():
    with pytest.raises(ValueError, match="intra, inter, cmu, ospf, disco"):
        build_network("galactic")


@pytest.fixture()
def topo():
    return synthetic_isp(n_routers=50, seed=2)


@pytest.mark.parametrize("cls", BASELINES)
class TestFlatLabelContract:
    """Every baseline satisfies the shared protocol the harness drives."""

    def test_join_host_returns_messages(self, topo, cls):
        """``join_host`` returns the operation's message count — the
        same unit ``stats.operation_costs("join")`` records."""
        net = cls(topo, seed=0)
        costs = net.join_random_hosts(5)
        assert len(costs) == 5
        assert all(isinstance(c, int) and c >= 0 for c in costs)
        assert costs == net.stats.operation_costs("join")

    def test_delivers_within_stretch_bound(self, topo, cls):
        net = cls(topo, seed=0)
        net.join_random_hosts(20)
        for _ in range(30):
            a, b = net.random_host_pair()
            result = net.send(a, b)
            assert result.delivered
            if result.optimal_hops > 0:
                assert result.stretch <= net.stretch_bound + 1e-9

    def test_memory_entries_cover_every_router(self, topo, cls):
        net = cls(topo, seed=0)
        net.join_random_hosts(10)
        mem = net.memory_entries_per_router()
        assert set(mem) == set(topo.routers)
        assert all(v >= 0 for v in mem.values())
        assert net.n_hosts == 10

    def test_same_seed_same_host_population(self, topo, cls):
        """Identical seeds replay the identical HostPlan tape — the
        property the head-to-head relies on for workload parity."""
        rofl = IntraDomainNetwork(topo, seed=0)
        net = cls(topo, seed=0)
        rofl.join_random_hosts(15)
        net.join_random_hosts(15)
        assert list(net.hosts) == list(rofl.hosts)


class TestCmuEthernet:
    def test_join_floods_every_link(self, topo):
        net = CmuEthernetNetwork(topo, seed=0)
        cost = net.join_host(net._plan.next_host())
        assert cost >= 2 * topo.n_links - max(
            map(len, topo.adjacency.values()))

    def test_memory_is_all_hosts_everywhere(self, topo):
        net = CmuEthernetNetwork(topo, seed=0)
        net.join_random_hosts(30)
        mem = net.memory_entries_per_router()
        assert all(v == 30 for v in mem.values())

    def test_delivery_is_shortest_path(self, topo):
        net = CmuEthernetNetwork(topo, seed=0)
        net.join_random_hosts(10)
        names = sorted(net.hosts)
        result = net.send(names[0], names[1])
        assert result.delivered
        assert result.stretch == 1.0

    def test_join_overhead_ratio_vs_rofl(self, topo):
        """The Fig 5a headline: CMU-ETHERNET needs far more messages."""
        rofl = IntraDomainNetwork(topo, seed=0)
        cmu = CmuEthernetNetwork(topo, seed=0)
        rofl.join_random_hosts(200)
        cmu.join_random_hosts(200)
        ratio = (cmu.stats.total_messages("join")
                 / rofl.stats.total_messages("join"))
        assert ratio > 3

    def test_memory_ratio_vs_rofl(self, topo):
        rofl = IntraDomainNetwork(topo, seed=0)
        cmu = CmuEthernetNetwork(topo, seed=0)
        rofl.join_random_hosts(300)
        cmu.join_random_hosts(300)
        rofl_mem = rofl.memory_entries_per_router(include_cache=False)
        cmu_mem = cmu.memory_entries_per_router()
        ratio = (sum(cmu_mem.values()) / len(cmu_mem)) / \
                (sum(rofl_mem.values()) / len(rofl_mem))
        assert ratio > 3


class TestOspf:
    def test_shortest_path_delivery(self, topo):
        ospf = OspfHostRouting(topo)
        a, b = topo.routers[0], topo.routers[-1]
        result = ospf.send_routers(a, b)
        assert result.delivered and result.stretch == 1.0

    def test_host_level_send_is_shortest_path(self, topo):
        ospf = OspfHostRouting(topo, seed=0)
        ospf.join_random_hosts(10)
        a, b = ospf.random_host_pair()
        result = ospf.send(a, b)
        assert result.delivered and result.stretch == 1.0

    def test_join_is_free(self, topo):
        """OSPF's location-dependent addressing has no join protocol;
        the cost is recorded as an explicit zero so join CDFs include
        the baseline."""
        ospf = OspfHostRouting(topo, seed=0)
        assert ospf.join_random_hosts(5) == [0] * 5
        assert ospf.stats.total_messages("join") == 0

    def test_load_series_accumulates(self, topo):
        ospf = OspfHostRouting(topo)
        pairs = [(topo.routers[i], topo.routers[-1 - i]) for i in range(10)]
        assert all(ospf.send_routers(src, dst).delivered
                   for src, dst in pairs)
        assert sum(ospf.load_series().values()) > 0

    def test_unreachable_when_partitioned(self, topo):
        from repro.linkstate.lsdb import LinkStateMap
        lsmap = LinkStateMap(topo)
        ospf = OspfHostRouting(topo, lsmap=lsmap)
        victim = topo.routers[5]
        lsmap.fail_router(victim)
        result = ospf.send_routers(topo.routers[0], victim)
        assert not result.delivered


@given(n_routers=st.integers(8, 28), seed=st.integers(0, 2**20))
@settings(max_examples=15, deadline=None)
def test_disco_stretch_never_exceeds_bound(n_routers, seed):
    """Property: on arbitrary small topologies the Thorup–Zwick argument
    holds in practice — every delivered packet's stretch ≤ 3."""
    topo = synthetic_isp(n_routers=n_routers, seed=seed)
    net = DiscoNetwork(topo, seed=seed)
    net.join_random_hosts(min(2 * n_routers, 24))
    names = net.hosts.names[:10]
    for a in names:
        for b in names:
            if a == b:
                continue
            result = net.send(a, b)
            assert result.delivered, (a, b)
            if result.optimal_hops > 0:
                assert result.stretch <= net.stretch_bound + 1e-9, (
                    a, b, result.stretch)
