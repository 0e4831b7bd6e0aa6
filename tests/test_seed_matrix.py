"""Robustness matrix: the core invariants hold across seeds, sizes and
configurations — not just on the tuned fixtures."""

import pytest

from repro.inter.network import InterDomainNetwork
from repro.inter.policy import JoinStrategy
from repro.intra.network import IntraDomainNetwork
from repro.topology.asgraph import synthetic_as_graph
from repro.topology.isp import synthetic_isp


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n_routers", [24, 60])
def test_intra_invariants_across_seeds(seed, n_routers):
    topo = synthetic_isp(n_routers=n_routers, seed=seed)
    net = IntraDomainNetwork(topo, seed=seed)
    net.join_random_hosts(60)
    net.check()
    for _ in range(20):
        a, b = net.random_host_pair()
        result = net.send(a, b)
        assert result.delivered
        if result.optimal_hops > 0:
            assert result.stretch >= 1.0 - 1e-9
        else:  # same-router delivery has no baseline: defined as 0.0
            assert result.stretch == 0.0
    # One failure + one partition cycle per configuration.
    net.fail_host(sorted(net.hosts)[0])
    net.check()
    net.partition_pop(sorted(topo.pops)[0])
    net.check()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("strategy", [JoinStrategy.MULTIHOMED,
                                      JoinStrategy.PEERING])
def test_inter_invariants_across_seeds(seed, strategy):
    asg = synthetic_as_graph(n_ases=50, seed=seed)
    net = InterDomainNetwork(asg, n_fingers=6, seed=seed, strategy=strategy)
    net.join_random_hosts(80)
    net.check()
    assert net.lookup_mismatches == 0
    for _ in range(25):
        a, b = net.random_host_pair()
        result = net.send(a, b)
        assert result.delivered
        assert net.check_isolation(net.hosts[a].home_as,
                                   net.hosts[b].home_as, result.path)


@pytest.mark.parametrize("group_size", [1, 2, 8])
def test_intra_group_size_configs(group_size):
    topo = synthetic_isp(n_routers=30, seed=6)
    net = IntraDomainNetwork(topo, seed=6, successor_group_size=group_size)
    net.join_random_hosts(40)
    net.check()
    for name in sorted(net.hosts)[:8]:
        net.fail_host(name)
        net.check()


@pytest.mark.parametrize("cache_entries", [0, 7, 100_000])
def test_intra_cache_configs(cache_entries):
    topo = synthetic_isp(n_routers=30, seed=7)
    net = IntraDomainNetwork(topo, seed=7, cache_entries=cache_entries)
    net.join_random_hosts(40)
    for _ in range(20):
        a, b = net.random_host_pair()
        assert net.send(a, b).delivered
