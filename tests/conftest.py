"""Shared fixtures.

Expensive networks are session-scoped and treated as read-only by the
tests that share them; tests that mutate (failures, partitions) build
their own instances from the factory fixtures.
"""

from pathlib import Path

import pytest
from hypothesis import settings

from repro.intra.network import IntraDomainNetwork
from repro.inter.network import InterDomainNetwork
from repro.inter.policy import JoinStrategy
from repro.topology.asgraph import synthetic_as_graph
from repro.topology.isp import synthetic_isp

#: The environment of every child process a test starts: the program
#: importable, and no bytecode written into the checkout.
CHILD_ENV = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"}

#: ``--hypothesis-profile fuzz``: ROADMAP item 2's exit bar, 10⁴ cases per
#: surface.  CI's bench-smoke job runs the fuzz tests and the codec's
#: stream-equality property under it; tier-1 runs them at their own
#: budgets (the default 100, and 400 for the property).
settings.register_profile("fuzz", max_examples=10_000, deadline=None)
#: ``--hypothesis-profile twins``: CI's bench-smoke job runs both
#: twin-engine tape tests (``TestReferenceEngine`` in
#: ``test_intra_forwarding.py`` and ``test_inter_routing.py``) at this
#: budget, about two minutes together.
settings.register_profile("twins", max_examples=80, deadline=None)


def profile_examples(tier1: int) -> int:
    """Examples for a property CI also runs at a larger budget: ``tier1``
    under hypothesis' default profile (tier-1's time budget), the active
    profile's count otherwise."""
    if settings.get_current_profile_name() == "default":
        return tier1
    return settings.default.max_examples


@pytest.fixture(scope="session")
def small_topo():
    return synthetic_isp(n_routers=40, seed=7, name="test-isp")


@pytest.fixture(scope="session")
def intra_net_readonly(small_topo):
    """A joined intradomain network shared by read-only tests."""
    net = IntraDomainNetwork(small_topo, seed=7)
    net.join_random_hosts(120)
    net.check()
    return net


@pytest.fixture()
def intra_net_factory():
    def make(n_routers=40, n_hosts=60, seed=7, **kwargs):
        topo = synthetic_isp(n_routers=n_routers, seed=seed)
        net = IntraDomainNetwork(topo, seed=seed, **kwargs)
        if n_hosts:
            net.join_random_hosts(n_hosts)
        return net
    return make


@pytest.fixture(scope="session")
def as_graph():
    return synthetic_as_graph(n_ases=60, seed=7)


@pytest.fixture(scope="session")
def inter_net_readonly(as_graph):
    net = InterDomainNetwork(as_graph, n_fingers=8, seed=7,
                             strategy=JoinStrategy.MULTIHOMED)
    net.join_random_hosts(150)
    net.check()
    return net


@pytest.fixture()
def inter_net_factory():
    def make(n_ases=60, n_hosts=80, seed=7, **kwargs):
        graph = synthetic_as_graph(n_ases=n_ases, seed=seed)
        net = InterDomainNetwork(graph, seed=seed, **kwargs)
        if n_hosts:
            net.join_random_hosts(n_hosts)
        return net
    return make
