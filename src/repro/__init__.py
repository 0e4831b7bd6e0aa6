"""ROFL: Routing on Flat Labels — a full reproduction of the SIGCOMM 2006 paper.

The package is organised by substrate (see DESIGN.md):

* :mod:`repro.idspace` — the flat 128-bit circular identifier namespace and
  self-certifying identities.
* :mod:`repro.util` — bloom filters, sorted ring maps and RNG helpers.
* :mod:`repro.sim` — a discrete-event simulation kernel and statistics.
* :mod:`repro.topology` — router-level ISP and AS-level Internet topologies.
* :mod:`repro.linkstate` — the OSPF-like link-state substrate ROFL assumes.
* :mod:`repro.intra` — intradomain ROFL (Section 3 of the paper).
* :mod:`repro.inter` — interdomain ROFL (Section 4) plus the BGP baseline.
* :mod:`repro.baselines` — CMU-ETHERNET and plain OSPF host routing.
* :mod:`repro.services` — anycast, multicast, security, traffic engineering.
* :mod:`repro.harness` — drivers that regenerate every figure in the paper.

Quickstart::

    from repro import quick_intradomain

    net = quick_intradomain(n_routers=60, n_hosts=200, seed=1)
    a, b = net.random_host_pair()
    result = net.send(a, b)
    print(result.hops, result.stretch)
"""

from repro.idspace.identifier import FlatId, RingSpace
from repro.intra.network import IntraDomainNetwork
from repro.inter.network import InterDomainNetwork
from repro import baselines, compact  # noqa: F401  (defining registers)
from repro.topology.isp import synthetic_isp, ROCKETFUEL_PROFILES
from repro.topology.asgraph import synthetic_as_graph

__version__ = "1.0.0"

__all__ = [
    "FlatId",
    "RingSpace",
    "IntraDomainNetwork",
    "InterDomainNetwork",
    "synthetic_isp",
    "synthetic_as_graph",
    "ROCKETFUEL_PROFILES",
    "build_network",
    "quick_intradomain",
    "quick_interdomain",
]


def build_network(kind="intra", seed=0, hosts=0, name=None, **sizing):
    """Build a fresh network of a registered kind
    (:data:`repro.network.KINDS`) and join ``hosts`` hosts onto it — the
    one constructor behind ``repro serve``, ``snapshot save``, ``trace``
    and the ``quick_*`` helpers.

    ``sizing`` is the other fields of
    :class:`repro.workload.scenario.NetworkSpec` (``n_routers``,
    ``n_ases``, ``cache_entries``, ``n_fingers``), which states their
    defaults and is what a scenario builds its own network from.  ``name``
    names the ISP topology and so seeds the network's RNG streams: the
    same name is the same network.
    """
    from repro.workload.scenario import NetworkSpec
    net = NetworkSpec(kind=kind, name=name, **sizing).build(seed)
    if hosts:
        net.join_random_hosts(hosts)
        net.flush_indexes()
    return net


def quick_intradomain(n_hosts=100, seed=0, cache_entries=1024, **sizing):
    """Build a small intradomain ROFL network ready to route packets.

    This is the two-line entry point used by ``examples/quickstart.py``:
    it generates a synthetic PoP-structured ISP, brings up the link-state
    substrate and joins ``n_hosts`` hosts onto the ring.
    """
    return build_network("intra", seed, hosts=n_hosts,
                         cache_entries=cache_entries, **sizing)


def quick_interdomain(n_hosts=300, seed=0, n_fingers=16, **sizing):
    """Build a small interdomain ROFL network over a synthetic AS graph."""
    return build_network("inter", seed, hosts=n_hosts, n_fingers=n_fingers,
                         **sizing)
