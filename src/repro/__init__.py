"""ROFL: Routing on Flat Labels — a full reproduction of the SIGCOMM 2006 paper.

The package is organised by substrate (DESIGN.md §4 has the whole tree):

* :mod:`repro.idspace` — the flat 128-bit circular identifier namespace and
  self-certifying identities.
* :mod:`repro.util` — bloom filters, sorted ring maps, RNG helpers and the
  perf registry.
* :mod:`repro.sim` — a discrete-event simulation kernel and statistics.
* :mod:`repro.topology` — router-level ISP and AS-level Internet topologies.
* :mod:`repro.linkstate` — the OSPF-like link-state substrate ROFL assumes.
* :mod:`repro.intra` — intradomain ROFL (Section 3 of the paper).
* :mod:`repro.inter` — interdomain ROFL (Section 4) plus the BGP baseline.
* :mod:`repro.baselines` — CMU-ETHERNET and plain OSPF host routing.
* :mod:`repro.compact` — Disco-style compact routing on flat names.
* :mod:`repro.services` — anycast, multicast, security, traffic engineering.
* :mod:`repro.workload` — declarative churn, traffic and fault scenarios.
* :mod:`repro.snapshot` — checkpoint/restore and canonical state hashing.
* :mod:`repro.obs` — causal tracing, explain, invariant probes, reports.
* :mod:`repro.harness` — drivers that regenerate every figure in the paper.

A package ``__init__`` imports nothing (:mod:`repro.snapshot` excepted), so
a process loads only the modules its command runs; network kinds load by
name through :func:`repro.network.network_class`.

Quickstart::

    from repro import build_network

    net = build_network("intra", seed=1, hosts=200, n_routers=60,
                        cache_entries=1024)
    a, b = net.random_host_pair()
    result = net.send(a, b)
    print(result.hops, result.stretch)
"""

__version__ = "1.0.0"

__all__ = ["build_network"]


def build_network(kind="intra", seed=0, hosts=0, name=None, **sizing):
    """Build a fresh network of a :data:`repro.network.KINDS` kind and join
    ``hosts`` hosts onto it — the one constructor: ``repro serve``,
    ``snapshot save``, ``trace``, the harness and the examples build here.

    ``sizing`` is the other fields of
    :class:`repro.workload.scenario.NetworkSpec` (``n_routers``,
    ``n_ases``, ``cache_entries``, ``n_fingers``), which states their
    defaults and is what a scenario builds its own network from; a kind
    reads those its ``NetworkSpec.sizing()`` names.  ``name``
    names the ISP topology and so seeds the network's RNG streams: the
    same name is the same network.
    """
    from repro.workload.scenario import NetworkSpec
    net = NetworkSpec(kind=kind, name=name, **sizing).build(seed)
    if hosts:
        net.join_random_hosts(hosts)
        net.flush_indexes()
    return net

