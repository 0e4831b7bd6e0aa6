"""One ``Network`` contract for ROFL and its baselines (DESIGN.md §4).

The paper's §6 runs them over the same ISP graphs and host populations;
the base class owns that shared population core and names every operation
a consumer — the workload driver, ``repro serve``, snapshots, probes, the
harness — may call.  A kind implements an operation by overriding it; what
it leaves alone raises :class:`Unsupported`, so "can this kind do that?"
is read off the class (:meth:`Network.unsupported`), declared nowhere.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple, Type

from repro.linkstate.lsdb import LinkStateMap
from repro.linkstate.spf import PathCache
from repro.sim.stats import StatsCollector
from repro.topology.hosts import HostPlan, HostTable, PlannedHost
from repro.topology.isp import synthetic_isp
from repro.util.rng import RngRegistry


class Unsupported(NotImplementedError):
    """This network kind has no protocol for the operation asked of it."""

    def __init__(self, operation: str, kind: str):
        super().__init__("{!r} networks do not support {}".format(
            kind, operation))


def _left_to_kinds(operation: str):
    def method(self, *args, **kwargs):
        raise Unsupported(operation, self.kind)
    method.__name__ = operation
    return method


#: The one registry (``build_network``, ``NetworkSpec`` and the CLI's
#: ``--kind`` read it): kind → class, as ``import repro`` defines the five.
KINDS: Dict[str, Type["Network"]] = {}


class Network:
    """What every network kind is driven through."""

    #: The :data:`KINDS` key.  A class attribute, like ``stretch_bound``:
    #: the canonical codec hashes instance ``__dict__`` names only.
    kind = ""
    #: The protocol's provable worst-case data-path stretch, which the obs
    #: layer asserts observed stretch against.  ROFL has no guarantee.
    stretch_bound = float("inf")

    def __init_subclass__(cls, **kwargs: Any):
        super().__init_subclass__(**kwargs)
        if "kind" in vars(cls):     # a subclass of a kind is not a new kind
            KINDS[cls.kind] = cls

    def __init__(self, seed: int, stream: Tuple[Hashable, ...],
                 attachment_points: Optional[List[Hashable]] = None,
                 topology=None, lsmap=None, **plan: Any):
        """``stream`` scopes the kind's traffic RNG; ``plan`` (weights,
        authority, ...) goes to the :class:`HostPlan`.  A kind over one ISP
        ``topology`` gets the link-state substrate and attaches hosts at
        the edge routers."""
        if topology is not None:
            self.topology = topology
            self.lsmap = lsmap or LinkStateMap(topology)
            self.paths = PathCache(self.lsmap)
            attachment_points = topology.edge_routers() or topology.routers
        self.seed = seed
        self.stats = StatsCollector()
        #: Every long-lived derived stream of this network, enumerable so
        #: :mod:`repro.snapshot` can capture/restore stream positions.
        self.rngs = RngRegistry(seed)
        self._rng = self.rngs.derive(*stream)
        self.hosts: HostTable = HostTable()
        self._plan = HostPlan(attachment_points=attachment_points, seed=seed,
                              registry=self.rngs, **plan)

    @classmethod
    def build(cls, seed: int, spec) -> "Network":
        """This kind at the sizing of ``spec``, a
        :class:`repro.workload.scenario.NetworkSpec` (default: an ISP)."""
        return cls(synthetic_isp(n_routers=spec.n_routers, seed=seed,
                                 name=spec.name), seed=seed)

    @classmethod
    def unsupported(cls, operations: Iterable[str]) -> List[str]:
        """Those of ``operations`` this kind does not override."""
        return [name for name in operations
                if getattr(cls, name) is getattr(Network, name)]

    # -- population ---------------------------------------------------------

    def next_planned_host(self) -> PlannedHost:
        """Mint the next host of the deterministic plan (not yet joined)."""
        return self._plan.next_host()

    def next_joinable_host(self) -> Optional[PlannedHost]:
        """The next planned host with somewhere live to attach (a kind whose
        attachment points can be down re-draws here), or None."""
        return self.next_planned_host()

    def join_random_hosts(self, n: int, **how: Any) -> list:
        """Join ``n`` hosts drawn from the plan; returns what
        :meth:`join_host` (which gets ``how``) returned for each."""
        hosts = (self.next_joinable_host() for _ in range(n))
        return [self.join_host(host, **how) for host in hosts
                if host is not None]

    def join_next(self) -> Optional[Tuple[str, int, Optional[float]]]:
        """Join the next planned host as a scenario arrival does: ``(host
        name, messages, latency in ms or None)``, or None when the join
        found nowhere to attach or failed in a way a host would retry."""
        host = self.next_joinable_host()
        if host is None:
            return None
        return host.name, self.join_host(host), None

    def random_host_pair(self) -> Tuple[str, str]:
        """A uniform random ordered pair of distinct joined hosts, drawn
        from the network's own seeded stream."""
        names = self.hosts.names
        if len(names) < 2:
            raise ValueError("need at least two joined hosts")
        a, b = self._rng.sample(names, 2)
        return a, b

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    def describe(self) -> Dict[str, Any]:
        """What ``serve info`` reports; the integer entries are a snapshot
        header's counts.  The default, as in :meth:`build`, is an ISP's."""
        return {"hosts": len(self.hosts), "rng_streams": len(self.rngs),
                "routers": self.topology.n_routers,
                "topology": self.topology.name}

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__name__, ", ".join(
            "{}={!r}".format(*item) for item in self.describe().items()))

    # -- protocol: a kind implements an operation by overriding it ----------

    def join_host(self, host: PlannedHost):
        """Join one planned host.

        **Message accounting contract**: a join is one closed
        ``stats.operation("join", ...)`` record whose ``"messages"`` field
        counts the *network-level messages* attributed to it, where one
        message traversing one link costs one unit
        (:meth:`repro.sim.stats.StatsCollector.charge_path` /
        ``charge_hops`` semantics).  "Cost" and "messages" are the same
        number everywhere; there is no separate cost unit.  The baselines
        return that number, the ROFL kinds a receipt carrying it as
        ``.messages``.  A kind whose joins are free by construction (OSPF:
        the address *is* the location) records and returns 0.
        """
        raise Unsupported("join_host", self.kind)

    #: Route one data packet between two joined hosts (by name) → PathResult.
    send = _left_to_kinds("send")
    #: Graceful departure of a joined host → the messages charged.
    leave_host = _left_to_kinds("leave_host")
    #: Crash a joined host (session-timeout teardown) → repair messages.
    fail_host = _left_to_kinds("fail_host")
    #: Router-level faults: crash a router (→ repair messages), cut a link
    #: (→ cache entries dropped), bring it back, cycle one PoP through
    #: disconnect / heal / reconnect / merge.
    fail_router = _left_to_kinds("fail_router")
    fail_link = _left_to_kinds("fail_link")
    restore_link = _left_to_kinds("restore_link")
    partition_pop = _left_to_kinds("partition_pop")
    #: AS-level faults: fail (de-peer) an AS (→ repair messages), restore it.
    fail_as = _left_to_kinds("fail_as")
    restore_as = _left_to_kinds("restore_as")

    def state_entries(self) -> Dict[Hashable, int]:
        """Routing-state entries per node (router or AS); infrastructure
        every design needs, like the link-state DB, is not counted."""
        return self.memory_entries_per_router()

    def check(self) -> None:
        """Raise ``AssertionError`` on misconverged distributed state; kinds
        that keep none (flooded or location-dependent tables) pass."""

    def flush_indexes(self) -> None:
        """Settle deferred index maintenance now (no-op without an index).
        It normally waits for the next lookup, so a join storm dumps its
        flush work onto the first packets sent afterwards; benchmarks call
        this at phase boundaries so each phase pays for what it caused."""
