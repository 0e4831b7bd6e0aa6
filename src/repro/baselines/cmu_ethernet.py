"""CMU-ETHERNET baseline (Myers, Ng, Zhang — "Rethinking the service
model: scaling Ethernet to a million nodes", HotNets 2004).

The design floods host attachment information so that *every* router
holds a route for *every* host (no location semantics in addresses,
like ROFL — but flat state everywhere instead of a ring):

* a host join floods the network — one message over each live link in
  each direction, exactly like a link-state advertisement;
* every router stores one forwarding entry per host in the network.

The paper uses it "only as a baseline comparison point" and reports
CMU-ETHERNET needing 37–181× more join messages and 34–1200× more
memory than ROFL on the same four ISPs; the Fig 5a/6c benches reproduce
those ratios with this implementation.

A :class:`repro.network.Network` kind: delivery is always over the
shortest path (every router knows every host), so the provable stretch
bound is exactly 1.0.
"""

from __future__ import annotations

from typing import Dict

from repro.idspace.identifier import FlatId, RingSpace
from repro.linkstate.protocol import flood_message_cost
from repro.network import Network
from repro.sim.stats import PathResult
from repro.topology.graph import RouterTopology
from repro.topology.hosts import PlannedHost


class CmuEthernetNetwork(Network):
    """Flood-based flat routing over one ISP topology."""

    kind = "cmu"
    #: Every router holds every host's route, so data paths are always
    #: shortest — the guarantee is stretch 1.
    stretch_bound = 1.0

    def __init__(self, topology: RouterTopology, seed: int = 0):
        super().__init__(seed, ("cmu", "traffic"), topology=topology)
        self.space = RingSpace()
        #: host ID → attachment router, replicated at every router (we
        #: store it once and account for the replication in memory math);
        #: ``hosts`` maps name → host ID.
        self.host_location: Dict[FlatId, str] = {}

    # -- joining ---------------------------------------------------------------

    def join_host(self, host: PlannedHost) -> int:
        """Join one host: flood its attachment over every live link.

        Returns the network-level messages charged to this join's
        operation scope (the :meth:`Network.join_host` contract) — here
        exactly the flood's per-link message count.
        """
        with self.stats.operation("join", host=host.name) as op:
            self.stats.charge_hops(
                flood_message_cost(self.lsmap, host.attach_at), "join")
        self.host_location[host.flat_id] = host.attach_at
        self.hosts[host.name] = host.flat_id
        return op["messages"]

    # -- data plane ----------------------------------------------------------------

    def send(self, src_host: str, dst_host: str) -> PathResult:
        """Shortest-path delivery (every router knows every host)."""
        src_router = self.host_location[self.hosts[src_host]]
        dst_router = self.host_location[self.hosts[dst_host]]
        path = self.paths.hop_path(src_router, dst_router)
        if path is None:
            return PathResult(delivered=False)
        self.stats.charge_path(path, "data")
        hops = len(path) - 1
        return PathResult(delivered=True, path=path, hops=hops,
                          optimal_hops=hops)

    # -- accounting -------------------------------------------------------------------

    def memory_entries_per_router(self) -> Dict[str, int]:
        """Every router stores every host (plus its link-state DB, which
        both designs need and is therefore not counted)."""
        n = len(self.host_location)
        return {router: n for router in self.topology.routers}

