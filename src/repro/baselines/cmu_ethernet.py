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
bound is exactly 1.0 — the data plane of OSPF host routing, which this
class inherits; only what a join costs and what a router stores differ.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.ospf_routing import OspfHostRouting
from repro.idspace.identifier import RingSpace
from repro.linkstate.protocol import flood_message_cost
from repro.topology.graph import RouterTopology
from repro.topology.hosts import PlannedHost


class CmuEthernetNetwork(OspfHostRouting):
    """Flood-based flat routing over one ISP topology: ``host_location``
    is replicated at every router, stored once and counted per router."""

    kind = "cmu"

    def __init__(self, topology: RouterTopology, seed: int = 0):
        super().__init__(topology, seed=seed)
        self.space = RingSpace()

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

    # -- accounting -------------------------------------------------------------------

    def state_entries(self) -> Dict[str, int]:
        """Every router stores every host (plus its link-state DB, which
        both designs need and is therefore not counted)."""
        n = len(self.host_location)
        return {router: n for router in self.topology.routers}

