"""Plain OSPF shortest-path host routing — the Fig 6b baseline.

"For a particular x value, we plot the load at the i-th most congested
router in an OSPF network, and the load under ROFL for that same
router."  This baseline routes every packet over the hop-count shortest
path between the endpoints' attachment routers and tallies per-router
traversal counts with the same :class:`StatsCollector` plumbing ROFL
uses, so the two load series are directly comparable.

A :class:`repro.network.Network` kind, the *location-dependent*
contrast: an OSPF "address" encodes the attachment router, so a host
join installs no per-host routing state anywhere and costs **zero**
network-level messages (``join_host`` returns 0 by the shared
accounting contract) — the exact property flat labels give up,
which is why every flat design pays join/lookup overhead to win
location independence.  Delivery is always shortest-path, so the
provable stretch bound is 1.0.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.idspace.identifier import FlatId
from repro.linkstate.lsdb import LinkStateMap
from repro.network import Network
from repro.sim.stats import PathResult
from repro.topology.graph import RouterTopology
from repro.topology.hosts import PlannedHost


class OspfHostRouting(Network):
    """Shortest-path routing between attachment routers."""

    kind = "ospf"
    #: Packets follow the SPF path between attachment routers — the
    #: addressing scheme guarantees stretch 1.
    stretch_bound = 1.0

    def __init__(self, topology: RouterTopology,
                 lsmap: Optional[LinkStateMap] = None, seed: int = 0):
        super().__init__(seed, ("ospf", "traffic"), topology=topology,
                         lsmap=lsmap)
        #: host ID → attachment router (``hosts`` maps name → host ID).
        self.host_location: Dict[FlatId, str] = {}

    # -- joining ---------------------------------------------------------------

    def join_host(self, host: PlannedHost) -> int:
        """Join one host for free: its address *is* its location, so no
        router learns anything.  Returns 0 messages — the degenerate
        case of the :meth:`Network.join_host` accounting contract,
        recorded as a closed operation so join-cost CDFs can still
        include it."""
        with self.stats.operation("join", host=host.name) as op:
            pass
        self.host_location[host.flat_id] = host.attach_at
        self.hosts[host.name] = host.flat_id
        return op["messages"]

    # -- data plane ----------------------------------------------------------------

    def send(self, src_host: str, dst_host: str) -> PathResult:
        """Route between two joined hosts (by name) over the SPF path."""
        return self.send_routers(
            self.host_location[self.hosts[src_host]],
            self.host_location[self.hosts[dst_host]])

    def send_routers(self, src_router: str, dst_router: str) -> PathResult:
        """Route directly between two routers (the Fig 6b load series
        drives this without any host population)."""
        path = self.paths.hop_path(src_router, dst_router)
        if path is None:
            return PathResult(delivered=False)
        self.stats.charge_path(path, "data")
        hops = len(path) - 1
        return PathResult(delivered=True, path=path, hops=hops,
                          optimal_hops=hops)

    # -- accounting -------------------------------------------------------------------

    def memory_entries_per_router(self) -> Dict[str, int]:
        """Zero extra entries anywhere: the link-state DB both designs
        need is (as in the other baselines) not counted, and addresses
        carry the location."""
        return {router: 0 for router in self.topology.routers}

    def load_series(self) -> Dict[Hashable, int]:
        return self.stats.load_series()
