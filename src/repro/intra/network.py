"""The intradomain ROFL network — the public entry point for Section 3.

Owns the substrate stack (static topology → link-state map → path cache),
the per-router ROFL state, and the global indexes the simulator uses for
verification (``vn_index`` is an *oracle*: routing never consults it to
make forwarding decisions, only state-update and checking code does).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.idspace.identifier import FlatId, RingSpace
from repro.intra import failure as failure_mod
from repro.intra import forwarding, partition, ring
from repro.intra.router import RoflRouter
from repro.intra.virtualnode import (DEFAULT_SUCCESSOR_GROUP, Pointer,
                                     VirtualNode)
from repro.network import Network, RingInconsistency
from repro.sim.stats import PathResult
from repro.topology.graph import RouterTopology
from repro.topology.hosts import PlannedHost
from repro.topology.isp import TCAM_ENTRIES, synthetic_isp


class IntraDomainNetwork(Network):
    """One ISP running intradomain ROFL.

    Parameters mirror the paper's experimental knobs: ``cache_entries``
    (the 9 Mbit TCAM default ≈ 70 k entries of Fig 6a; 0 is no cache) and
    the successor group size (resilience ablation).  Control traffic
    fills pointer caches; data packets never do: "we do not snoop on data
    packet headers for filling caches" (§6.1).
    """

    kind = "intra"

    def __init__(
        self,
        topology: RouterTopology,
        cache_entries: int = TCAM_ENTRIES,
        successor_group_size: int = DEFAULT_SUCCESSOR_GROUP,
        seed: int = 0,
        ephemeral_fraction: float = 0.0,
    ):
        if successor_group_size < 1:
            raise ValueError("successor group must hold at least one pointer")
        super().__init__(seed, ("intranet", topology.name), topology=topology,
                         ephemeral_fraction=ephemeral_fraction)
        # After the population core: a snapshot that pickles the key oracle
        # first is 4 % larger (+8 MiB peak RSS on the bench's churn_intra).
        self.authority = self._plan.authority
        self.space = RingSpace()
        self.successor_group_size = successor_group_size

        self.routers: Dict[str, RoflRouter] = {
            name: RoflRouter(name, self.space, cache_entries)
            for name in topology.routers
        }
        #: Oracle index over all live virtual nodes (verification only).
        self.vn_index: Dict[FlatId, VirtualNode] = {}
        self.host_records: Dict[str, PlannedHost] = {}
        ring.bootstrap_router_ring(self)

    @classmethod
    def build(cls, seed, spec):
        """``spec.cache_entries=None`` is the TCAM-sized default."""
        return cls(synthetic_isp(n_routers=spec.n_routers, seed=seed,
                                 name=spec.name),
                   TCAM_ENTRIES if spec.cache_entries is None
                   else spec.cache_entries, seed=seed)

    # -- joining -----------------------------------------------------------------

    def join_host(self, host: PlannedHost,
                  via_router: Optional[str] = None) -> ring.JoinReceipt:
        """Join one planned host; returns its measured :class:`JoinReceipt`."""
        receipt = ring.join_internal(self, host, via_router=via_router)
        self.host_records[host.name] = host
        return receipt

    def join_next(self):
        host = self.next_planned_host()
        via = None
        if not self.lsmap.is_router_up(host.attach_at):
            via = self.failover_router(host.attach_at, host.name)
            if via is None:
                return None  # whole ISP down; nothing to join at
        try:
            receipt = self.join_host(host, via_router=via)
        except ring.JoinError:
            # A join attempted while the substrate is partitioned can
            # fail its predecessor lookup; a real host would back off and
            # retry.  The caller counts it and moves on.
            return None
        return receipt.host_name, receipt.messages, receipt.latency_ms

    # -- data plane ----------------------------------------------------------------

    def send(self, src_host: str, dst_host: str) -> PathResult:
        """Route one data packet between two joined hosts."""
        src_vn = self.hosts[src_host]
        dst_vn = self.hosts[dst_host]
        return self.send_to_id(src_vn.router, dst_vn.id)

    def send_to_id(self, src_router: str, dest_id: FlatId) -> PathResult:
        """Route one data packet from a router toward a flat identifier."""
        outcome = forwarding.route(self, src_router, dest_id,
                                   mode="data", category="data")
        optimal = 0
        if outcome.delivered and outcome.final_vn is not None:
            optimal = self.paths.hop_dist(src_router, outcome.final_vn.router) or 0
        return PathResult(
            delivered=outcome.delivered,
            path=outcome.path,
            hops=outcome.hops,
            optimal_hops=optimal,
            pointer_hops=outcome.pointer_hops,
            used_cache=outcome.used_cache,
        )

    # -- the services' view: a node is a router ------------------------------------

    def join_id(self, name: str, flat_id: FlatId, at: str) -> ring.JoinReceipt:
        return ring.join_with_id(self, flat_id, at, name)

    def node_of(self, flat_id: FlatId) -> Optional[str]:
        vn = self.vn_index.get(flat_id)
        return None if vn is None else vn.router

    def node_is_up(self, node: str) -> bool:
        return self.lsmap.is_router_up(node)

    def link_is_up(self, a: str, b: str) -> bool:
        return self.lsmap.is_link_up(a, b)

    def node_path(self, a: str, b: str) -> Optional[List[str]]:
        return self.paths.hop_path(a, b)

    def node_distance(self, a: str, b: str) -> Optional[int]:
        return self.paths.hop_dist(a, b)

    def flush_indexes(self) -> None:
        """Flush every router's pending candidate-index maintenance now."""
        for router in self.routers.values():
            router.flush_index()

    # -- pointer validation (used by the forwarding engine) ----------------------------

    def validate_pointer(self, router: RoflRouter, pointer: Pointer,
                         from_router: Optional[str] = None) -> Optional[Pointer]:
        """Check a pointer's source route against the live map; repair it
        (network map reroute) or tear it down (invariant (b))."""
        # Once per routed pointer: the route read once, no property call.
        path = pointer.path
        owner_router = path[0]
        start = owner_router if from_router is None else from_router
        if owner_router == start and self.lsmap.path_is_live(path):
            return pointer
        if self.id_is_live(pointer.dest_id):
            new_path = self.paths.hop_path(
                start, self.vn_index[pointer.dest_id].router)
            if new_path is not None:
                repaired = pointer.rerouted(tuple(new_path))
                if start == owner_router:
                    router.reroute_pointer(pointer, repaired)
                return repaired
        owner = self.routers.get(owner_router)
        if owner is not None:
            owner.drop_pointer(pointer)
        if router is not owner:
            router.drop_pointer(pointer)
        return None

    def id_is_live(self, flat_id: FlatId) -> bool:
        """Is this identifier currently resident at a live router?

        State-update code uses this when copying successor entries between
        nodes: it models the hosting router NACKing a path setup addressed
        to an ID that no longer lives there (the setup itself is charged).
        """
        vn = self.vn_index.get(flat_id)
        return (vn is not None and self.lsmap.is_router_up(vn.router)
                and self.routers[vn.router].hosts_id(flat_id))

    # -- mobility ---------------------------------------------------------------------

    def leave_host(self, host_name: str) -> int:
        """Graceful departure (cheaper than failure recovery)."""
        from repro.intra import mobility
        return mobility.leave_host(self, host_name)

    def move_host(self, host_name: str, new_router: str):
        """Re-home a host (same flat identifier) at another gateway."""
        from repro.intra import mobility
        return mobility.move_host(self, host_name, new_router)

    # -- failure injection ----------------------------------------------------------

    def fail_host(self, host_name: str) -> int:
        return failure_mod.host_failure(self, host_name)

    def fail_router(self, router_name: str) -> int:
        return failure_mod.router_failure(self, router_name)

    def fail_link(self, a: str, b: str) -> int:
        return failure_mod.link_failure(self, a, b)

    def restore_link(self, a: str, b: str) -> None:
        failure_mod.link_restore(self, a, b)

    def partition_pop(self, pop: Hashable) -> partition.PartitionReport:
        return partition.disconnect_and_reconnect_pop(self, pop)

    def failover_router(self, failed_router: str,
                        host_name: str) -> Optional[str]:
        """The pre-agreed deterministic failover target: the next live
        router in sorted order after the failed one (Section 3.2)."""
        ordered = sorted(self.routers)
        start = ordered.index(failed_router) if failed_router in ordered else 0
        for offset in range(1, len(ordered) + 1):
            candidate = ordered[(start + offset) % len(ordered)]
            if self.lsmap.is_router_up(candidate):
                return candidate
        return None

    # -- verification & accounting -----------------------------------------------------

    def ring_members(self) -> List[VirtualNode]:
        """All live, non-ephemeral virtual nodes (ring participants)."""
        return [vn for vn in self.vn_index.values()
                if not vn.ephemeral and self.lsmap.is_router_up(vn.router)]

    def ring_components(self) -> List[Tuple[Set[str], List[VirtualNode]]]:
        """Each live component with its ring members sorted by ID: one
        sort, and one pass that files each member under its router's
        component."""
        components = self.lsmap.components()
        members: List[List[VirtualNode]] = [[] for _ in components]
        where = {router: i for i, component in enumerate(components)
                 for router in component}
        for vn in sorted(self.ring_members(), key=lambda vn: vn.id):
            members[where[vn.router]].append(vn)
        return list(zip(components, members))

    def check(self) -> None:
        """The simulator's misconvergence check: live members must form a
        single sorted ring of primary successors (per live component)."""
        for _, members in self.ring_components():
            n = len(members)
            if n <= 1:
                continue
            for i, vn in enumerate(members):
                expected = members[(i + 1) % n]
                primary = vn.primary_successor()
                if primary is None:
                    raise RingInconsistency(
                        "{} has no successor (expected {})".format(
                            vn.id, expected.id))
                if primary.dest_id != expected.id:
                    raise RingInconsistency(
                        "{} points to {} but ring order expects {}".format(
                            vn.id, primary.dest_id, expected.id))

    def state_entries(self, include_cache: bool = True) -> Dict[str, int]:
        """Per-router forwarding-state entry counts (Fig 6c)."""
        return {name: router.state_entries(include_cache=include_cache)
                for name, router in self.routers.items()}

    def cache_stats(self) -> Dict[str, float]:
        hits = sum(r.cache.hits for r in self.routers.values())
        misses = sum(r.cache.misses for r in self.routers.values())
        entries = sum(len(r.cache) for r in self.routers.values())
        return {
            "hits": hits,
            "misses": misses,
            "entries": entries,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
