"""The interdomain ROFL network — public entry point for Section 4.

Each AS is modelled as a single node (exactly as the paper's interdomain
simulations do).  The network owns the policy view, the per-level ring
registry (the verification oracle the charged protocol walks are checked
against), the BGP baseline used as the stretch denominator, and failure
injection for the Section 6.3 experiments.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

from repro.idspace.crypto import SignatureAuthority
from repro.idspace.identifier import FlatId, RingSpace
from repro.inter import canon, routing
from repro.inter.asnode import RoflAS
from repro.inter.bgp import BgpBaseline
from repro.inter.pointers import ASPointer, InterVirtualNode
from repro.inter.policy import JoinStrategy, PolicyView
from repro.network import Network
from repro.sim.stats import PathResult
from repro.topology.asgraph import ASGraph, synthetic_as_graph
from repro.topology.hosts import PlannedHost
from repro.util.ringmap import SortedRingMap


class InterRingInconsistency(AssertionError):
    """Raised by :meth:`InterDomainNetwork.check_rings` on misconvergence."""


class InterDomainNetwork(Network):
    """Internet-scale ROFL over an annotated AS graph."""

    kind = "inter"

    def __init__(
        self,
        asg: ASGraph,
        n_fingers: int = 16,
        cache_entries: int = 0,
        seed: int = 0,
        strategy: JoinStrategy = JoinStrategy.MULTIHOMED,
        peering_mode: str = "virtual_as",
        bloom_bits: int = 1 << 14,
        authority: Optional[SignatureAuthority] = None,
        cache_fill_enabled: bool = True,
    ):
        if peering_mode not in ("virtual_as", "bloom"):
            raise ValueError("peering_mode must be 'virtual_as' or 'bloom'")
        self.asg = asg
        self.policy = PolicyView(asg)
        self.bgp = BgpBaseline(asg)
        self.space = RingSpace()
        self.authority = authority or SignatureAuthority()
        self.n_fingers = n_fingers
        self.default_strategy = strategy
        self.peering_mode = peering_mode
        self.cache_fill_enabled = cache_fill_enabled and cache_entries > 0
        self.lookup_mismatches = 0
        self._failed: Set[Hashable] = set()

        self.ases: Dict[Hashable, RoflAS] = {
            asn: RoflAS(asn, self.space, cache_entries=cache_entries,
                        bloom_bits=bloom_bits)
            for asn in asg.ases()
        }
        #: Per-level ring registry (level → SortedRingMap of member VNs).
        self.rings: Dict[Hashable, SortedRingMap] = {}
        #: Oracle over every joined identifier.
        self.id_owner_index: Dict[FlatId, InterVirtualNode] = {}
        self.host_records: Dict[str, PlannedHost] = {}

        bearers = [asn for asn in asg.ases() if asg.hosts(asn) > 0]
        weights = [float(asg.hosts(asn)) for asn in bearers]
        if not bearers:
            bearers, weights = asg.stubs(), None
        super().__init__(seed, ("internet",), bearers, weights=weights,
                         authority=self.authority)

    @classmethod
    def build(cls, seed, spec):
        """Over a synthetic AS graph; ``spec.cache_entries=None`` is no
        cache."""
        return cls(synthetic_as_graph(n_ases=spec.n_ases, seed=seed),
                   n_fingers=spec.n_fingers, seed=seed,
                   cache_entries=spec.cache_entries or 0)

    # -- rings -------------------------------------------------------------------

    def ring_at(self, level: Hashable) -> SortedRingMap:
        ring = self.rings.get(level)
        if ring is None:
            ring = SortedRingMap(self.space)
            self.rings[level] = ring
        return ring

    @property
    def global_ring(self) -> SortedRingMap:
        return self.ring_at(self.policy.root)

    # -- joining -----------------------------------------------------------------

    def join_host(self, host: PlannedHost,
                  strategy: Optional[JoinStrategy] = None,
                  n_fingers: Optional[int] = None,
                  via_provider: Optional[Hashable] = None,
                  flat_id_override: Optional[FlatId] = None,
                  prune: Optional[Set[Hashable]] = None
                  ) -> canon.InterJoinReceipt:
        strategy = strategy or self.default_strategy
        if self.peering_mode == "bloom" and strategy is JoinStrategy.PEERING:
            # Bloom-filter peering eliminates joins across peering links;
            # the remaining joins are exactly the multihomed set.
            strategy = JoinStrategy.MULTIHOMED
        return canon.join_inter(self, host, strategy, n_fingers=n_fingers,
                                via_provider=via_provider,
                                flat_id_override=flat_id_override,
                                prune=prune)

    def next_joinable_host(self) -> Optional[PlannedHost]:
        # A host whose home AS is currently down attaches elsewhere (re-draw
        # from the plan, 64 times at most), mirroring real-world behaviour.
        for _ in range(65):
            host = self.next_planned_host()
            if self.as_is_up(host.attach_at):
                return host
        return None

    def join_next(self):
        host = self.next_joinable_host()
        if host is None:
            return None
        receipt = self.join_host(host)
        return receipt.host_name, receipt.messages, None

    # -- data plane ----------------------------------------------------------------

    def send(self, src_host: str, dst_host: str) -> PathResult:
        src_vn = self.hosts[src_host]
        dst_vn = self.hosts[dst_host]
        return self.send_to_id(src_vn.home_as, dst_vn.id)

    def send_to_id(self, src_as: Hashable, dest_id: FlatId) -> PathResult:
        if self.peering_mode == "bloom":
            outcome = routing.route_bloom_peering(self, src_as, dest_id)
        else:
            outcome = routing.route(self, src_as, dest_id, mode="data")
        optimal = 0
        if outcome.delivered and outcome.final_vn is not None:
            optimal = self.bgp.policy_distance(
                src_as, outcome.final_vn.home_as) or 0
        return PathResult(
            delivered=outcome.delivered,
            path=outcome.as_path,
            hops=outcome.hops,
            optimal_hops=optimal,
            pointer_hops=outcome.pointer_hops,
            used_cache=outcome.used_cache,
        )

    def flush_indexes(self) -> None:
        """Flush every AS's pending candidate-index maintenance now."""
        for node in self.ases.values():
            node.flush_index()

    # -- liveness & pointer validation ----------------------------------------------

    def as_is_up(self, asn: Hashable) -> bool:
        return asn not in self._failed

    def validate_pointer(self, node: RoflAS, pointer: ASPointer,
                         from_as: Optional[Hashable] = None
                         ) -> Optional[ASPointer]:
        start = pointer.owner_as if from_as is None else from_as
        route_ok = (pointer.as_route[0] == start
                    and all(self.as_is_up(asn) for asn in pointer.as_route))
        if route_ok:
            return pointer
        target = self.id_owner_index.get(pointer.dest_id)
        if target is not None and self.as_is_up(target.home_as):
            new_route = self.policy.policy_path(start, target.home_as,
                                                scope=pointer.level)
            if new_route is None:
                new_route = self.policy.policy_path(start, target.home_as)
            if new_route is not None:
                return ASPointer(pointer.dest_id, target.home_as,
                                 tuple(new_route), level=pointer.level,
                                 kind=pointer.kind)
        owner = self.ases.get(pointer.owner_as)
        if owner is not None:
            owner.drop_pointer(pointer)
        if node is not owner:
            node.cache.invalidate_id(pointer.dest_id)
        return None

    # -- failure injection (Section 6.3) ------------------------------------------------

    def fail_as(self, asn: Hashable) -> int:
        """Fail a (stub) AS: its IDs leave every ring; neighbours repair.
        Returns the repair message count."""
        if asn in self._failed:
            return 0
        self._failed.add(asn)
        self.bgp.invalidate()
        node = self.ases[asn]
        dead_vns = list(node.hosted.values())
        dead_ids = {vn.id for vn in dead_vns}

        with self.stats.operation("as_failure", asn=asn) as op:
            for vn in dead_vns:
                node.unhost(vn.id)
                self.id_owner_index.pop(vn.id, None)
                if vn.host_name is not None:
                    self.hosts.pop(vn.host_name, None)
                for level in vn.joined_levels:
                    self.ring_at(level).discard(vn.id)

            # Ring repair: at every level each dead ID participated in,
            # its predecessor re-points at the ID after the gap — one
            # teardown-triggered exchange per (ID, level), which is why
            # the paper sees repair cost "roughly … the number of
            # identifiers hosted in the failed stub AS".
            for vn in dead_vns:
                for level in vn.joined_levels:
                    self._repair_gap(vn, level)

            # Everyone else drops pointers naming dead IDs (LSA-driven).
            # One pass and one mark_dirty per VN however many dead targets
            # it held, so the next flush re-diffs each touched VN once.
            for other in self.ases.values():
                other.cache.invalidate_where(
                    lambda p: p.dest_id in dead_ids or asn in p.as_route)
                for hosted in other.hosted.values():
                    if hosted.drop_dead_targets(dead_ids):
                        other.mark_dirty(hosted)
            return op["messages"]

    def _repair_gap(self, dead_vn: InterVirtualNode, level: Hashable) -> None:
        ring = self.ring_at(level)
        if len(ring) == 0:
            return
        pred_id = ring.predecessor(dead_vn.id, strict=False)
        succ_id = ring.successor(dead_vn.id, strict=False)
        if pred_id is None or succ_id is None or pred_id == succ_id:
            return
        pred: InterVirtualNode = ring[pred_id]
        succ: InterVirtualNode = ring[succ_id]
        route = self.policy.policy_path(pred.home_as, succ.home_as,
                                        scope=level)
        if route is None:
            route = self.policy.policy_path(pred.home_as, succ.home_as)
        if route is None:
            return
        self.stats.charge_hops(2 * (len(route) - 1), "repair")
        pred.set_successor(level, ASPointer(succ.id, succ.home_as,
                                            tuple(route), level=level))
        back = self.policy.policy_path(succ.home_as, pred.home_as,
                                       scope=level)
        if back is not None:
            succ.pred_by_level[level] = ASPointer(pred.id, pred.home_as,
                                                  tuple(back), level=level,
                                                  kind="predecessor")
        self.ases[pred.home_as].mark_dirty(pred)
        self.ases[succ.home_as].mark_dirty(succ)

    def restore_as(self, asn: Hashable) -> None:
        self._failed.discard(asn)
        self.bgp.invalidate()

    # -- verification -----------------------------------------------------------------

    def check_rings(self, levels: Optional[List[Hashable]] = None) -> None:
        """Every level's members must form a consistent merged ring: each
        member's effective successor *among that ring's members* equals
        the next member clockwise.

        The membership filter matters when joining strategies are mixed:
        a pointer stored at an inner level may target an ID that joined
        the inner ring but not this one (e.g. an ephemeral neighbour);
        such pointers are legitimate routing state but not part of this
        level's merged ring."""
        targets = levels if levels is not None else list(self.rings)
        for level in targets:
            ring = self.rings.get(level)
            if ring is None or len(ring) < 2:
                continue
            members = ring.keys()
            for i, member_id in enumerate(members):
                vn: InterVirtualNode = ring[member_id]
                expected = members[(i + 1) % len(members)]
                eff = self._member_effective_successor(vn, level, ring)
                if eff is None or eff != expected:
                    raise InterRingInconsistency(
                        "level {}: {} effective successor {} != {}".format(
                            level, member_id, eff, expected))

    check = check_rings

    def _member_effective_successor(self, vn: InterVirtualNode,
                                    level: Hashable, ring) -> Optional[FlatId]:
        """Closest successor-pointer target at levels within ``level``
        whose target is a member of this level's ring."""
        best: Optional[FlatId] = None
        best_dist = None
        for lvl, ptr in vn.succ_by_level.items():
            if lvl is not None and not self.policy.level_contained_in(lvl,
                                                                      level):
                continue
            if ptr.dest_id not in ring:
                continue
            dist = self.space.distance_cw(vn.id, ptr.dest_id)
            if best_dist is None or dist < best_dist:
                best, best_dist = ptr.dest_id, dist
        return best

    def check_isolation(self, src_as: Hashable, dst_as: Hashable,
                        as_path: List[Hashable]) -> bool:
        """Did this path stay within the isolation region of its
        endpoints?  (Union of the earliest-common-ancestor subtrees,
        extended by any peering level both endpoints joined under.)"""
        region = set(self.policy.hierarchy.isolation_region(src_as, dst_as))
        for vas in self.policy.virtual_ases:
            members = self.policy.subtree(vas)
            if src_as in members and dst_as in members:
                candidates = [self.policy.subtree(a) for a in vas.members]
                if any(src_as in c for c in candidates) and \
                        any(dst_as in c for c in candidates):
                    region |= members
        return all(asn in region for asn in as_path)

    # -- accounting ----------------------------------------------------------------------

    def state_entries_per_as(self, include_cache: bool = True) -> Dict[Hashable, int]:
        return {asn: node.state_entries(include_cache=include_cache)
                for asn, node in self.ases.items()}

    def bloom_bits_total(self) -> int:
        return sum(node.subtree_bloom.size_bits for node in self.ases.values())

    state_entries = state_entries_per_as

    def describe(self) -> Dict:
        return {"hosts": len(self.hosts), "rng_streams": len(self.rngs),
                "ases": len(self.ases), "peering_mode": self.peering_mode}
