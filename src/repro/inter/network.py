"""The interdomain ROFL network — public entry point for Section 4.

Each AS is modelled as a single node (exactly as the paper's interdomain
simulations do).  The network owns the policy view, the per-level ring
registry (the verification oracle the charged protocol walks are checked
against), the BGP baseline used as the stretch denominator, and failure
injection for the Section 6.3 experiments.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.idspace.crypto import KeyPair, SignatureAuthority
from repro.idspace.identifier import FlatId, RingSpace
from repro.inter import canon, routing
from repro.inter.asnode import RoflAS
from repro.inter.bgp import BgpBaseline
from repro.inter.pointers import ASPointer, InterVirtualNode
from repro.inter.policy import JoinStrategy, PolicyView
from repro.network import Network, RingInconsistency
from repro.sim.stats import PathResult
from repro.topology.asgraph import ASGraph, synthetic_as_graph
from repro.topology.hosts import PlannedHost
from repro.util.ringmap import SortedRingMap


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
    ):
        if peering_mode not in ("virtual_as", "bloom"):
            raise ValueError("peering_mode must be 'virtual_as' or 'bloom'")
        self.asg = asg
        self.policy = PolicyView(asg)
        self.bgp = BgpBaseline(asg)
        self.space = RingSpace()
        self.authority = SignatureAuthority()
        self.n_fingers = n_fingers
        self.default_strategy = strategy
        self.peering_mode = peering_mode
        self.lookup_mismatches = 0
        self._failed: Set[Hashable] = set()

        self.ases: Dict[Hashable, RoflAS] = {
            asn: RoflAS(asn, self.space, cache_entries=cache_entries)
            for asn in asg.ases()
        }
        #: Per-level ring registry (level → SortedRingMap of member VNs).
        self.rings: Dict[Hashable, SortedRingMap] = {}
        #: Oracle over every joined identifier.
        self.id_owner_index: Dict[FlatId, InterVirtualNode] = {}

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
                  via_provider: Optional[Hashable] = None,
                  flat_id_override: Optional[FlatId] = None
                  ) -> canon.InterJoinReceipt:
        strategy = strategy or self.default_strategy
        if self.peering_mode == "bloom" and strategy is JoinStrategy.PEERING:
            # Bloom-filter peering eliminates joins across peering links;
            # the remaining joins are exactly the multihomed set.
            strategy = JoinStrategy.MULTIHOMED
        return canon.join_inter(self, host, strategy,
                                via_provider=via_provider,
                                flat_id_override=flat_id_override)

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

    # -- the services' view: a node is an AS -----------------------------------------

    def join_id(self, name: str, flat_id: FlatId,
                at: Hashable) -> canon.InterJoinReceipt:
        """``canon`` joins ``flat_id`` itself; the key pair, drawn from
        ``name``, only completes the host record."""
        key_pair = KeyPair.generate(name.encode("utf-8"), self.authority)
        return self.join_host(PlannedHost(name=name, attach_at=at,
                                          key_pair=key_pair),
                              flat_id_override=flat_id)

    def node_of(self, flat_id: FlatId) -> Optional[Hashable]:
        vn = self.id_owner_index.get(flat_id)
        return None if vn is None else vn.home_as

    def link_is_up(self, a: Hashable, b: Hashable) -> bool:
        return self.as_is_up(a) and self.as_is_up(b)

    def node_path(self, a: Hashable,
                  b: Hashable) -> Optional[Tuple[Hashable, ...]]:
        return self.policy.policy_path(a, b)

    def node_distance(self, a: Hashable, b: Hashable) -> Optional[int]:
        return self.bgp.policy_distance(a, b)

    # -- liveness & pointer validation ----------------------------------------------

    def as_is_up(self, asn: Hashable) -> bool:
        return asn not in self._failed

    node_is_up = as_is_up

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
            rerouted = canon.pointer_to(self, start, target, pointer.level)
            if rerouted is not None:
                return rerouted
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
        node = self._known(asn)
        if asn in self._failed:
            return 0
        self._failed.add(asn)
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
                    canon.splice_out(self, vn, level)

            # Everyone else drops pointers naming dead IDs (LSA-driven).
            # One pass and one mark_dirty per VN however many dead targets
            # it held, so the next flush re-diffs each touched VN once.
            dead_ivs = {flat_id.value for flat_id in dead_ids}
            for other in self.ases.values():
                other.cache.invalidate_where(
                    lambda iv, route: iv in dead_ivs or asn in route)
                for hosted in other.hosted.values():
                    if hosted.drop_dead_targets(dead_ids):
                        other.mark_dirty(hosted)
            return op["messages"]

    def restore_as(self, asn: Hashable) -> None:
        self._known(asn)
        self._failed.discard(asn)

    def _known(self, asn: Hashable) -> RoflAS:
        """The AS ``asn``, or ``KeyError`` before anything moves."""
        node = self.ases.get(asn)
        if node is None:
            raise KeyError("unknown AS {!r}".format(asn))
        return node

    # -- verification -----------------------------------------------------------------

    def check(self) -> None:
        """Every level's members must form a consistent merged ring: each
        member's effective successor *among that ring's members* equals
        the next member clockwise.

        The membership filter matters when joining strategies are mixed:
        a pointer stored at an inner level may target an ID that joined
        the inner ring but not this one (e.g. an ephemeral neighbour);
        such pointers are legitimate routing state but not part of this
        level's merged ring."""
        for level, ring in self.rings.items():
            if len(ring) < 2:
                continue
            members, vns = ring.key_values(), ring.payloads()
            for i, member in enumerate(members):
                vn: InterVirtualNode = vns[member]
                expected = members[(i + 1) % len(members)]
                eff = routing.effective_successor(self, vn, level,
                                                  members=ring)
                if eff is None or eff.dest_id.value != expected:
                    raise RingInconsistency(
                        "level {}: {} effective successor {} != {}".format(
                            level, vn.id, eff and eff.dest_id,
                            vns[expected].id))

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

    def state_entries(self) -> Dict[Hashable, int]:
        return {asn: node.state_entries() for asn, node in self.ases.items()}

    def bloom_bits_total(self) -> int:
        return sum(node.subtree_bloom.size_bits for node in self.ases.values())

    def describe(self) -> Dict:
        return {"hosts": len(self.hosts), "rng_streams": len(self.rngs),
                "ases": len(self.ases), "peering_mode": self.peering_mode}
