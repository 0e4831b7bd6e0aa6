"""Interdomain greedy routing (Sections 2.3 and 4.1).

"Our mechanism for routing relies on greedy routing, augmented with
in-packet AS-level source-routes. … greedy routing is used to determine
the closest candidate pointer, whose source-route is tacked on to the
packet."

The engine mirrors the intradomain one at AS granularity: at a decision
point one :meth:`RoflAS.best_match` picks the admissible ID numerically
closest to the destination without passing it, among every pointer the
AS's hosted IDs hold and its pointer cache; the packet follows that
pointer's AS-level source route, and every transit AS asks the same
kernel whether it can shortcut onto a strictly closer pointer of its own
(subject to the BGP-like import rule and, for cached entries, the
bloom-filter isolation guard of Section 4.1).  ``lookup`` mode routes
toward an ID's predecessor *within a hierarchy level's subtree* — the
scoped search Canon joins are built on (Algorithm 3's pruning).

Isolation needs no explicit enforcement for successor pointers: the
pointer formed at the lowest level containing both endpoints always
offers the largest admissible jump, so greedy routing never prefers a
higher-level (out-of-subtree) successor — the property the checker in
:mod:`repro.inter.network` verifies empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, TYPE_CHECKING

from repro.idspace.identifier import FlatId
from repro.inter.pointers import ASPointer, InterVirtualNode
from repro.obs import trace
from repro.util import perf

if TYPE_CHECKING:  # pragma: no cover
    from repro.inter.network import InterDomainNetwork

#: Safety valve against protocol bugs (see the intradomain counterpart).
MAX_POINTER_HOPS = 4096


@dataclass
class InterOutcome:
    """Result of routing one interdomain packet or control lookup."""

    delivered: bool
    reason: str
    as_path: List[Hashable] = field(default_factory=list)
    pointer_hops: int = 0
    used_cache: bool = False
    crossed_peer: bool = False
    final_vn: Optional[InterVirtualNode] = None

    @property
    def hops(self) -> int:
        return max(0, len(self.as_path) - 1)


def route(
    net: "InterDomainNetwork",
    start_as: Hashable,
    dest_id: FlatId,
    mode: str = "data",
    scope: Optional[Hashable] = None,
    category: str = "data",
    use_cache: bool = True,
) -> InterOutcome:
    """Greedy-route from ``start_as`` toward ``dest_id``.

    ``scope`` restricts the search to one hierarchy level's ring (used by
    joins); data packets run unscoped.
    """
    if mode not in ("data", "lookup"):
        raise ValueError("unknown mode {!r}".format(mode))
    perf.counter("inter.fwd.packets")
    with perf.timed("inter.route." + mode):
        return _route(net, start_as, dest_id, mode, scope, category,
                      use_cache)


def _route(net, start_as, dest_id, mode, scope, category, use_cache):
    """The walk: one :meth:`RoflAS.best_match` per AS crossed, otherwise only
    locals bound once — the ASes, the failed set, the policy's step memo and
    the committed pointer's source route — not re-fetched per hop."""
    tr = trace.packet_span("inter.packet", start=str(start_as),
                           dest=dest_id.to_hex(), mode=mode,
                           scope=str(scope) if scope is not None
                           else None) if trace.ENABLED else None
    data = mode == "data"
    ases = net.ases
    failed = net._failed
    steps = net.policy._step_cache
    infinity = net.space.size  # any real candidate beats it
    dest_iv = dest_id.value
    # Lookups aim at the spot just before the target so greedy routing
    # converges on the target's predecessor even if the target exists.
    greedy_dest = dest_id if data else net.space.make(dest_iv - 1)

    current = start_as
    as_path = [start_as]
    delivered, reason, final_vn = False, "in-flight", None
    pointer_hops, used_cache, crossed_peer = 0, False, False
    committed: Optional[ASPointer] = None
    committed_dist = infinity
    route, step = (), 0   # of ``committed``
    arrived_from: Optional[Hashable] = None

    try:
        while pointer_hops <= MAX_POINTER_HOPS:
            node = ases[current]
            resident = node.resident

            if data and dest_iv in resident:
                delivered, reason = True, "delivered"
                final_vn = resident[dest_iv]
                break

            if committed is not None and current != route[-1]:
                # Transit shortcut onto a strictly closer pointer, gated by
                # the BGP-like import rule.
                closer = node.best_match(net, greedy_dest, scope,
                                         arrived_from, use_cache,
                                         committed_dist)
                if closer is not None:
                    if tr is not None:
                        tr.event("shortcut", router=str(current),
                                 distance=closer)
                    committed = None
                    continue
            elif committed is not None \
                    and committed.dest_id.value not in resident:
                # NACK: a stale pointer to an ID no longer hosted here; its
                # owner tears it down (IDs never move between ASes) and
                # routing restarts from this AS.
                owner = ases.get(route[0])
                if owner is not None:
                    owner.drop_pointer(committed)
                    node.cache.invalidate_id(committed.dest_id)
                if tr is not None:
                    tr.event("nack", router=str(current), action="teardown",
                             target=committed.dest_id.to_hex())
                committed = None
                committed_dist = infinity
                continue
            else:
                # Decision point: (re-)run Algorithm 2 at this AS.
                match = node.best_match(net, greedy_dest, scope, None,
                                        use_cache)
                if match is None:
                    reason = "no routing state"
                    break
                distance = match.distance
                stalled = distance >= committed_dist
                if match.resident_vn is not None:
                    if stalled:
                        # The closest ID we know is hosted right here.
                        if data:
                            reason = "destination ID not found"
                        else:
                            delivered, reason = True, "predecessor found"
                            final_vn = match.resident_vn
                        break
                    if tr is not None:
                        tr.decision(router=str(current), rule="local-adopt",
                                    target=match.dest_id.to_hex(),
                                    distance=distance)
                    committed = None
                    committed_dist = distance
                    continue
                if stalled:
                    reason = "no progress available"
                    break
                pointer = match.pointer
                if failed and not failed.isdisjoint(pointer.as_route):
                    pointer = net.validate_pointer(node, pointer)
                    if pointer is None:
                        continue
                committed = pointer
                route, step = pointer.as_route, 0
                committed_dist = distance
                pointer_hops += 1
                used_cache = used_cache or pointer.kind == "cache"
                if tr is not None:
                    tr.decision(router=str(current), rule=pointer.trace_tag,
                                target=pointer.dest_id.to_hex(),
                                distance=distance)
                if len(route) == 1:
                    # Zero-hop: the target is hosted right here (but no
                    # admissible local position, e.g. a non-member in a
                    # scoped search) — adopt its position and re-decide.
                    committed = None
                    continue

            next_as = route[step + 1]
            if next_as in failed:
                # The route broke under us; repair from here or tear down.
                pointer = net.validate_pointer(node, committed,
                                               from_as=current)
                if tr is not None:
                    tr.event("repair", router=str(current),
                             target=committed.dest_id.to_hex(),
                             repaired=pointer is not None)
                if pointer is None:
                    committed = None
                    committed_dist = infinity
                    continue
                committed = pointer
                route, step = pointer.as_route, 0
                next_as = route[1]
            if (steps.get((current, next_as))    # a miss asks the policy
                    or net.policy.step_type(current, next_as)) == "peer":
                crossed_peer = True
            as_path.append(next_as)
            if tr is not None:
                tr.hop(frm=str(current), to=str(next_as))
            arrived_from = current
            current = next_as
            step += 1
        else:
            reason = "pointer hop limit exceeded (routing loop?)"
    finally:
        if len(as_path) > 1:  # once per packet, whichever way the walk ends
            perf.counter("inter.fwd.hops", len(as_path) - 1)

    net.stats.charge_path(as_path, category)
    if tr is not None:
        tr.end(delivered=delivered, reason=reason, router=str(current))
        trace.close_span(tr)
    return InterOutcome(delivered, reason, as_path, pointer_hops, used_cache,
                        crossed_peer, final_vn)


def effective_successor(net: "InterDomainNetwork", vn: InterVirtualNode,
                        level: Hashable) -> Optional[ASPointer]:
    """The ID ``vn`` points to next within ``level``'s merged ring: the
    closest target among its successor pointers at levels contained in
    ``level`` (condition (b) of Section 4.1 means the pointer may be
    stored at an inner level)."""
    own_iv, mask = vn.id.value, net.space.mask
    return min((ptr for lvl, ptr in vn.succ_by_level.items()
                if lvl is None or net.policy.level_contained_in(lvl, level)),
               key=lambda ptr: (ptr.dest_id.value - own_iv) & mask,
               default=None)


def _scoped_descent(net: "InterDomainNetwork", root: Hashable,
                    dest_id: FlatId, category: str) -> InterOutcome:
    """Greedy descent within ``root``'s subtree toward ``dest_id``.

    A transit AS usually hosts no identifiers itself, so the descent
    enters the subtree ring through a registered bootstrap member
    ("having host identifiers register with their providers … when they
    join"), exactly like a scoped join lookup does.
    """
    direct = route(net, root, dest_id, mode="data", scope=root,
                   category=category, use_cache=False)
    if direct.delivered or direct.reason != "no routing state":
        return direct
    ring = net.ring_at(root)
    if len(ring) == 0:
        return direct
    boot = ring[next(iter(ring))]
    climb = net.policy.policy_path(root, boot.home_as, scope=root)
    if climb is None:
        return direct
    net.stats.charge_hops(len(climb) - 1, category)
    entered = route(net, boot.home_as, dest_id, mode="data", scope=root,
                    category=category, use_cache=False)
    entered.as_path = list(climb) + entered.as_path[1:]
    return entered


def route_bloom_peering(
    net: "InterDomainNetwork",
    start_as: Hashable,
    dest_id: FlatId,
    category: str = "data",
) -> InterOutcome:
    """Data routing under the bloom-filter peering option (Section 4.2).

    The packet climbs the source's up-hierarchy; at each AS it consults
    its own subtree bloom filter (descend greedily if the destination is
    below) and its peers' filters (cross the peering link if a peer
    claims the destination; on a false positive the packet "is returned
    over the peering link, at which point [it] continues on its original
    path").  After crossing a peer link the packet may not go up again.
    """
    tr = trace.packet_span("inter.bloom-packet", start=str(start_as),
                           dest=dest_id.to_hex(),
                           mode="data") if trace.ENABLED else None
    outcome = InterOutcome(delivered=False, reason="in-flight",
                           as_path=[start_as])
    current = start_as
    visited_up: List[Hashable] = []

    for _ in range(4 * net.asg.n_ases + 8):
        node = net.ases[current]
        if node.hosts_id(dest_id):
            outcome.delivered = True
            outcome.reason = "delivered"
            outcome.final_vn = node.hosted[dest_id]
            net.stats.charge_path(outcome.as_path, category)
            if tr is not None:
                tr.end(delivered=True, reason="delivered",
                       router=str(current))
                trace.close_span(tr)
            return outcome

        if dest_id in node.subtree_bloom:
            # Claimed below us: greedy descent scoped to our subtree.
            descent = _scoped_descent(net, current, dest_id, category)
            if tr is not None:
                tr.event("bloom.descend", router=str(current),
                         hit=descent.delivered)
            if descent.delivered:
                outcome.as_path.extend(descent.as_path[1:])
                outcome.pointer_hops += descent.pointer_hops
                outcome.delivered = True
                outcome.reason = "delivered"
                outcome.final_vn = descent.final_vn
                if tr is not None:
                    tr.end(delivered=True, reason="delivered",
                           router=str(descent.as_path[-1]))
                    trace.close_span(tr)
                return outcome
            # False positive inside our own filter: fall through and keep
            # climbing (the descent cost is already charged).
            outcome.as_path.extend(descent.as_path[1:])
            outcome.as_path.extend(reversed(descent.as_path[:-1]))
            net.stats.charge_hops(descent.hops, category)

        crossed = False
        for peer in sorted(net.asg.peers(current), key=str):
            if not net.as_is_up(peer):
                continue
            if dest_id in net.ases[peer].subtree_bloom:
                outcome.as_path.append(peer)
                outcome.crossed_peer = True
                net.stats.charge_hops(1, category)
                descent = _scoped_descent(net, peer, dest_id, category)
                outcome.as_path.extend(descent.as_path[1:])
                outcome.pointer_hops += descent.pointer_hops
                if tr is not None:
                    tr.event("bloom.peer-cross", router=str(current),
                             peer=str(peer), hit=descent.delivered)
                if descent.delivered:
                    outcome.delivered = True
                    outcome.reason = "delivered"
                    outcome.final_vn = descent.final_vn
                    if tr is not None:
                        tr.end(delivered=True, reason="delivered",
                               router=str(descent.as_path[-1]))
                        trace.close_span(tr)
                    return outcome
                # False positive: backtrack over the peering link and
                # continue on the original path.
                outcome.as_path.extend(reversed(descent.as_path[:-1]))
                outcome.as_path.append(current)
                net.stats.charge_hops(descent.hops + 1, category)
                crossed = True
        if crossed and not net.asg.providers(current):
            break

        providers = [p for p in net.asg.providers(current) if net.as_is_up(p)]
        if not providers:
            outcome.reason = "reached the core without locating destination"
            break
        nxt = sorted(providers, key=str)[0]
        visited_up.append(current)
        outcome.as_path.append(nxt)
        if tr is not None:
            tr.event("bloom.climb", frm=str(current), to=str(nxt))
        net.stats.charge_hops(1, category)
        current = nxt
    else:
        outcome.reason = "hop limit exceeded"

    outcome.delivered = False
    if tr is not None:
        tr.end(delivered=False, reason=outcome.reason, router=str(current))
        trace.close_span(tr)
    return outcome
