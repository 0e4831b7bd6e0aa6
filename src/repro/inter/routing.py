"""Interdomain greedy routing (Sections 2.3 and 4.1).

"Our mechanism for routing relies on greedy routing, augmented with
in-packet AS-level source-routes. … greedy routing is used to determine
the closest candidate pointer, whose source-route is tacked on to the
packet."

The engine mirrors the intradomain one at AS granularity:

* at a decision point the current AS picks, among every pointer its
  hosted IDs hold (successors at all levels, fingers) and its pointer
  cache, the ID numerically closest to the destination without passing
  it;
* the packet then follows that pointer's AS-level source route hop by
  hop; transit ASes may shortcut onto strictly closer pointers of their
  own, subject to the BGP-like import rule (an AS that received the
  packet from a peer or provider only relays toward customers) and the
  bloom-filter isolation guard for cached entries (Section 4.1);
* ``lookup`` mode routes toward an ID's predecessor *within a hierarchy
  level's subtree* — the scoped search Canon joins are built on
  (Algorithm 3's pruning of route entries to the current hierarchy).

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
    tr = trace.packet_span("inter.packet", start=str(start_as),
                           dest=dest_id.to_hex(), mode=mode,
                           scope=str(scope) if scope is not None
                           else None) if trace.ENABLED else None
    space = net.space
    greedy_dest = dest_id if mode == "data" else space.make(dest_id.value - 1)

    current = start_as
    outcome = InterOutcome(delivered=False, reason="in-flight",
                           as_path=[start_as])
    committed: Optional[ASPointer] = None
    committed_step = 0
    committed_dist = space.size
    arrived_from: Optional[Hashable] = None

    while outcome.pointer_hops <= MAX_POINTER_HOPS:
        node = net.ases[current]

        if mode == "data" and node.hosts_id(dest_id):
            outcome.delivered = True
            outcome.reason = "delivered"
            outcome.final_vn = node.hosted[dest_id]
            net.stats.charge_path(outcome.as_path, category)
            if tr is not None:
                tr.end(delivered=True, reason="delivered",
                       router=str(current))
                trace.close_span(tr)
            return outcome

        if committed is not None and current == committed.dest_as \
                and not node.hosts_id(committed.dest_id):
            # NACK: stale pointer to an ID no longer hosted here; its
            # owner tears it down (an ID never moves between ASes, so there
            # is nowhere to re-route it to).  Routing restarts from this AS.
            owner = net.ases.get(committed.as_route[0])
            if owner is not None:
                owner.drop_pointer(committed)
                node.cache.invalidate_id(committed.dest_id)
            if tr is not None:
                tr.event("nack", router=str(current), action="teardown",
                         target=committed.dest_id.to_hex())
            committed = None
            committed_dist = space.size
            continue

        at_decision = committed is None or current == committed.dest_as
        if at_decision:
            match = node.best_match(net, greedy_dest, scope=scope,
                                    arrived_from=None, use_cache=use_cache)
            if match is None:
                outcome.reason = "no routing state"
                break
            if match.distance >= committed_dist and match.is_local:
                if mode == "lookup":
                    outcome.delivered = True
                    outcome.reason = "predecessor found"
                    outcome.final_vn = match.resident_vn
                    net.stats.charge_path(outcome.as_path, category)
                    if tr is not None:
                        tr.end(delivered=True, reason="predecessor found",
                               router=str(current))
                        trace.close_span(tr)
                    return outcome
                outcome.reason = "destination ID not found"
                break
            if match.distance >= committed_dist:
                outcome.reason = "no progress available"
                break
            if match.is_local:
                if tr is not None:
                    tr.decision(router=str(current), rule="local-adopt",
                                target=match.dest_id.to_hex(),
                                distance=match.distance)
                committed = None
                committed_dist = match.distance
                continue
            pointer = net.validate_pointer(node, match.pointer)
            if pointer is None:
                continue
            committed = pointer
            committed_step = 0
            committed_dist = match.distance
            outcome.pointer_hops += 1
            outcome.used_cache = outcome.used_cache or pointer.kind == "cache"
            if tr is not None:
                tr.decision(router=str(current), rule=pointer.trace_tag,
                            target=pointer.dest_id.to_hex(),
                            distance=match.distance)
            if pointer.n_hops == 0:
                # Zero-hop pointer: the target is hosted right here (but
                # was not an admissible local position, e.g. a non-member
                # in a scoped search) — adopt its position and re-decide.
                committed = None
                continue
        else:
            # Transit shortcut, gated by the BGP-like import rule.
            shortcut = node.best_match(net, greedy_dest, scope=scope,
                                       arrived_from=arrived_from,
                                       use_cache=use_cache)
            if shortcut is not None and shortcut.distance < committed_dist:
                if tr is not None:
                    tr.event("shortcut", router=str(current),
                             distance=shortcut.distance)
                committed = None
                continue

        next_as = committed.as_route[committed_step + 1]
        if not net.as_is_up(next_as):
            pointer = net.validate_pointer(node, committed, from_as=current)
            if tr is not None:
                tr.event("repair", router=str(current),
                         target=committed.dest_id.to_hex(),
                         repaired=pointer is not None)
            if pointer is None:
                committed = None
                committed_dist = space.size
                continue
            committed = pointer
            committed_step = 0
            next_as = committed.as_route[1]
        perf.counter("inter.fwd.hops")
        if net.policy.step_type(current, next_as) == "peer":
            outcome.crossed_peer = True
        outcome.as_path.append(next_as)
        if tr is not None:
            tr.hop(frm=str(current), to=str(next_as))
        arrived_from = current
        current = next_as
        committed_step += 1

    else:
        outcome.reason = "pointer hop limit exceeded (routing loop?)"

    outcome.delivered = False
    net.stats.charge_path(outcome.as_path, category)
    if tr is not None:
        tr.end(delivered=False, reason=outcome.reason, router=str(current))
        trace.close_span(tr)
    return outcome


def effective_successor(net: "InterDomainNetwork", vn: InterVirtualNode,
                        level: Hashable) -> Optional[ASPointer]:
    """The ID ``vn`` points to next within ``level``'s merged ring: the
    closest target among its successor pointers at levels contained in
    ``level`` (condition (b) of Section 4.1 means the pointer may be
    stored at an inner level)."""
    best: Optional[ASPointer] = None
    best_dist = None
    mask = net.space.mask
    own_iv = vn.id.value
    for lvl, ptr in vn.succ_by_level.items():
        if lvl is not None and not net.policy.level_contained_in(lvl, level):
            continue
        dist = (ptr.dest_id.value - own_iv) & mask
        if best_dist is None or dist < best_dist:
            best, best_dist = ptr, dist
    return best


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
