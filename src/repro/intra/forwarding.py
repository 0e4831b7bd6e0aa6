"""Greedy packet forwarding — Algorithm 2 of the paper.

"When a router forwards a packet, it selects the closest ID it knows
about to the destination ID … The router maintains a list of resident
virtual nodes (VN) … Before forwarding the packet, the router first
checks its pointer cache (PC) for an entry that is closer to the
destination than the value stored in next_hop_vn."

The same engine serves two modes:

* ``data`` — deliver to the destination ID's hosting router; fails only
  if the ID does not exist (or the ring is inconsistent).
* ``lookup`` — a control message routed toward an ID's *predecessor*
  (greedy toward ``id − 1``); this is the primitive joins are built on.

Packets move one physical hop at a time along the committed pointer's
source route; every router traversed re-evaluates Algorithm 2 and may
shortcut onto a numerically closer pointer from its own cache — the
mechanism behind Fig 6a's stretch-vs-cache-size curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.idspace.identifier import FlatId
from repro.intra.virtualnode import Pointer, VirtualNode
from repro.obs import trace
from repro.util import perf

if TYPE_CHECKING:  # pragma: no cover
    from repro.intra.network import IntraDomainNetwork

#: Safety valve: a correct ring routes in O(ring size) pointer hops; any
#: packet exceeding this many pointer commits indicates a protocol bug.
MAX_POINTER_HOPS = 4096


@dataclass
class ForwardingOutcome:
    """What happened to one routed packet (or control lookup)."""

    delivered: bool
    reason: str
    path: List[str] = field(default_factory=list)
    pointer_hops: int = 0
    used_cache: bool = False
    final_vn: Optional[VirtualNode] = None
    latency_ms: float = 0.0

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)


def route(
    net: "IntraDomainNetwork",
    start_router: str,
    dest_id: FlatId,
    mode: str = "data",
    category: str = "data",
) -> ForwardingOutcome:
    """Route a packet (or control lookup) greedily from ``start_router``.

    Returns a :class:`ForwardingOutcome`; in ``lookup`` mode a *delivered*
    outcome carries the predecessor virtual node in ``final_vn``.
    """
    if mode not in ("data", "lookup"):
        raise ValueError("unknown mode {!r}".format(mode))
    with perf.timed("intra.route." + mode):
        return _route(net, start_router, dest_id, mode, category)


def _route(net, start_router, dest_id, mode, category):
    """The walk: one :meth:`RoflRouter.best_match` per router crossed and
    otherwise only locals — the routers, the live adjacency and the
    committed pointer's source route are bound once, not re-fetched per
    hop.  A cache win is committed as its target int and route; a
    :class:`Pointer` is built for it only on the NACK, repair and
    revalidation branches."""
    tr = trace.packet_span("intra.packet", start=start_router,
                           dest=dest_id.to_hex(),
                           mode=mode) if trace.ENABLED else None
    data = mode == "data"   # doubles as Algorithm 2's ``include_ephemeral``
    routers = net.routers
    adj = net.lsmap.adjacency
    space = net.space
    infinity = space.size  # any real candidate beats it
    dest_iv = dest_id.value
    # Lookups aim at the spot just before the target so greedy routing
    # converges on the target's predecessor even if the target exists.
    greedy_dest = dest_id if data else space.make(dest_iv - 1)

    current = start_router
    path = [start_router]
    delivered, reason, final_vn = False, "in-flight", None
    pointer_hops, used_cache, latency_ms = 0, False, 0.0
    # The committed target's ID int, and its ring pointer (``None`` while
    # the commitment is a cache entry's route).
    committed: Optional[int] = None
    held: Optional[Pointer] = None
    committed_dist = infinity
    source_route, hosting, step = (), None, 0   # of the commitment
    # The commitment a shortcut interrupted, until the shortcut commits.
    resume = None

    try:
        while pointer_hops <= MAX_POINTER_HOPS:
            router = routers[current]
            resident = router.resident

            if data and dest_iv in resident:
                delivered, reason = True, "delivered"
                final_vn = resident[dest_iv]
                break

            if committed is not None and current != hosting:
                # Mid-source-route routers may shortcut onto a strictly
                # closer cached pointer (Section 4.1, "shortcuts if it
                # observes a cached pointer is numerically closer").
                closer = router.best_match(greedy_dest, data, committed_dist)
                if closer is not None:
                    if tr is not None:
                        tr.event("shortcut", router=current, distance=closer)
                    resume = committed, held, source_route, step, hosting
                    committed = None
                    continue
            elif committed is not None and committed not in resident:
                # NACK: the source route was live but its target ID is not
                # here — a stale pointer beyond the teardown/move
                # notification window.  Invariant (b) is enforced lazily: if
                # the ID now lives where the owner can reach (host moved),
                # the owner re-routes its pointer; if it is gone or cut off
                # from the owner, the owner deletes it.  Either way, routing
                # restarts from this router.
                stale = held if held is not None \
                    else _cache_pointer(space, committed, source_route)
                owner = routers.get(source_route[0])
                new_path = None
                if net.id_is_live(stale.dest_id):
                    new_path = net.paths.hop_path(
                        source_route[0], net.vn_index[stale.dest_id].router)
                if new_path is not None:
                    if owner is not None:
                        owner.reroute_pointer(
                            stale, stale.rerouted(tuple(new_path)))
                    action = "reroute"
                else:
                    if owner is not None:
                        owner.drop_pointer(stale)
                    router.cache.invalidate_id(stale.dest_id)
                    action = "teardown"
                if tr is not None:
                    tr.event("nack", router=current, action=action,
                             target=stale.dest_id.to_hex())
                committed = None
                committed_dist = infinity
                continue
            else:
                # Decision point: (re-)run Algorithm 2 at this router.
                match = router.best_match(greedy_dest, data)
                if resume is not None and (match is None
                                           or match.distance >= committed_dist):
                    # The shortcut's pointer was torn down and nothing
                    # left here beats the commitment it interrupted:
                    # carry on along that source route.
                    committed, held, source_route, step, hosting = resume
                    resume = None
                    continue
                if match is None:
                    reason = "no routing state"
                    break
                target, route, pointer, resident_vn, distance, ephemeral = \
                    match
                stalled = distance >= committed_dist
                if resident_vn is not None:
                    # The closest ID we know is resident right here.
                    if stalled and data:
                        reason = "destination ID not found"
                        break
                    if stalled or (not data and _overshoots_all(
                            net, resident_vn, greedy_dest)):
                        # Nothing committed, and nothing this VN points
                        # at, is closer: it is the destination's predecessor.
                        delivered, reason = True, "predecessor found"
                        final_vn = resident_vn
                        break
                    # Strictly closer than anything committed: adopt its
                    # position and re-evaluate (its successors are now
                    # candidates).
                    if tr is not None:
                        tr.decision(router=current, rule="local-adopt",
                                    target=resident_vn.id.to_hex(),
                                    distance=distance)
                    committed = resume = None
                    committed_dist = distance
                    continue
                if stalled:
                    reason = "no progress available"
                    break
                cached = pointer is None
                if not cached or not net.lsmap.path_is_live(route):
                    # A ring pointer, or a cache entry whose route died and
                    # is revalidated as the pointer it stands for: repaired,
                    # or torn down (then re-evaluate with it gone).
                    pointer = net.validate_pointer(
                        router, _cache_pointer(space, target, route)
                        if cached else pointer)
                    if pointer is None:
                        continue
                    route = pointer.path
                committed, held, resume = target, pointer, None
                source_route, step = route, 0
                hosting = route[-1]
                committed_dist = distance
                pointer_hops += 1
                used_cache = used_cache or cached
                if tr is not None:
                    tr.decision(router=current, rule="cache" if cached
                                else "ephemeral" if ephemeral
                                else "successor",
                                target=space.make(target).to_hex(),
                                distance=distance)
                if len(source_route) == 1:
                    # Zero-hop pointer: if the target ID is (still)
                    # resident at this very router, adopt its ring position
                    # and re-decide; if not, the pointer stays committed and
                    # the NACK branch above takes it on the next turn.
                    if target in resident:
                        committed = None
                    continue

            # Take one physical hop along the committed source route; link
            # state and latency both come from the one adjacency entry.
            next_router = source_route[step + 1]
            nbrs = adj.get(current)
            hop_ms = None if nbrs is None else nbrs.get(next_router)
            if hop_ms is None:
                # The route broke under us; repair from here or tear down.
                broken = held if held is not None \
                    else _cache_pointer(space, committed, source_route)
                held = net.validate_pointer(router, broken,
                                            from_router=current)
                if tr is not None:
                    tr.event("repair", router=current,
                             target=broken.dest_id.to_hex(),
                             repaired=held is not None)
                if held is None:
                    committed = None
                    committed_dist = infinity
                    continue
                source_route, step = held.path, 0
                hosting = source_route[-1]
                next_router = source_route[1]
                hop_ms = nbrs[next_router]
            latency_ms += hop_ms
            path.append(next_router)
            if tr is not None:
                tr.hop(frm=current, to=next_router)
            current = next_router
            step += 1
        else:
            reason = "pointer hop limit exceeded (routing loop?)"
    finally:
        if len(path) > 1:  # once per packet, whichever way the walk ends
            perf.counter("fwd.hops", len(path) - 1)

    net.stats.charge_path(path, category)
    if tr is not None:
        tr.end(delivered=delivered, reason=reason, router=current)
        trace.close_span(tr)
    return ForwardingOutcome(delivered, reason, path, pointer_hops,
                             used_cache, final_vn, latency_ms)


def _cache_pointer(space, target: int, route) -> Pointer:
    """A cache entry as the :class:`Pointer` it stands for, built only for
    the rare branches that hand a pointer on."""
    return Pointer(space.make(target), route)


def _overshoots_all(net: "IntraDomainNetwork", vn: VirtualNode,
                    greedy_dest: FlatId) -> bool:
    """True when none of ``vn``'s own pointers make further progress —
    i.e. ``vn`` is the greedy destination's predecessor."""
    mask = net.space.mask
    dest_iv = greedy_dest.value
    here = (dest_iv - vn.id.value) & mask
    for ptr in vn.successors:
        if ((dest_iv - ptr.dest_id.value) & mask) < here:
            return False
    return True
