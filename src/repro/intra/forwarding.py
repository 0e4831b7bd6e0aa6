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
    perf.counter("fwd.packets")
    with perf.timed("intra.route." + mode):
        return _route(net, start_router, dest_id, mode, category)


def _route(net, start_router, dest_id, mode, category):
    tr = trace.packet_span("intra.packet", start=start_router,
                           dest=dest_id.to_hex(),
                           mode=mode) if trace.ENABLED else None
    space = net.space
    include_ephemeral = mode == "data"
    # Lookups aim at the spot just before the target so greedy routing
    # converges on the target's predecessor even if the target exists.
    greedy_dest = dest_id if mode == "data" else space.make(dest_id.value - 1)

    current = start_router
    outcome = ForwardingOutcome(delivered=False, reason="in-flight",
                                path=[start_router])
    committed: Optional[Pointer] = None
    committed_step = 0
    committed_dist = space.size  # +infinity: any real candidate beats it

    while outcome.pointer_hops <= MAX_POINTER_HOPS:
        router = net.routers[current]

        if mode == "data" and router.hosts_id(dest_id):
            outcome.delivered = True
            outcome.reason = "delivered"
            outcome.final_vn = router.vn_table[dest_id]
            net.stats.charge_path(outcome.path, category)
            if tr is not None:
                tr.end(delivered=True, reason="delivered", router=current)
                trace.close_span(tr)
            return outcome

        if committed is not None and current == committed.hosting_router \
                and not router.hosts_id(committed.dest_id):
            # NACK: the source route was live but its target ID is not
            # here — a stale pointer beyond the teardown/move notification
            # window.  Invariant (b) is enforced lazily: if the ID now
            # lives elsewhere (host moved), the owner re-routes its
            # pointer; if it is gone, the owner deletes it.  Either way,
            # routing restarts from this router.
            owner = net.routers.get(committed.path[0])
            target_vn = net.vn_index.get(committed.dest_id)
            if (target_vn is not None
                    and net.lsmap.is_router_up(target_vn.router)
                    and net.routers[target_vn.router].hosts_id(committed.dest_id)):
                new_path = net.paths.hop_path(committed.path[0],
                                              target_vn.router)
                if owner is not None and new_path is not None:
                    owner.reroute_pointer(committed,
                                          committed.rerouted(tuple(new_path)))
                if tr is not None:
                    tr.event("nack", router=current, action="reroute",
                             target=committed.dest_id.to_hex())
            else:
                if owner is not None:
                    owner.drop_pointer(committed)
                router.cache.invalidate_id(committed.dest_id)
                if tr is not None:
                    tr.event("nack", router=current, action="teardown",
                             target=committed.dest_id.to_hex())
            committed = None
            committed_dist = space.size
            continue

        if committed is None or current == committed.hosting_router:
            # Decision point: (re-)run Algorithm 2 at this router.
            match = router.best_match(greedy_dest,
                                      include_ephemeral=include_ephemeral)
            if match is None:
                outcome.reason = "no routing state"
                break
            if match.distance >= committed_dist and match.is_local:
                # The closest ID we know is resident right here: this VN is
                # the destination's predecessor.
                if mode == "lookup":
                    outcome.delivered = True
                    outcome.reason = "predecessor found"
                    outcome.final_vn = match.resident_vn
                    net.stats.charge_path(outcome.path, category)
                    if tr is not None:
                        tr.end(delivered=True, reason="predecessor found",
                               router=current)
                        trace.close_span(tr)
                    return outcome
                outcome.reason = "destination ID not found"
                break
            if match.distance >= committed_dist:
                outcome.reason = "no progress available"
                break
            if match.is_local:
                # A resident ID strictly closer than anything committed:
                # adopt its position and re-evaluate (its successors are
                # now candidates).
                if mode == "lookup" and _overshoots_all(net, match.resident_vn,
                                                        greedy_dest):
                    outcome.delivered = True
                    outcome.reason = "predecessor found"
                    outcome.final_vn = match.resident_vn
                    net.stats.charge_path(outcome.path, category)
                    if tr is not None:
                        tr.end(delivered=True, reason="predecessor found",
                               router=current)
                        trace.close_span(tr)
                    return outcome
                if tr is not None:
                    tr.decision(router=current, rule="local-adopt",
                                target=match.resident_vn.id.to_hex(),
                                distance=match.distance)
                committed = None
                committed_dist = match.distance
                continue
            pointer = net.validate_pointer(router, match.pointer)
            if pointer is None:
                # Stale source route with unreachable target: the pointer
                # was torn down; re-evaluate with it gone.
                continue
            committed = pointer
            committed_step = 0
            committed_dist = match.distance
            outcome.pointer_hops += 1
            outcome.used_cache = outcome.used_cache or pointer.kind == "cache"
            if tr is not None:
                tr.decision(router=current, rule=pointer.kind,
                            target=pointer.dest_id.to_hex(),
                            distance=match.distance)
            if pointer.n_hops == 0:
                # Zero-hop pointer: the target ID is resident at this very
                # router — adopt its ring position and re-decide locally.
                committed = None
                continue
        else:
            # Mid-source-route routers may shortcut onto a strictly closer
            # cached pointer (Section 4.1, "shortcuts if it observes a
            # cached pointer is numerically closer").
            shortcut = router.best_match(greedy_dest,
                                         include_ephemeral=include_ephemeral)
            if shortcut is not None and shortcut.distance < committed_dist:
                if tr is not None:
                    tr.event("shortcut", router=current,
                             distance=shortcut.distance)
                committed = None
                continue

        # Take one physical hop along the committed source route.
        next_router = committed.path[committed_step + 1]
        if not net.lsmap.is_link_up(current, next_router):
            # The route broke under us; repair from here or tear down.
            pointer = net.validate_pointer(router, committed, from_router=current)
            if tr is not None:
                tr.event("repair", router=current,
                         target=committed.dest_id.to_hex(),
                         repaired=pointer is not None)
            if pointer is None:
                committed = None
                committed_dist = space.size
                continue
            committed = pointer
            committed_step = 0
            next_router = committed.path[1]
        perf.counter("fwd.hops")
        outcome.latency_ms += net.lsmap.live_graph.edges[current, next_router]["latency_ms"]
        outcome.path.append(next_router)
        if tr is not None:
            tr.hop(frm=current, to=next_router)
        current = next_router
        committed_step += 1

    else:
        outcome.reason = "pointer hop limit exceeded (routing loop?)"

    outcome.delivered = False
    net.stats.charge_path(outcome.path, category)
    if tr is not None:
        tr.end(delivered=False, reason=outcome.reason, router=current)
        trace.close_span(tr)
    return outcome


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
