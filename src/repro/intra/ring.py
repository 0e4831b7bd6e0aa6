"""Ring construction and maintenance — Algorithm 1 and Section 3.1.

A join is four conceptual message exchanges, each ~one network traversal
(the paper: "ROFL's join overhead is roughly four messages times the
diameter of the network since only successors need to be notified"):

1. the join request, greedily routed to the joining ID's predecessor;
2. the response carrying the predecessor's successor group back;
3. the path-setup to the new immediate successor;
4. the successor's acknowledgement (which installs its new predecessor
   pointer).

Routers along the response and setup paths cache pointers to the IDs the
messages name ("whenever a source route is established, the routers along
the path can cache the route"), and each cached location is recorded on
the target virtual node — the route record later used to direct
invalidation floods on host failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.idspace.crypto import authenticate
from repro.idspace.identifier import FlatId
from repro.intra import forwarding
from repro.intra.virtualnode import Pointer, VirtualNode
from repro.topology.hosts import PlannedHost
from repro.util import perf

if TYPE_CHECKING:  # pragma: no cover
    from repro.intra.network import IntraDomainNetwork


class JoinError(Exception):
    """The join could not complete (unreachable ring, duplicate ID, …)."""


@dataclass
class JoinReceipt:
    """Everything the experiments measure about one completed join."""

    host_name: str
    flat_id: FlatId
    router: str
    messages: int
    latency_ms: float
    ephemeral: bool = False


def join_internal(net: "IntraDomainNetwork", host: PlannedHost,
                  via_router: Optional[str] = None) -> JoinReceipt:
    """Execute Algorithm 1 for ``host`` at its gateway router."""
    router_name = via_router or host.attach_at
    if not net.lsmap.is_router_up(router_name):
        raise JoinError("gateway router {} is down".format(router_name))
    router = net.routers[router_name]

    # Line 1: authenticate(id) — the host proves it holds the private key
    # whose public half hashes to the claimed identifier.
    challenge = "challenge:{}:{}".format(router_name, host.name).encode("utf-8")
    proof = host.key_pair.prove_ownership(challenge)
    flat_id = authenticate(proof, net.authority)
    if flat_id in net.vn_index:
        raise JoinError("ID {} already resident in this domain".format(flat_id))

    return join_with_id(net, flat_id, router_name, host.name,
                        ephemeral=host.ephemeral)


def join_with_id(net: "IntraDomainNetwork", flat_id: FlatId,
                 router_name: str, name: str,
                 ephemeral: bool = False) -> JoinReceipt:
    """Join an already-authenticated identifier at a gateway router.

    This is the entry point the Section 5 services use for group
    identifiers ``(G, x)``: "an ID can be held by multiple boxes (which is
    how we will implement anycast and multicast)" — members of a group
    authenticate with the group's shared key pair, so the per-host
    hash-of-public-key check of :func:`join_internal` does not apply.
    """
    if flat_id in net.vn_index:
        raise JoinError("ID {} already resident in this domain".format(flat_id))
    router = net.routers[router_name]
    vn = VirtualNode(id=flat_id, router=router_name, host_name=name,
                     ephemeral=ephemeral)

    with perf.timed("intra.join"), \
            net.stats.operation("join", host=name) as op:
        if ephemeral:
            latency = _join_ephemeral(net, router, vn)
        else:
            latency = _join_stable(net, router, vn)
        messages = op["messages"]

    net.vn_index[vn.id] = vn
    net.hosts[name] = vn
    return JoinReceipt(host_name=name, flat_id=vn.id, router=router_name,
                       messages=messages, latency_ms=latency,
                       ephemeral=ephemeral)


def _join_stable(net: "IntraDomainNetwork", router, vn: VirtualNode) -> float:
    """The stable-host join: splice ``vn`` between pred and pred's successor."""
    # (1) Join request: greedy control route toward the joining ID.
    lookup = forwarding.route(net, router.name, vn.id, mode="lookup",
                              category="join")
    if not lookup.delivered or lookup.final_vn is None:
        raise JoinError("predecessor lookup failed: " + lookup.reason)
    pred = lookup.final_vn
    latency = lookup.latency_ms

    # (2) Response: predecessor → joining router, carrying the successor
    # group (IDs + hosting routers).
    response_path = net.paths.hop_path(pred.router, router.name)
    if response_path is None:
        raise JoinError("predecessor unreachable for response")
    net.stats.charge_path(response_path, "join")
    latency += net.paths.path_latency_ms(response_path)
    _fill_caches(net, response_path,
                 [vn.id, pred.id] + pred.successor_ids())
    # The request travelled toward the predecessor greedily; routers it
    # crossed may cache the predecessor it resolved to.
    _fill_caches(net, lookup.path, [pred.id])

    # The new node inherits the predecessor's successor group; the
    # predecessor's group shifts down behind the new node (Section 2.2 /
    # Algorithm 1 lines 6–7, generalised to successor groups).
    inherited = routes_from(net, router.name, pred.successors)
    if not inherited:
        # Single-node ring: the predecessor becomes the successor too.
        back = net.paths.hop_path(router.name, pred.router)
        inherited = [Pointer(pred.id, tuple(back))]
    # (3) Path setup to the immediate successor, and (4) its ack.
    setup_path = splice_in(net, pred, vn, inherited, "join")
    if setup_path is not None:
        latency += 2 * net.paths.path_latency_ms(setup_path)
        _fill_caches(net, setup_path, [vn.primary_successor().dest_id])
        _fill_caches(net, list(reversed(setup_path)), [vn.id])
    router.register_virtual_node(vn)
    # Request and response are sequential; the setup/ack exchange follows.
    return latency


def _join_ephemeral(net: "IntraDomainNetwork", router, vn: VirtualNode) -> float:
    """Section 2.2: ephemeral hosts "merely establish a path between
    themselves and their predecessor"; they never enter the ring."""
    lookup = forwarding.route(net, router.name, vn.id, mode="lookup",
                              category="join")
    if not lookup.delivered or lookup.final_vn is None:
        raise JoinError("predecessor lookup failed: " + lookup.reason)
    pred = lookup.final_vn
    latency = lookup.latency_ms

    back_path = net.paths.hop_path(pred.router, router.name)
    if back_path is None:
        raise JoinError("predecessor unreachable for ephemeral setup")
    net.stats.charge_path(back_path, "join")
    latency += net.paths.path_latency_ms(back_path)

    pred.ephemeral_children[vn.id] = Pointer(vn.id, tuple(back_path))
    net.routers[pred.router].mark_dirty(pred)
    vn.predecessor = Pointer(
        pred.id, tuple(net.paths.hop_path(router.name, pred.router)))
    router.register_virtual_node(vn)
    return latency


def splice_out(net: "IntraDomainNetwork", vn: VirtualNode,
               category: str) -> Optional[VirtualNode]:
    """The ring repair around a departing ``vn`` — the one way out, for a
    graceful leave (``category`` ``"leave"``) and a host failure
    (``"teardown"``) alike; what the two say to whom beforehand, and what
    a failure does afterwards, stays with the caller.

    The departing node's (accurate) successor list reaches its
    predecessor, which merges it with its own group — possibly stale:
    nodes that joined between ``vn`` and the predecessor's older entries
    are known only to ``vn`` — adopts ``vn``'s orphaned ephemeral
    children, and becomes the predecessor of ``vn``'s successor.  An
    ephemeral ``vn`` only has state at its ring predecessor.  Returns the
    predecessor whose group was re-spliced, if any.

    A leaver is still in ``vn_index`` while it says goodbye, a failed
    host is not: hence the ``is not vn`` guards.
    """
    pred_vn = (net.vn_index.get(vn.predecessor.dest_id)
               if vn.predecessor is not None else None)
    if vn.ephemeral:
        if vn.predecessor is not None:
            path = net.paths.hop_path(vn.router,
                                      vn.predecessor.hosting_router)
            if path is not None:
                net.stats.charge_path(path, category)
        if pred_vn is not None and vn.id in pred_vn.ephemeral_children:
            del pred_vn.ephemeral_children[vn.id]
            net.routers[pred_vn.router].mark_dirty(pred_vn)
        return None

    succ_ptr = vn.primary_successor()
    succ_vn = net.vn_index.get(succ_ptr.dest_id) if succ_ptr else None
    spliced = pred_vn is not None and pred_vn is not vn
    if spliced:
        router = net.routers[pred_vn.router]
        if pred_vn.drop_successor(vn.id):
            router.mark_dirty(pred_vn)
        merged = [p for p in pred_vn.successors if net.id_is_live(p.dest_id)]
        merged += routes_from(net, pred_vn.router, vn.successors,
                              skip=(pred_vn.id,))
        merged.sort(key=lambda p: net.space.distance_cw(pred_vn.id, p.dest_id))
        pred_vn.set_successors(merged, net.successor_group_size)
        router.mark_dirty(pred_vn)
        # Orphaned ephemeral children re-home to the predecessor.
        _adopt_children(net, pred_vn, vn.ephemeral_children, category)

    if succ_vn is not None and pred_vn is not None and succ_vn is not vn \
            and succ_vn is not pred_vn:
        if succ_vn.predecessor is None or succ_vn.predecessor.dest_id == vn.id:
            path = net.paths.hop_path(succ_vn.router, pred_vn.router)
            if path is not None:
                succ_vn.predecessor = Pointer(pred_vn.id, tuple(path))
    elif succ_vn is not None and succ_vn is pred_vn:
        # Two-node ring collapsing to one.
        succ_vn.drop_successor(vn.id)
        if succ_vn.predecessor is not None and succ_vn.predecessor.dest_id == vn.id:
            succ_vn.predecessor = None
        net.routers[succ_vn.router].mark_dirty(succ_vn)
    return pred_vn if spliced else None


def splice_in(net: "IntraDomainNetwork", pred: VirtualNode,
              vn: VirtualNode, inherited: List[Pointer],
              category: str) -> Optional[List[str]]:
    """Insert ``vn`` after ``pred`` — the one way in, for a host join
    (``category`` ``"join"``) and a zero-ID rejoin after a partition
    (``"repair"``) alike, the mirror of :func:`splice_out`; the lookup and
    the response that brought ``inherited`` (``pred``'s group, re-routed
    from ``vn``) stay with the caller.

    ``vn`` takes ``inherited`` as its successor group; a setup and its ack
    go to the new primary, which learns its new predecessor; ``pred``
    re-points at ``vn``; the children parked at ``pred`` that now lie past
    ``vn`` move to it, charged as :func:`splice_out` charges an adoption.
    With nothing inherited, ``vn`` keeps its group and no setup goes out.
    Returns the setup path, if any.  ``vn``'s own router index is the
    caller's to refresh.
    """
    setup = None
    if inherited:
        vn.set_successors(inherited, net.successor_group_size)
        primary = vn.primary_successor()
        setup = net.paths.hop_path(vn.router, primary.hosting_router)
        if setup is not None:
            net.stats.charge_path(setup, category)                  # setup
            net.stats.charge_path(list(reversed(setup)), category)  # ack
        succ_vn = net.vn_index.get(primary.dest_id)
        if succ_vn is not None and not succ_vn.ephemeral:
            back = net.paths.hop_path(succ_vn.router, vn.router)
            if back is not None:
                # No candidate index holds a predecessor: nothing to mark.
                succ_vn.predecessor = Pointer(vn.id, tuple(back))
    # ``pred`` already has the request in hand, so no further messages: it
    # installs its pointer to the new node.
    pred.push_successor(
        Pointer(vn.id, tuple(net.paths.hop_path(pred.router, vn.router))),
        net.successor_group_size)
    vn.predecessor = Pointer(
        pred.id, tuple(net.paths.hop_path(vn.router, pred.router)))
    # Children parked at ``pred`` that now lie past ``vn`` move to it.
    space, reach = net.space, net.space.distance_cw(pred.id, vn.id)
    past = [eph_id for eph_id in pred.ephemeral_children
            if space.distance_cw(pred.id, eph_id) > reach]
    _adopt_children(net, vn, past, category)
    for eph_id in past:
        if eph_id in vn.ephemeral_children:
            del pred.ephemeral_children[eph_id]
    net.routers[pred.router].mark_dirty(pred)
    return setup


def _adopt_children(net: "IntraDomainNetwork", parent: VirtualNode,
                    eph_ids, category: str) -> None:
    """``parent`` becomes the ring predecessor of the parked ephemeral IDs
    ``eph_ids``: a charged setup to each reachable one, which learns its
    new predecessor."""
    for eph_id in eph_ids:
        eph_vn = net.vn_index.get(eph_id)
        if eph_vn is None:
            continue
        path = net.paths.hop_path(parent.router, eph_vn.router)
        if path is None:
            continue
        net.stats.charge_path(path, category)
        parent.ephemeral_children[eph_id] = Pointer(eph_id, tuple(path))
        back = net.paths.hop_path(eph_vn.router, parent.router)
        if back is not None:
            eph_vn.predecessor = Pointer(parent.id, tuple(back))
        net.routers[parent.router].mark_dirty(parent)


def routes_from(net: "IntraDomainNetwork", router: str,
                pointers: Sequence[Pointer], skip=()) -> List[Pointer]:
    """The live targets of another node's successor list (bar ``skip``),
    each re-routed from ``router``: what a node inherits, merges or refills
    from a neighbour's group.  A dead target models the NACK of its
    hosting router; an unreachable one is left out."""
    routes: List[Pointer] = []
    for ptr in pointers:
        if ptr.dest_id in skip or not net.id_is_live(ptr.dest_id):
            continue
        path = net.paths.hop_path(router, ptr.hosting_router)
        if path is not None:
            routes.append(Pointer(ptr.dest_id, tuple(path)))
    return routes


def refill_successor_group(net: "IntraDomainNetwork", vn: VirtualNode) -> None:
    """Extend a shrunken successor group from its tail.

    The paper (Section 3.2): the node "tries asking each of its successors
    S_i starting at the one furthest away to fill the gap at the end of
    its successor list".  Each ask/answer pair is charged.
    """
    size = net.successor_group_size
    for _ in range(16):
        if not vn.successors or len(vn.successors) >= size:
            return
        tail_vn = net.vn_index.get(vn.successors[-1].dest_id)
        if tail_vn is None or tail_vn.ephemeral:
            return
        ask_path = net.paths.hop_path(vn.router, tail_vn.router)
        if ask_path is None:
            return
        net.stats.charge_path(ask_path, "repair")
        net.stats.charge_path(list(reversed(ask_path)), "repair")
        before = len(vn.successors)
        vn.set_successors(
            vn.successors + routes_from(net, vn.router, tail_vn.successors),
            size)
        net.routers[vn.router].mark_dirty(vn)
        if len(vn.successors) == before:
            return


def _fill_caches(net: "IntraDomainNetwork", path: Sequence[str],
                 ids: List[FlatId]) -> None:
    """Populate pointer caches along a control path.

    For each ID named by the control message, every router on the path
    caches a source route toward that ID's hosting router — using the
    suffix of the control path when the hosting router lies ahead, which
    is "contents available from control packets" only (Section 6.1).
    A zero-capacity cache is never filled, so no route record names it.
    """
    routers = net.routers
    if not routers[path[0]].cache.capacity:
        return
    for target in ids:
        vn = net.vn_index.get(target)
        if vn is None:
            continue
        # Where the hosting router sits on the control path (a greedy
        # lookup path may revisit it); ``passed`` counts those behind us.
        at = [j for j, name in enumerate(path) if name == vn.router]
        if not at:
            continue
        passed = 0
        iv = target.value
        for i, router_name in enumerate(path):
            if router_name == vn.router:
                passed += 1
            else:
                # Its first occurrence ahead, else the nearest one behind
                # (the message came from there: reversed prefix).  The
                # cache keeps its own interned copy of the route.
                route = path[i:at[passed] + 1] if passed < len(at) \
                    else reversed(path[at[-1]:i + 1])
                routers[router_name].cache.put(iv, tuple(route))
                vn.cached_at.add(router_name)


def bootstrap_router_ring(net: "IntraDomainNetwork") -> None:
    """Bring up every router's default virtual node as one consistent ring.

    The paper bootstraps the first resident ID of a router by flooding the
    router-ID (Section 3.1); we charge that flood per router under the
    ``bootstrap`` category and install the resulting ring pointers
    directly (sorted router-IDs with shortest-path source routes).
    """
    from repro.linkstate.protocol import flood_message_cost

    default_vns = sorted((r.default_vn for r in net.routers.values()),
                         key=lambda vn: vn.id)
    for vn in default_vns:
        net.vn_index[vn.id] = vn
        net.stats.charge_hops(flood_message_cost(net.lsmap, vn.router),
                              "bootstrap")
    refresh_ring_pointers(net)


def refresh_ring_pointers(net: "IntraDomainNetwork") -> None:
    """(Re)install successor groups and predecessors from the live global
    membership — the steady state Chord-style stabilisation converges to.

    Used by bootstrap and by tests that need a known-consistent ring; the
    protocol paths (join/failure/partition) maintain the same state
    incrementally.
    """
    members = net.ring_members()
    if not members:
        return
    ordered = sorted(members, key=lambda vn: vn.id)
    n = len(ordered)
    for i, vn in enumerate(ordered):
        group: List[Pointer] = []
        for k in range(1, min(net.successor_group_size, n - 1) + 1):
            succ = ordered[(i + k) % n]
            path = net.paths.hop_path(vn.router, succ.router)
            if path is None:
                continue
            group.append(Pointer(succ.id, tuple(path)))
        vn.set_successors(group, net.successor_group_size)
        pred = ordered[(i - 1) % n]
        if pred.id != vn.id:
            path = net.paths.hop_path(vn.router, pred.router)
            if path is not None:
                vn.predecessor = Pointer(pred.id, tuple(path))
        net.routers[vn.router].mark_dirty(vn)
