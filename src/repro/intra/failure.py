"""Failure handling (paper Section 3.2).

Invariants maintained (quoting the paper): "(a) if there is a working
network-path between a pair of nodes (A, B), then ROFL ensures that A and
B are reachable from each other (b) if A has a pointer to B, and if either
B or the path to B fails, then A will delete its pointer."

* **Host failure** — the gateway detects a session timeout, sends
  teardowns to the ID's successors and predecessor, and a *directed
  flood* over the constrained set of routers that may hold cached state
  (the route record accumulated at join time); the ring repair around
  the gap is :func:`repro.intra.ring.splice_out`, shared with a graceful
  leave, after which the predecessor sets up its new primary and refills
  its group (:func:`repro.intra.ring.refill_successor_group`).
* **Router failure** — remote routers monitoring link-state advertisements
  delete pointers to IDs resident at unreachable routers, each live
  component heals into its own ring
  (:func:`repro.intra.partition.heal_components`), and the hosts re-home
  via the pre-agreed failover list and rejoin.
* **Link failure without partition** — no ring changes: "the network map
  will find alternate paths"; cached routes over the link are invalidated.
  A cut that does partition heals each side like a router crash, and the
  restore that reconnects them merges the rings like a PoP reconnect.
"""

from __future__ import annotations

from typing import Iterable, List, Set, TYPE_CHECKING

from repro.idspace.identifier import FlatId
from repro.intra.partition import heal_components, merge_rings
from repro.intra.ring import (join_internal, refill_successor_group,
                              splice_out)
from repro.intra.virtualnode import VirtualNode, traverses, uses_link

if TYPE_CHECKING:  # pragma: no cover
    from repro.intra.network import IntraDomainNetwork


def directed_flood_cost(net: "IntraDomainNetwork", origin: str,
                        targets: Iterable[str]) -> int:
    """Messages for a source-routed flood from ``origin`` covering
    ``targets``: the edge-union of shortest paths to each target (each
    tree edge carries the invalidation once)."""
    edges: Set[frozenset] = set()
    for target in targets:
        path = net.paths.hop_path(origin, target)
        if path is None:
            continue
        for a, b in zip(path, path[1:]):
            edges.add(frozenset((a, b)))
    return len(edges)


def host_failure(net: "IntraDomainNetwork", host_name: str) -> int:
    """Fail a host; returns the repair message count."""
    vn = net.hosts.pop(host_name, None)
    if vn is None:
        raise KeyError("unknown host {!r}".format(host_name))
    net.vn_index.pop(vn.id, None)
    net.host_records.pop(host_name, None)
    gateway = net.routers[vn.router]
    if gateway.hosts_id(vn.id):
        gateway.remove_virtual_node(vn.id)

    with net.stats.operation("host_failure", host=host_name) as op:
        if not vn.ephemeral:
            _teardown_stable(net, vn)
        # Ring repair around the gap; the predecessor then sets up a route
        # to its new primary and refills its group from the tail.
        pred_vn = splice_out(net, vn, "teardown")
        if pred_vn is not None:
            new_primary = pred_vn.primary_successor()
            if new_primary is not None:
                setup = net.paths.hop_path(pred_vn.router,
                                           new_primary.hosting_router)
                if setup is not None:
                    net.stats.charge_path(setup, "repair")
                    net.stats.charge_path(list(reversed(setup)), "repair")
            refill_successor_group(net, pred_vn)
        return op["messages"]


def _teardown_stable(net: "IntraDomainNetwork", vn: VirtualNode) -> None:
    """What a failure does before the ring repair, and a leave does not."""
    # (1) Teardowns to every successor-group member and to the chain of
    # predecessors that may hold this ID in *their* successor groups (the
    # paper: "tear-down messages to each of the ID's successors and
    # predecessors" — up to group-size nodes counter-clockwise).
    notified: Set[str] = set()
    predecessors: List[VirtualNode] = []
    walker = vn
    for _ in range(net.successor_group_size):
        if walker.predecessor is None:
            break
        prev = net.vn_index.get(walker.predecessor.dest_id)
        if prev is None or prev in predecessors or prev is vn:
            break
        predecessors.append(prev)
        walker = prev
    for hosting in [ptr.hosting_router for ptr in vn.successors] \
            + [prev.router for prev in predecessors]:
        if hosting in notified:
            continue
        notified.add(hosting)
        path = net.paths.hop_path(vn.router, hosting)
        if path is not None:
            net.stats.charge_path(path, "teardown")
    # Each notified predecessor drops the dead ID from its group.
    for prev in predecessors:
        if prev.drop_successor(vn.id):
            net.routers[prev.router].mark_dirty(prev)

    # (2) Directed flood invalidating cached pointers (constrained to the
    # route record + the shortest-path routers toward them).
    flood_targets = set(vn.cached_at) - {vn.router}
    cost = directed_flood_cost(net, vn.router, flood_targets)
    net.stats.charge_hops(cost, "teardown")
    # Every router drops the dead ID: the flood targets, and the caches the
    # route record missed (e.g. seeded by other hosts' control traffic)
    # once the link-state layer reports the hosting router's session gone.
    for router in net.routers.values():
        router.cache.invalidate_id(vn.id)


def router_failure(net: "IntraDomainNetwork", router_name: str) -> int:
    """Fail a router: its resident hosts re-home and rejoin; the rest of
    the network deletes and repairs pointers through/to it.  Returns the
    total repair message count (rejoins included)."""
    if router_name not in net.routers:
        raise KeyError("unknown router {!r}".format(router_name))
    failed = net.routers[router_name]
    net.lsmap.fail_router(router_name)

    with net.stats.operation("router_failure", router=router_name) as op:
        # Remote state referencing the dead router goes first (LSA-driven,
        # no protocol messages: "routers also monitor link-state
        # advertisements and delete pointers to IDs residing at
        # unreachable routers").
        resident_ids = set(failed.vn_table.keys())
        net.vn_index.pop(failed.default_vn.id, None)
        purge_pointers_via(net, router_name, resident_ids)

        # Resident hosts re-home deterministically and rejoin.
        moved: List[VirtualNode] = [vn for vn in failed.vn_table.values()
                                    if not vn.is_default]
        for vn in moved:
            net.vn_index.pop(vn.id, None)
            if vn.host_name is not None:
                net.hosts.pop(vn.host_name, None)
        # Re-splice the ring per connected component (the crash may have
        # partitioned the network), then rejoin hosts via their failover
        # routers.
        heal_components(net)
        for vn in moved:
            record = net.host_records.get(vn.host_name)
            if record is None:
                continue
            target = net.failover_router(router_name, vn.host_name)
            if target is None:
                continue
            join_internal(net, record, via_router=target)
        return op["messages"]


def purge_pointers_via(net: "IntraDomainNetwork", dead_router: str,
                       dead_ids: Set[FlatId]) -> int:
    """Drop every pointer that traverses ``dead_router`` or targets an ID
    that was resident there.  Local operation (LSA-driven), free."""
    dropped = 0
    dead_ivs = {flat_id.value for flat_id in dead_ids}
    for router in net.routers.values():
        if router.name == dead_router:
            continue
        dropped += router.cache.invalidate_where(
            lambda iv, route: traverses(route, dead_router) or iv in dead_ivs)
        for vn in router.vn_table.values():
            before = len(vn.successors)
            vn.successors = [p for p in vn.successors
                             if not traverses(p.path, dead_router)
                             and p.dest_id not in dead_ids]
            if len(vn.successors) != before:
                router.mark_dirty(vn)
                dropped += before - len(vn.successors)
            doomed = [eid for eid, p in vn.ephemeral_children.items()
                      if traverses(p.path, dead_router) or eid in dead_ids]
            for eid in doomed:
                del vn.ephemeral_children[eid]
                router.mark_dirty(vn)
                dropped += 1
            if (vn.predecessor is not None
                    and (traverses(vn.predecessor.path, dead_router)
                         or vn.predecessor.dest_id in dead_ids)):
                vn.predecessor = None
                dropped += 1
    return dropped


def link_failure(net: "IntraDomainNetwork", a: str, b: str) -> int:
    """Fail one link.  No ring changes while the map stays connected —
    "the router need not make any changes on behalf of its resident IDs
    since the network map will find alternate paths" — but cached pointers
    over the link are invalidated.  A cut that splits the map heals each
    side into its own ring, as a router crash does.  Returns the number of
    cache entries dropped."""
    cut = net.lsmap.is_link_up(a, b)
    net.lsmap.fail_link(a, b)
    dropped = 0
    for router in net.routers.values():
        dropped += router.cache.invalidate_where(
            lambda iv, route: uses_link(route, a, b))
    if cut and not net.lsmap.reachable(a, b):
        heal_components(net)
    return dropped


def link_restore(net: "IntraDomainNetwork", a: str, b: str) -> None:
    """Restore one link.  A restore that joins two components merges the
    smaller one's ring into the other's, as a PoP reconnect does."""
    sides = [component for component in net.lsmap.components()
             if a in component or b in component]
    net.lsmap.restore_link(a, b)
    if len(sides) == 2 and net.lsmap.is_link_up(a, b):
        merge_rings(net, min(sides, key=len))
