"""Partition detection and ring-merge recovery (paper Section 3.2, Fig 7).

"Certain sequences of failure events could cause the successor ring to
partition into multiple pieces, even if the underlying network is
connected. To prevent this, routers continuously distribute routes to a
small set of stable identifiers [the zero-ID] … then execute a
partition-repair protocol that ensures network state converges correctly
into a single ring."

The Fig 7 workload disconnects a whole PoP (cutting every link between the
PoP and the rest of the ISP), lets each side's ring heal into a separate
consistent namespace, reconnects, and measures the zero-ID-driven merge.
Zero-ID advertisements themselves are piggybacked on link-state floods
("in practice, the zero node advertisements are piggybacked on link-state
advertisements") and therefore charged as zero additional messages; the
repair traffic (teardowns, gap-filling lookups, pointer setups) is charged
in full.

Both halves work per live component, from one walk
(:meth:`~repro.intra.network.IntraDomainNetwork.ring_components`), and end
in the one loop that turns a component's sorted members into its ring,
:func:`_close_ring`.  The heal shifts successor groups past what the
component lost, detaches ephemeral children stranded across the cut,
closes the ring and refills the groups from their tails
(:func:`repro.intra.ring.refill_successor_group`); a member left alone in
its component keeps what it parked.  The merge splices each rejoining ID
in after the predecessor its lookup finds — :func:`repro.intra.ring.splice_in`,
the one way into the ring a host join takes too — and then closes the ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Set, Tuple, TYPE_CHECKING

from repro.intra import forwarding
from repro.intra.ring import refill_successor_group, routes_from, splice_in
from repro.intra.virtualnode import Pointer, VirtualNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.intra.network import IntraDomainNetwork


@dataclass
class PartitionReport:
    """Measurements from one disconnect/reconnect cycle."""

    pop: Hashable
    cut_links: List[Tuple[str, str]]
    ids_in_pop: int
    disconnect_messages: int
    reconnect_messages: int

    @property
    def total_messages(self) -> int:
        return self.disconnect_messages + self.reconnect_messages


def pop_boundary_links(net: "IntraDomainNetwork",
                       pop: Hashable) -> List[Tuple[str, str]]:
    """Live links with exactly one endpoint inside the PoP."""
    members = set(net.topology.routers_in_pop(pop))
    if not members:
        raise KeyError("unknown or empty PoP {!r}".format(pop))
    cut = []
    for a, b in net.topology.links():
        if (a in members) != (b in members) and net.lsmap.is_link_up(a, b):
            cut.append((a, b))
    return cut


def heal_components(net: "IntraDomainNetwork") -> None:
    """Repair each connected component into its own consistent ring.

    Per component: cached pointers whose source routes are no longer live
    are invalidated (local, LSA-driven); successor groups are shifted down
    past unreachable members (free: "it knows no closer IDs may exist")
    and ephemeral children stranded outside the component detach; the
    ring is closed; the shrunken groups are refilled from their tails.
    """
    for component, members in net.ring_components():
        for router_name in component:
            net.routers[router_name].cache.invalidate_where(
                lambda iv, route: not net.lsmap.path_is_live(route))
        member_ids = {vn.id for vn in members}
        for vn in members:
            # ``vn.router`` is in the component, so what it can reach is
            # what the component holds.
            router = net.routers[vn.router]
            before = len(vn.successors)
            vn.successors = [p for p in vn.successors
                             if p.dest_id in member_ids
                             and p.hosting_router in component]
            if len(vn.successors) != before:
                router.mark_dirty(vn)
            if len(members) == 1:
                # Kept on purpose until children re-park (ROADMAP item
                # 1(e)): a member cut off alone keeps what it parked.
                continue
            doomed = [eid for eid, p in vn.ephemeral_children.items()
                      if p.hosting_router not in component]
            for eid in doomed:
                del vn.ephemeral_children[eid]
                router.mark_dirty(vn)
        _close_ring(net, members)
        for vn in members:
            refill_successor_group(net, vn)


def merge_rings(net: "IntraDomainNetwork",
                rejoining_routers: Set[str]) -> None:
    """Zero-ID-driven merge after reconnection.

    The zero-ID advertisement reaches the (former) minority ring for free
    (piggybacked on LSAs); its members then rejoin the majority ring: each
    rejoin is a charged predecessor lookup routed greedily through the
    majority ring plus the usual setup/ack — the same cost profile as a
    host join, which is why the paper finds merge overhead "roughly on the
    same order of magnitude of rejoining all the hosts in the PoP".
    Each live component merges on its own: a map that other failures left
    split has one zero ID per component, as it has one ring per component.
    A final closing pass fixes what pairwise splices cannot see
    (interleaved IDs), mirroring the "loopy cycle" healing the paper's
    consistency checks enforce.
    """
    for _, members in net.ring_components():
        # The zero-ID advertisement gives every rejoining router a route
        # to the majority ring's smallest ID; rejoin requests are
        # forwarded there and then routed greedily around that ring.
        zero_vn = next((vn for vn in members
                        if vn.router not in rejoining_routers), None)
        for vn in members:
            if zero_vn is None or vn.router not in rejoining_routers:
                continue
            net.stats.charge_path(
                net.paths.hop_path(vn.router, zero_vn.router), "repair")
            probe = forwarding.route(net, zero_vn.router, vn.id,
                                     mode="lookup", category="repair")
            pred = probe.final_vn if probe.delivered else None
            if pred is None or pred is vn:
                continue
            response = net.paths.hop_path(pred.router, vn.router)
            if response is None:
                continue
            net.stats.charge_path(response, "repair")
            splice_in(net, pred, vn,
                      routes_from(net, vn.router, pred.successors,
                                  skip=(vn.id,)), "repair")
            net.routers[vn.router].mark_dirty(vn)
        _close_ring(net, members)


def _close_ring(net: "IntraDomainNetwork",
                members: List[VirtualNode]) -> None:
    """Turn one component's ID-sorted ring members into its ring: a wrong
    primary successor is fixed with a charged exchange (ask + answer), a
    wrong predecessor for free, and a lone member holds no ring pointers.
    A component is connected, so every path asked for here exists."""
    n = len(members)
    for i, vn in enumerate(members):
        router = net.routers[vn.router]
        if n == 1:
            vn.successors = []
            vn.predecessor = None
            router.mark_dirty(vn)
            continue
        expected = members[(i + 1) % n]
        primary = vn.primary_successor()
        if primary is None or primary.dest_id != expected.id:
            path = net.paths.hop_path(vn.router, expected.router)
            net.stats.charge_path(path, "repair")
            net.stats.charge_path(list(reversed(path)), "repair")
            vn.push_successor(Pointer(expected.id, tuple(path)),
                              net.successor_group_size)
            router.mark_dirty(vn)
        prev = members[i - 1]
        if vn.predecessor is None or vn.predecessor.dest_id != prev.id:
            vn.predecessor = Pointer(
                prev.id, tuple(net.paths.hop_path(vn.router, prev.router)))


def disconnect_and_reconnect_pop(net: "IntraDomainNetwork",
                                 pop: Hashable) -> PartitionReport:
    """The full Fig 7 cycle for one PoP.  Verifies ring consistency after
    the merge (the simulator's misconvergence check)."""
    cut = pop_boundary_links(net, pop)
    pop_routers = set(net.topology.routers_in_pop(pop))
    ids_in_pop = sum(1 for vn in net.ring_members() if vn.router in pop_routers)

    with net.stats.operation("partition_disconnect", pop=pop) as op_down:
        for a, b in cut:
            net.lsmap.fail_link(a, b)
        heal_components(net)
        disconnect_messages = op_down["messages"]

    with net.stats.operation("partition_reconnect", pop=pop) as op_up:
        for a, b in cut:
            net.lsmap.restore_link(a, b)
        merge_rings(net, pop_routers)
        reconnect_messages = op_up["messages"]

    net.check()
    return PartitionReport(pop=pop, cut_links=cut, ids_in_pop=ids_in_pop,
                           disconnect_messages=disconnect_messages,
                           reconnect_messages=reconnect_messages)
