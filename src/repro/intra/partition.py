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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Set, Tuple, TYPE_CHECKING

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
    past unreachable members; remaining gaps are filled with charged
    lookup/setup exchanges.
    """
    components = net.lsmap.components()
    for component in components:
        _heal_one_component(net, component)


def _heal_one_component(net: "IntraDomainNetwork", component: Set[str]) -> None:
    members = sorted((vn for vn in net.ring_members()
                      if vn.router in component), key=lambda vn: vn.id)
    if not members:
        return
    member_ids = {vn.id for vn in members}
    n = len(members)

    for router_name in component:
        router = net.routers[router_name]
        router.cache.invalidate_where(
            lambda p: not net.lsmap.path_is_live(p.path))

    for i, vn in enumerate(members):
        # Shift the successor group down past unreachable IDs (free: "it
        # knows no closer IDs may exist").  ``vn.router`` is in the
        # component, so what it can reach is what the component holds.
        before = len(vn.successors)
        vn.successors = [p for p in vn.successors if p.dest_id in member_ids
                         and p.hosting_router in component]
        if len(vn.successors) != before:
            net.routers[vn.router].mark_dirty(vn)
        expected = members[(i + 1) % n]
        if n == 1:
            vn.successors = []
            vn.predecessor = None
            net.routers[vn.router].mark_dirty(vn)
            continue
        primary = vn.primary_successor()
        if primary is None or primary.dest_id != expected.id:
            # Charged gap-filling exchange (ask + answer).
            path = net.paths.hop_path(vn.router, expected.router)
            if path is None:
                continue
            net.stats.charge_path(path, "repair")
            net.stats.charge_path(list(reversed(path)), "repair")
            vn.push_successor(Pointer(expected.id, tuple(path), "successor"),
                              net.successor_group_size)
            net.routers[vn.router].mark_dirty(vn)
        prev = members[(i - 1) % n]
        if (vn.predecessor is None or vn.predecessor.dest_id not in member_ids
                or vn.predecessor.dest_id != prev.id):
            back = net.paths.hop_path(vn.router, prev.router)
            if back is not None:
                vn.predecessor = Pointer(prev.id, tuple(back), "predecessor")

        # Ephemeral children stranded outside the component detach.
        doomed = [eid for eid, p in vn.ephemeral_children.items()
                  if p.hosting_router not in component]
        for eid in doomed:
            del vn.ephemeral_children[eid]
            net.routers[vn.router].mark_dirty(vn)

    from repro.intra.failure import refill_successor_group
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
    """
    from repro.intra import forwarding

    rejoiners = sorted((vn for vn in net.ring_members()
                        if vn.router in rejoining_routers),
                       key=lambda vn: vn.id)
    # The zero-ID advertisement gives every rejoining router a route to
    # the majority ring's smallest ID; rejoin requests are forwarded there
    # and then routed greedily around the majority ring.
    majority = [vn for vn in net.ring_members()
                if vn.router not in rejoining_routers]
    if not majority:
        _reconcile_ring(net)
        return
    zero_vn = min(majority, key=lambda vn: vn.id)
    for vn in rejoiners:
        to_zero = net.paths.hop_path(vn.router, zero_vn.router)
        if to_zero is None:
            continue
        net.stats.charge_path(to_zero, "repair")
        probe = forwarding.route(net, zero_vn.router, vn.id, mode="lookup",
                                 category="repair")
        pred = probe.final_vn if probe.delivered else None
        if pred is None or pred is vn:
            continue
        _splice(net, pred, vn)
    _reconcile_ring(net)


def _splice(net: "IntraDomainNetwork", pred: VirtualNode,
            vn: VirtualNode) -> None:
    """Insert ``vn`` after ``pred``, charging the setup/ack exchanges."""
    inherited: List[Pointer] = []
    for ptr in pred.successors:
        if ptr.dest_id == vn.id or not net.id_is_live(ptr.dest_id):
            continue
        path = net.paths.hop_path(vn.router, ptr.hosting_router)
        if path is not None:
            inherited.append(Pointer(ptr.dest_id, tuple(path), "successor"))
    response = net.paths.hop_path(pred.router, vn.router)
    if response is not None:
        net.stats.charge_path(response, "repair")
    if inherited:
        primary = inherited[0]
        setup = net.paths.hop_path(vn.router, primary.hosting_router)
        if setup is not None:
            net.stats.charge_path(setup, "repair")
            net.stats.charge_path(list(reversed(setup)), "repair")
        succ_vn = net.vn_index.get(primary.dest_id)
        if succ_vn is not None and not succ_vn.ephemeral:
            back = net.paths.hop_path(succ_vn.router, vn.router)
            if back is not None:
                succ_vn.predecessor = Pointer(vn.id, tuple(back), "predecessor")
                net.routers[succ_vn.router].mark_dirty(succ_vn)
        vn.set_successors(inherited, net.successor_group_size)
    if response is not None:
        pred.push_successor(
            Pointer(vn.id, tuple(net.paths.hop_path(pred.router, vn.router)),
                    "successor"),
            net.successor_group_size)
        vn.predecessor = Pointer(
            pred.id, tuple(net.paths.hop_path(vn.router, pred.router)),
            "predecessor")
    net.routers[pred.router].mark_dirty(pred)
    net.routers[vn.router].mark_dirty(vn)


def _reconcile_ring(net: "IntraDomainNetwork") -> None:
    """Final convergence sweep: any remaining primary-successor mismatch
    (interleaved IDs that a pairwise splice cannot see) is fixed with a
    charged exchange, mirroring the "loopy cycle" healing the paper's
    consistency checks enforce."""
    members = sorted(net.ring_members(), key=lambda vn: vn.id)
    n = len(members)
    if n == 0:
        return
    for i, vn in enumerate(members):
        expected = members[(i + 1) % n]
        primary = vn.primary_successor()
        if primary is not None and primary.dest_id == expected.id and n > 1:
            continue
        if n == 1:
            vn.successors = []
            vn.predecessor = None
            net.routers[vn.router].mark_dirty(vn)
            continue
        path = net.paths.hop_path(vn.router, expected.router)
        if path is None:
            continue
        net.stats.charge_path(path, "repair")
        net.stats.charge_path(list(reversed(path)), "repair")
        vn.push_successor(Pointer(expected.id, tuple(path), "successor"),
                          net.successor_group_size)
        back = net.paths.hop_path(expected.router, vn.router)
        if back is not None:
            expected.predecessor = Pointer(vn.id, tuple(back), "predecessor")
        net.routers[vn.router].mark_dirty(vn)
        net.routers[expected.router].mark_dirty(expected)


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

    net.check_ring()
    return PartitionReport(pop=pop, cut_links=cut, ids_in_pop=ids_in_pop,
                           disconnect_messages=disconnect_messages,
                           reconnect_messages=reconnect_messages)
