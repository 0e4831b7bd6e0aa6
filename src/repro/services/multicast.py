"""Multicast over ROFL (Section 5.2), on either ROFL kind.

"A host wishing to join the multicast group G sends an anycast request
towards a nearby member of G. At each hop, the message adds a pointer
corresponding to the group pointing back along the reverse path, in a
manner similar to path-painting. If the message intersects a router that
is already part of the group, the packet does not traverse any further.
The end result is a tree composed of bidirectional links. … Routers
forward a copy of P out all outgoing links for which there are pointers,
excluding the link on which P was received."

The tree is node-level state — routers on an intradomain network, ASes
(over policy-valid AS paths) on an interdomain one: each on-tree node
knows its painted neighbour links and its locally attached group members.
Data floods along painted links only, so a multicast to N member nodes
costs one copy per tree edge rather than N unicast paths.  The group
reads the network through the :class:`repro.network.Network` operations
``node_is_up``, ``link_is_up``, ``node_path`` and ``node_distance``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.network import Network


@dataclass
class DeliveryReport:
    """Outcome of one multicast transmission."""

    messages: int
    receivers: Set[str] = field(default_factory=set)   # member names reached


class MulticastGroup:
    """One multicast group: painted tree plus member bookkeeping."""

    def __init__(self, net: Network, name: str):
        self.net = net
        self.name = name
        #: Painted bidirectional tree links per node.
        self.tree_links: Dict[Hashable, Set[Hashable]] = {}
        #: Locally attached members per node: node → set of member names.
        self.local_members: Dict[Hashable, Set[str]] = {}
        self.members: Dict[str, Hashable] = {}  # member name → node

    # -- membership -----------------------------------------------------------------

    def on_tree(self, node: Hashable) -> bool:
        return node in self.tree_links or node in self.local_members

    def join(self, member_name: str, at: Hashable) -> int:
        """Join ``member_name`` at node ``at``; returns the message cost of
        painting the branch.  A name already joined or a node that is down
        is refused before anything is painted."""
        if member_name in self.members:
            raise ValueError("member {!r} already joined".format(member_name))
        if not self.net.node_is_up(at):
            raise ValueError("node {} is down".format(at))
        cost = 0
        if self.members and not self.on_tree(at):
            cost = self._paint_branch(at)
        self.tree_links.setdefault(at, set())
        self.local_members.setdefault(at, set()).add(member_name)
        self.members[member_name] = at
        return cost

    def _paint_branch(self, new_node: Hashable) -> int:
        """Anycast toward the nearest live on-tree node (fewest path hops,
        ties in ``str`` order), painting back-pointers; stops at the first
        tree intersection."""
        existing = set(self.tree_links) | set(self.local_members)
        best_path: Optional[Tuple[Hashable, ...]] = None
        for target in sorted(existing, key=str):
            if not self.net.node_is_up(target):
                continue
            path = self.net.node_path(new_node, target)
            if path is not None and (best_path is None
                                     or len(path) < len(best_path)):
                best_path = path
        if best_path is None:
            raise RuntimeError("multicast tree unreachable from "
                               + str(new_node))
        painted = 0
        for a, b in zip(best_path, best_path[1:]):
            self.tree_links.setdefault(a, set()).add(b)
            self.tree_links.setdefault(b, set()).add(a)
            painted += 1
            if b in existing:
                # "If the message intersects a router that is already part
                # of the group, the packet does not traverse any further."
                break
        self.net.stats.charge_hops(painted, "multicast-join")
        return painted

    def leave(self, member_name: str) -> None:
        """Remove a member; prune now-useless leaf branches."""
        node = self.members.pop(member_name, None)
        if node is None:
            raise KeyError("unknown member {!r}".format(member_name))
        self.local_members.get(node, set()).discard(member_name)
        self._prune_leaves()

    def _prune_leaves(self) -> None:
        changed = True
        while changed:
            changed = False
            for node in list(self.tree_links):
                links = self.tree_links[node]
                if not self.local_members.get(node) and len(links) <= 1:
                    for nbr in links:
                        self.tree_links[nbr].discard(node)
                    del self.tree_links[node]
                    self.local_members.pop(node, None)
                    changed = True

    # -- data plane ---------------------------------------------------------------------

    def multicast(self, from_member: str) -> DeliveryReport:
        """Flood one packet along the tree from a member's node."""
        if from_member not in self.members:
            raise KeyError("unknown member {!r}".format(from_member))
        report = DeliveryReport(messages=0)
        # Depth-first over painted links, never re-crossing the arrival link.
        frontier: List[Tuple[Hashable, Optional[Hashable]]] = [
            (self.members[from_member], None)]
        seen: Set[Hashable] = set()
        while frontier:
            node, came_from = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            report.receivers |= self.local_members.get(node, set())
            for nbr in self.tree_links.get(node, ()):
                if nbr == came_from or nbr in seen:
                    continue
                if not self.net.link_is_up(node, nbr):
                    continue
                report.messages += 1
                frontier.append((nbr, node))
        self.net.stats.charge_hops(report.messages, "multicast")
        return report

    def tree_edge_count(self) -> int:
        return sum(len(v) for v in self.tree_links.values()) // 2

    def unicast_equivalent_cost(self, from_member: str) -> int:
        """What delivering by N unicasts would cost (the savings base)."""
        origin = self.members[from_member]
        return sum(self.net.node_distance(origin, node) or 0
                   for node in set(self.members.values()) if node != origin)
