"""Anycast over ROFL (Section 5.2), on either ROFL kind.

"Servers belonging to group G join with ID (G, x). A host may then route
to (G, y), where y is set arbitrarily. Intermediate routers forward the
packet towards G, treating all suffixes equally. This results in the
packet reaching the first server in G for which the packet encounters a
route.  This style of anycast … requires no additional state or control
message overhead beyond that of joining the network."

Implementation: group members occupy one contiguous arc of the ring, so
routing toward any suffix lands inside the group's neighbourhood; the
sender aims at ``(G, 0)`` (or a caller-chosen suffix for load balancing,
the i3-style knob the paper mentions) and the packet delivers at the
first member at-or-after that point — with an early exit whenever the
packet transits a node hosting *any* member.  A node is a router on an
intradomain network and an AS on an interdomain one, where replicas in
different ASes interlink through whatever levels each joined; the group
reads either through the :class:`repro.network.Network` operations
``join_id``, ``send_to_id``, ``node_of``, ``node_is_up``,
``node_distance`` and ``fail_host``.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.idspace.groups import make_member_id
from repro.idspace.identifier import FlatId
from repro.network import Network
from repro.sim.stats import PathResult


class AnycastGroup:
    """One anycast group: its members are ``(G, suffix)`` identifiers."""

    def __init__(self, net: Network, name: str):
        self.net = net
        self.name = name
        self.members: Dict[int, FlatId] = {}  # suffix → member ID
        self._next_suffix = 0

    def _fresh_suffix(self) -> int:
        while self._next_suffix in self.members:
            self._next_suffix += 1
        return self._next_suffix

    def _member_name(self, suffix: int) -> str:
        return "anycast:{}:{}".format(self.name, suffix)

    def add_member(self, at: Hashable, suffix: Optional[int] = None) -> FlatId:
        """Join one server into the group at node ``at``; a suffix in use
        or a node that is down is refused before the network is touched."""
        if suffix is None:
            suffix = self._fresh_suffix()
        if suffix in self.members:
            raise ValueError("suffix {} already in use".format(suffix))
        if not self.net.node_is_up(at):
            raise ValueError("node {} is down".format(at))
        member_id = make_member_id(self.name, suffix)
        self.net.join_id(self._member_name(suffix), member_id, at)
        self.members[suffix] = member_id
        return member_id

    def remove_member(self, suffix: int) -> None:
        """The member's host fails out of the ring (``fail_host``)."""
        if suffix not in self.members:
            raise KeyError("no member with suffix {}".format(suffix))
        self.net.fail_host(self._member_name(suffix))
        del self.members[suffix]

    def member_nodes(self) -> List[Hashable]:
        """The nodes hosting a member, in suffix-join order."""
        nodes = (self.net.node_of(m) for m in self.members.values())
        return [node for node in nodes if node is not None]

    def send(self, src: Hashable, suffix: int = 0) -> PathResult:
        """Anycast one packet from node ``src`` toward ``(G, suffix)``.

        Varying ``suffix`` steers among members (Section 5.1's
        traffic-engineering knob); the packet delivers at the first
        member whose route it encounters.
        """
        if not self.members:
            return PathResult(delivered=False)
        target = make_member_id(self.name, suffix)
        if self.net.node_of(target) is None:
            # Aim at the nearest member at-or-after the chosen suffix (the
            # "intermediate routers … may vary r" behaviour collapsed to
            # the sender for a procedural simulation).
            ordered = sorted(self.members.values())
            later = [m for m in ordered if m.value >= target.value]
            target = later[0] if later else ordered[0]
        result = self.net.send_to_id(src, target)
        if not result.delivered:
            return result
        # Early exit: delivery happens at the first member-hosting node the
        # packet transits.
        hosting = set(self.member_nodes())
        for index, node in enumerate(result.path):
            if node in hosting:
                return PathResult(
                    delivered=True, path=result.path[:index + 1],
                    hops=index,
                    optimal_hops=self.net.node_distance(src, node) or 0,
                    pointer_hops=result.pointer_hops,
                    used_cache=result.used_cache)
        return result

    def nearest_member_distance(self, src: Hashable) -> Optional[int]:
        """Oracle: the kind's distance to the closest member (for stretch
        tests)."""
        dists = [self.net.node_distance(src, node)
                 for node in self.member_nodes()]
        return min((d for d in dists if d is not None), default=None)
