"""Virtual nodes and pointers (paper Sections 2.2 and 3.1).

A hosting router "spawns a virtual node vn(id_a) that will hold the
routing state with respect to this host's identifier".  A virtual node
owns:

* a *successor group* — ordered pointers to the next IDs clockwise, each
  carrying a router-level source route ("to increase resilience to ID
  failure, nodes can hold multiple successors");
* a predecessor pointer;
* for the consistency machinery, the set of routers known to cache state
  about this ID ("this list is stored by the router hosting the
  destination ID") and any ephemeral IDs parked on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.idspace.identifier import FlatId

#: Default successor-group size (successor + its successors).
DEFAULT_SUCCESSOR_GROUP = 4


@dataclass
class Pointer:
    """A directed edge in identifier space, realised as a source route.

    ``path`` is the hop-by-hop router route from the owner's hosting
    router (``path[0]``) to the target ID's hosting router (``path[-1]``).
    A host-local delivery pointer has a length-1 path.
    """

    dest_id: FlatId
    path: Tuple[str, ...]
    kind: str = "successor"  # "successor" | "predecessor" | "cache" | "ephemeral"

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("pointer needs a non-empty source route")

    @property
    def owner_router(self) -> str:
        return self.path[0]

    @property
    def hosting_router(self) -> str:
        return self.path[-1]

    @property
    def n_hops(self) -> int:
        return len(self.path) - 1

    def traverses(self, router: str) -> bool:
        return router in self.path

    def uses_link(self, a: str, b: str) -> bool:
        return any({x, y} == {a, b} for x, y in zip(self.path, self.path[1:]))

    def rerouted(self, new_path: Tuple[str, ...]) -> "Pointer":
        return Pointer(dest_id=self.dest_id, path=tuple(new_path), kind=self.kind)


@dataclass
class VirtualNode:
    """Routing state a hosting router keeps for one resident identifier."""

    id: FlatId
    router: str
    host_name: Optional[str] = None   # None for a router's default VN
    ephemeral: bool = False
    successors: List[Pointer] = field(default_factory=list)
    predecessor: Optional[Pointer] = None
    #: Ephemeral IDs parked at this VN (we are their ring predecessor).
    ephemeral_children: Dict[FlatId, Pointer] = field(default_factory=dict)
    #: Routers that may hold cached pointers naming this ID — the route
    #: record used to direct the host-failure invalidation flood.
    cached_at: Set[str] = field(default_factory=set)

    @property
    def is_default(self) -> bool:
        """Is this the router's own default virtual node (Section 3.1)?"""
        return self.host_name is None and not self.ephemeral

    def primary_successor(self) -> Optional[Pointer]:
        return self.successors[0] if self.successors else None

    def successor_ids(self) -> List[FlatId]:
        return [ptr.dest_id for ptr in self.successors]

    def set_successors(self, pointers: List[Pointer], group_size: int) -> None:
        """Install a successor group, deduplicated, capped at ``group_size``."""
        seen: Set[FlatId] = {self.id}
        kept: List[Pointer] = []
        for ptr in pointers:
            if ptr.dest_id in seen:
                continue
            seen.add(ptr.dest_id)
            kept.append(ptr)
            if len(kept) >= group_size:
                break
        self.successors = kept

    def push_successor(self, pointer: Pointer, group_size: int) -> None:
        """Prepend a new immediate successor, shifting the group down."""
        self.set_successors([pointer] + self.successors, group_size)

    def drop_successor(self, dest_id: FlatId) -> bool:
        """Remove a failed ID from the group; True if it was present."""
        before = len(self.successors)
        self.successors = [p for p in self.successors if p.dest_id != dest_id]
        return len(self.successors) != before

    def state_entries(self) -> int:
        """Forwarding-state entries this VN consumes (Fig 6c accounting)."""
        return (1  # the resident ID itself
                + len(self.successors)
                + (1 if self.predecessor is not None else 0)
                + len(self.ephemeral_children))

    def __repr__(self) -> str:
        return "VirtualNode({}@{}, succ={}, eph={})".format(
            self.id, self.router, len(self.successors), self.ephemeral)
