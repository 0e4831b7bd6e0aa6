"""Virtual nodes and pointers (paper Sections 2.2 and 3.1).

A hosting router "spawns a virtual node vn(id_a) that will hold the
routing state with respect to this host's identifier".  A virtual node
owns:

* a *successor group* — ordered pointers to the next IDs clockwise, each
  carrying a router-level source route ("to increase resilience to ID
  failure, nodes can hold multiple successors") that :func:`traverses`
  and :func:`uses_link` test;
* a predecessor pointer;
* for the consistency machinery, the set of routers known to cache state
  about this ID ("this list is stored by the router hosting the
  destination ID") and any ephemeral IDs parked on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.idspace.identifier import FlatId

#: Default successor-group size (successor + its successors).
DEFAULT_SUCCESSOR_GROUP = 4


class _PointerFields(NamedTuple):
    dest_id: FlatId
    path: Tuple[str, ...]


class Pointer(_PointerFields):
    """A directed edge in identifier space, realised as a source route.

    ``path`` is the hop-by-hop router route from the owner's hosting
    router (``path[0]``) to the target ID's hosting router (``path[-1]``).
    A host-local delivery pointer has a length-1 path.  Its role is the
    :class:`VirtualNode` slot that holds it.  A named tuple, as
    :class:`repro.inter.pointers.ASPointer` is.
    """

    __slots__ = ()

    def __new__(cls, dest_id: FlatId, path: Tuple[str, ...]) -> "Pointer":
        if not path:
            raise ValueError("pointer needs a non-empty source route")
        return tuple.__new__(cls, (dest_id, path))

    @property
    def owner_router(self) -> str:
        return self.path[0]

    @property
    def hosting_router(self) -> str:
        return self.path[-1]

    @property
    def n_hops(self) -> int:
        return len(self.path) - 1

    def rerouted(self, new_path: Tuple[str, ...]) -> "Pointer":
        return Pointer(self.dest_id, tuple(new_path))


# Route predicates: a ring pointer's ``path`` and a cached route alike.

def traverses(path: Tuple[str, ...], router: str) -> bool:
    return router in path


def uses_link(path: Tuple[str, ...], a: str, b: str) -> bool:
    # Most routes miss an end outright: two C-level scans, no pairs.
    if a not in path or b not in path:
        return False
    return any((x == a and y == b) or (x == b and y == a)
               for x, y in zip(path, path[1:]))


@dataclass(slots=True)
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
