"""Interdomain routing state: AS-level pointers and virtual nodes.

A pointer at hierarchy level ``A`` (an AS, or a virtual AS standing for a
peering link) targets the owner ID's successor within the merged ring of
``subtree(A)``, and carries the AS-level source route the join discovered
— "the hosting router then associates the successor and predecessor
pointers for ida with an AS-level source-route to the routers hosting the
predecessor and successor identifiers" (Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Collection, Dict, Hashable, List, NamedTuple, Optional,
                    Tuple)

from repro.idspace.identifier import FlatId


class _ASPointerFields(NamedTuple):
    dest_id: FlatId
    #: Hop-by-hop AS route from the owner's home AS; ``route[0]`` is the
    #: owner AS, ``route[-1]`` the target's.  A same-AS pointer has length 1.
    as_route: Tuple[Hashable, ...]
    #: The hierarchy level (subtree root) this pointer was formed at;
    #: ``None`` for the internal (same-AS) successor.
    level: Optional[Hashable] = None


class ASPointer(_ASPointerFields):
    """A directed identifier-space edge realised as an AS-level source
    route; its role is the :class:`InterVirtualNode` table holding it.

    A named tuple: a pickle holds its three fields as one argument tuple,
    and unpickling runs :meth:`__new__` and nothing else.
    """

    __slots__ = ()

    def __new__(cls, dest_id: FlatId, as_route: Tuple[Hashable, ...],
                level: Optional[Hashable] = None) -> "ASPointer":
        if not as_route:
            raise ValueError("pointer needs a non-empty AS route")
        return tuple.__new__(cls, (dest_id, as_route, level))

    @property
    def owner_as(self) -> Hashable:
        return self.as_route[0]

    @property
    def dest_as(self) -> Hashable:
        return self.as_route[-1]

    @property
    def n_hops(self) -> int:
        return len(self.as_route) - 1


@dataclass(slots=True)
class InterVirtualNode:
    """State one hosted identifier keeps in the interdomain design."""

    id: FlatId
    home_as: Hashable
    host_name: Optional[str] = None
    strategy: str = "multihomed"
    #: Successor pointer per joined hierarchy level (level → pointer);
    #: the internal successor is stored under level ``None``.
    succ_by_level: Dict[Optional[Hashable], ASPointer] = field(default_factory=dict)
    pred_by_level: Dict[Optional[Hashable], ASPointer] = field(default_factory=dict)
    #: Proximity finger table, flattened (Section 4.1).
    fingers: List[ASPointer] = field(default_factory=list)
    #: Levels this node joined at, innermost first.
    joined_levels: List[Hashable] = field(default_factory=list)

    def set_successor(self, level: Optional[Hashable], ptr: ASPointer) -> None:
        self.succ_by_level[level] = ptr

    def drop_dead_targets(self, dead_ids: Collection[FlatId]) -> int:
        """Remove every pointer naming one of ``dead_ids``, in one pass
        over the tables; returns count dropped."""
        dropped = 0
        for table in (self.succ_by_level, self.pred_by_level):
            doomed = [lvl for lvl, p in table.items() if p.dest_id in dead_ids]
            for lvl in doomed:
                del table[lvl]
            dropped += len(doomed)
        before = len(self.fingers)
        self.fingers = [p for p in self.fingers if p.dest_id not in dead_ids]
        return dropped + before - len(self.fingers)

    def state_entries(self) -> int:
        """Routing-state entries this ID consumes at its hosting AS."""
        return (1 + len(self.succ_by_level) + len(self.pred_by_level)
                + len(self.fingers))

    def __repr__(self) -> str:
        return "InterVirtualNode({}@{}, levels={}, fingers={})".format(
            self.id, self.home_as, len(self.succ_by_level), len(self.fingers))
