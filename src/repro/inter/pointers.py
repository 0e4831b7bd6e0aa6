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
from typing import Collection, Dict, Hashable, List, Optional, Tuple

from repro.idspace.identifier import FlatId


@dataclass(slots=True)
class ASPointer:
    """A directed identifier-space edge realised as an AS-level source route."""

    dest_id: FlatId
    dest_as: Hashable
    #: Hop-by-hop AS route from the owner's home AS; ``route[0]`` is the
    #: owner AS, ``route[-1] == dest_as``.  A same-AS pointer has length 1.
    as_route: Tuple[Hashable, ...]
    #: The hierarchy level (subtree root) this pointer was formed at;
    #: ``None`` for the internal (same-AS) successor.
    level: Optional[Hashable] = None
    kind: str = "successor"  # "successor" | "predecessor" | "finger" | "cache"

    def __post_init__(self) -> None:
        if not self.as_route:
            raise ValueError("pointer needs a non-empty AS route")
        if self.as_route[-1] != self.dest_as:
            raise ValueError("AS route must end at the destination AS")

    @property
    def owner_as(self) -> Hashable:
        return self.as_route[0]

    @property
    def n_hops(self) -> int:
        return len(self.as_route) - 1

    @property
    def trace_tag(self) -> str:
        """The rule vocabulary `repro.obs` tags decisions with: how this
        pointer makes greedy progress (cache shortcut, proximity finger,
        internal successor, or a successor formed at an outer hierarchy
        level — the paper's "external pointer")."""
        if self.kind in ("cache", "finger"):
            return self.kind
        if self.level is not None:
            return "external-" + self.kind
        return self.kind


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

    def candidate_pointers(self) -> List[ASPointer]:
        """Every onward pointer usable for greedy progress."""
        return list(self.succ_by_level.values()) + self.fingers

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
