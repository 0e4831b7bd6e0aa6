"""The ROFL hosting router (paper Sections 2.2, 3.1, 3.3).

Each router owns:

* a table of resident virtual nodes (``VN`` in Algorithm 2), always
  including the router's *default virtual node* whose ID is the router-ID
  — "its successors act as default routes if it has no other successors
  that it can use to make progress";
* a bounded :class:`PointerCache` (``PC`` in Algorithm 2);
* an *incrementally maintained* sorted index over every ID the router
  knows (resident IDs, their successor groups, parked ephemeral IDs) so
  Algorithm 2's ``VN.best_match`` runs in ``O(log n)``.  The paper makes
  the matching observation for hardware: closest-ID match "can be
  implemented with minor modifications to routers that support
  longest-prefix match".

Index maintenance lives in :class:`repro.util.ringmap.CandidateIndex`:
callers that mutate one virtual node's pointer state directly (the ring
and failure machinery) call ``mark_dirty(vn)`` afterwards, and only that
VN's contribution is diffed on the next lookup.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, NamedTuple, Optional, Tuple, Union

from repro.idspace.identifier import FlatId, RingSpace
from repro.intra.pointercache import PointerCache, Route
from repro.intra.virtualnode import Pointer, VirtualNode
from repro.obs import trace
from repro.util.ringmap import CandidateIndex


class BestMatch(NamedTuple):
    """Result of a router's local best-match evaluation: a resident ID, a
    ring pointer, or a pointer-cache entry — its target and route, with no
    :class:`Pointer` built for it."""

    #: The matched ID's int value.
    target: int
    #: The source route to it; ``None`` for a locally resident ID.
    route: Optional[Route]
    #: The ring pointer; ``None`` for a resident ID or a cache entry.
    pointer: Optional[Pointer]
    resident_vn: Optional[VirtualNode]
    distance: int
    #: The ring pointer is a parked ephemeral child, not a successor.
    ephemeral: bool = False


#: The riders of a successor's and of a parked child's index entry:
#: ``(owner_seq, rank, pointer, ephemeral)``.
_SUCCESSOR, _EPHEMERAL = (False,), (True,)


def _contributed(vn: VirtualNode) -> Tuple[tuple, ...]:
    """The candidates ``vn`` adds to its router's index besides its own ID,
    as ``(rider, pointers)`` groups: its successor group, then its parked
    ephemeral children (if any), the rider the ``ephemeral`` flag.  An
    ephemeral VN holds no ring state."""
    if vn.ephemeral:
        return ()
    if vn.ephemeral_children:
        return ((_SUCCESSOR, vn.successors),
                (_EPHEMERAL, vn.ephemeral_children.values()))
    return ((_SUCCESSOR, vn.successors),)


class RoflRouter:
    """One hosting router: resident virtual nodes plus a pointer cache."""

    def __init__(self, name: str, space: RingSpace, cache_entries: int = 0):
        self.name = name
        self.space = space
        self.router_id = space.hash_of(("router:" + name).encode("utf-8"))
        self.vn_table: Dict[FlatId, VirtualNode] = {}
        self.cache = PointerCache(space, cache_entries)
        self.default_vn = VirtualNode(id=self.router_id, router=name)
        self.vn_table[self.router_id] = self.default_vn
        self._build_candidates()

    def _build_candidates(self) -> None:
        self._candidates = CandidateIndex(self.space, "router", _contributed)
        #: ``vn_table`` keyed by raw int value (the index's owner map, kept
        #: in lock-step by register/remove): the forwarding loop's
        #: residency test, with no ``FlatId`` hashed per hop.
        self.resident: Dict[int, VirtualNode] = self._candidates.owners
        for vn in self.vn_table.values():
            self._candidates.add_owner(vn)

    # -- serialization ------------------------------------------------------------

    def __getstate__(self):
        """The candidate index (and ``resident``, its owner map) is derived
        from ``vn_table`` and rebuilt on load: how often an index flushed
        follows read traffic, not routing state."""
        state = self.__dict__.copy()
        del state["_candidates"], state["resident"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._build_candidates()

    # -- virtual-node management ------------------------------------------------

    def register_virtual_node(self, vn: VirtualNode) -> None:
        """Line 3 of Algorithm 1."""
        if vn.id in self.vn_table:
            raise ValueError("ID {} already resident at {}".format(vn.id, self.name))
        if vn.router != self.name:
            raise ValueError("virtual node belongs to another router")
        self.vn_table[vn.id] = vn
        self._candidates.add_owner(vn)

    def remove_virtual_node(self, vn_id: FlatId) -> VirtualNode:
        if vn_id == self.router_id:
            raise ValueError("cannot remove the default virtual node")
        vn = self.vn_table.pop(vn_id)
        self._candidates.remove_owner(vn)
        return vn

    def hosts_id(self, vn_id: FlatId) -> bool:
        return vn_id in self.vn_table

    # -- candidate index -----------------------------------------------------------

    def mark_dirty(self, vn: VirtualNode) -> None:
        """Note a change to ``vn``'s pointer state: the index re-diffs its
        contribution lazily, at the next lookup."""
        self._candidates.mark_dirty(vn)

    def flush_index(self) -> None:
        """Apply any pending index maintenance now instead of lazily on
        the next lookup — benchmarks call this between their join and
        send phases so deferred flush storms are charged to the phase
        that caused them."""
        self._candidates.flush()

    # -- Algorithm 2 -----------------------------------------------------------------

    def best_match(self, dest: FlatId, include_ephemeral: bool = True,
                   closer_than: Optional[int] = None
                   ) -> Union[BestMatch, int, None]:
        """Algorithm 2's whole per-hop decision, one call in the int domain:
        ``VN.best_match`` — the closest ID to ``dest`` (not past it, i.e.
        minimising the clockwise distance) among the resident IDs, their
        successor groups and parked ephemeral IDs, an ephemeral one only
        when it is ``dest`` — then ``PC.best_match``, which wins only when
        strictly closer (lines 5–10).

        Returns a :class:`BestMatch`, or ``None`` with no routing state; a
        cache win is its entry's ID int and route, no :class:`Pointer`.
        Mid-source-route routers only ask whether anything beats what is
        committed: with ``closer_than`` the answer is the best distance if
        it is strictly below that bound, else ``None``, and nothing is
        built.  Either way the cache is probed exactly as
        :meth:`PointerCache.best_match` would (inlined here: hit/miss
        accounting and the LRU touch are serialized state).
        """
        dest_iv = dest.value
        mask = self.space.mask
        ivalues, candidates = self._candidates.columns()
        vn = pointer = distance = cached_iv = None
        ephemeral = False
        # The paper's TCAM lookup: the entry at or right before ``dest`` in
        # sorted order (index -1 wraps); walk back past inadmissible ones.
        position = bisect_right(ivalues, dest_iv) - 1
        stop = position - len(ivalues)
        while position > stop:
            cand = candidates[position]
            here = cand.vn
            # An ephemeral ID holds no onward state: it matches only as
            # the destination itself.
            if here is not None and (not here.ephemeral or (
                    include_ephemeral and ivalues[position] == dest_iv)):
                vn = here
                distance = (dest_iv - ivalues[position]) & mask
                break
            if cand.ptrs and (not cand.ptrs[0][3] or (
                    include_ephemeral and ivalues[position] == dest_iv)):
                _, _, pointer, ephemeral = cand.ptrs[0]
                distance = (dest_iv - ivalues[position]) & mask
                break
            position -= 1

        cache = self.cache
        cached = cache._ivalues   # its sorted key column, no call
        if not cached:
            cache.misses += 1
            if trace.ENABLED:
                trace.event_in_current("cache.miss", router=self.name,
                                       dest=dest.to_hex())
        else:
            probed = cached[bisect_right(cached, dest_iv) - 1]
            cache.hits += 1
            cache._lru.move_to_end(probed)
            cached_dist = (dest_iv - probed) & mask
            won = distance is None or cached_dist < distance
            if won:
                cached_iv, distance = probed, cached_dist
            if trace.ENABLED:
                trace.event_in_current(
                    "cache.hit" if won else "cache.reject", router=self.name,
                    dest=dest.to_hex(),
                    target=self.space.make(probed).to_hex())

        if closer_than is not None:
            return distance if distance is not None \
                and distance < closer_than else None
        if cached_iv is not None:
            return BestMatch(cached_iv, cache._lru[cached_iv], None, None,
                             distance)
        if pointer is not None:
            return BestMatch(pointer.dest_id.value, pointer.path, pointer,
                             None, distance, ephemeral)
        if vn is not None:
            return BestMatch(vn.id.value, None, None, vn, distance)
        return None

    def vn_best_match_scan(self, dest: FlatId,
                           include_ephemeral: bool = True) -> Optional[BestMatch]:
        """Reference brute-force ``VN.best_match`` (no cache); the property
        tests cross-check :meth:`best_match` on a zero-capacity cache
        against it.  One sanctioned edit since it was written: an
        ephemeral candidate (a resident or a parked child) is considered
        only when it is ``dest`` itself — it holds no onward state, so a
        greedy walk that stepped onto it stalled."""
        best: Optional[BestMatch] = None

        def consider(cand_id: FlatId, pointer: Optional[Pointer],
                     vn: Optional[VirtualNode],
                     ephemeral: bool = False) -> None:
            nonlocal best
            dist = self.space.distance_cw(cand_id, dest)
            if best is None or dist < best.distance or (
                    dist == best.distance and vn is not None):
                best = BestMatch(cand_id.value,
                                 None if pointer is None else pointer.path,
                                 pointer, vn, dist, ephemeral)

        for vn in self.vn_table.values():
            if not vn.ephemeral or (include_ephemeral and vn.id == dest):
                consider(vn.id, None, vn)
            if vn.ephemeral:
                continue
            for ptr in vn.successors:
                consider(ptr.dest_id, ptr, None)
            if include_ephemeral and dest in vn.ephemeral_children:
                consider(dest, vn.ephemeral_children[dest], None, True)
        return best

    # -- pointer upkeep ---------------------------------------------------------------

    def drop_pointer(self, pointer: Pointer) -> None:
        """Remove a dead pointer wherever this router holds it."""
        self.cache.invalidate_id(pointer.dest_id)
        for vn in self.vn_table.values():
            changed = vn.drop_successor(pointer.dest_id)
            if pointer.dest_id in vn.ephemeral_children:
                del vn.ephemeral_children[pointer.dest_id]
                changed = True
            if changed:
                self.mark_dirty(vn)

    def reroute_pointer(self, old: Pointer, new: Pointer) -> None:
        """Swap in a repaired source route for an existing pointer.  Every
        pointer to the same ID takes the route alone and stays in its slot:
        a cache entry stays a cache entry, and a ring pointer repaired
        through a cache entry's pointer stays a successor, predecessor or
        ephemeral child."""
        path = new.path
        self.cache.replace(new.dest_id.value, path)
        for vn in self.vn_table.values():
            changed = False
            for i, ptr in enumerate(vn.successors):
                if ptr is old or ptr.dest_id == new.dest_id:
                    vn.successors[i] = ptr.rerouted(path)
                    changed = True
            child = vn.ephemeral_children.get(new.dest_id)
            if child is not None:
                vn.ephemeral_children[new.dest_id] = child.rerouted(path)
                changed = True
            if changed:
                self.mark_dirty(vn)
            if vn.predecessor is not None and vn.predecessor.dest_id == new.dest_id:
                vn.predecessor = vn.predecessor.rerouted(path)

    # -- state accounting (Fig 6c) ---------------------------------------------------

    def state_entries(self, include_cache: bool = True) -> int:
        total = sum(vn.state_entries() for vn in self.vn_table.values())
        if include_cache:
            total += len(self.cache)
        return total

    def __repr__(self) -> str:
        return "RoflRouter({!r}, resident={}, cache={})".format(
            self.name, len(self.vn_table), len(self.cache))
