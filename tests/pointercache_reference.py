"""``repro.intra.pointercache.PointerCache`` as it was before snapshot
schema 2 (PR 20), kept verbatim as the oracle of the model-based test in
``tests/test_pointercache.py``: the LRU order, the ``hits`` / ``misses`` /
``evictions`` counters and every answer of the one-column cache must equal
what this ``OrderedDict`` + ``SortedRingMap`` pair gives.

Do not optimise or tidy this file; its value is that it does not change.
Sanctioned, snapshot schema 6 (flat pointer caches): the call signature.
``put`` and ``replace`` take the target's ID int and the entry's value (a
route), and ``invalidate_where`` hands its predicate ``(iv, value)``; the
bodies read the ID from ``iv`` where they read ``pointer.dest_id``.  Those
three methods are the only lines that differ from the parent's file.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional

from repro.idspace.identifier import FlatId, RingSpace
from repro.intra.virtualnode import Pointer
from repro.util.ringmap import SortedRingMap


class PointerCache:
    """A fixed-capacity LRU cache of pointers with greedy lookup.

    Two indexes are kept in lock-step: an :class:`OrderedDict` for LRU
    recency and a :class:`SortedRingMap` for ``O(log n)`` closest-not-past
    queries (the paper's modified longest-prefix-match lookup).
    """

    def __init__(self, space: RingSpace, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.space = space
        self.capacity = capacity
        # LRU keyed by raw int ID value: native int hashing on the
        # per-hop lookup path instead of FlatId hashing.
        self._lru: "OrderedDict[int, Pointer]" = OrderedDict()
        self._ring = SortedRingMap(space)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, dest_id: FlatId) -> bool:
        return dest_id.value in self._lru

    def put(self, iv: int, pointer: Pointer) -> None:
        """Insert/refresh a cached pointer, evicting LRU on overflow."""
        if self.capacity == 0:
            return
        dest = self.space.make(iv)
        if iv in self._lru:
            self._lru.pop(iv)
        elif len(self._lru) >= self.capacity:
            evicted_iv, _ = self._lru.popitem(last=False)
            self._ring.discard(evicted_iv)
            self.evictions += 1
        self._lru[iv] = pointer
        self._ring.insert(dest, pointer)

    def get(self, dest_id: FlatId) -> Optional[Pointer]:
        pointer = self._lru.get(dest_id.value)
        if pointer is not None:
            self._lru.move_to_end(dest_id.value)
        return pointer

    def best_match(self, dest: FlatId) -> Optional[Pointer]:
        """Algorithm 2's ``PC.best_match``: the cached pointer closest to
        ``dest`` without passing it — i.e. the entry minimising the
        clockwise distance to ``dest``.  Touches recency on a hit.

        A "hit" here is a probe that found *any* entry — in a non-empty
        cache, every probe — and its recency is touched even when
        Algorithm 2 then rejects the entry as no closer than the router's
        own state.  So ``hits / (hits + misses)`` (``cache_stats()
        ["hit_rate"]``) says how often the cache was non-empty, not how
        often it helped; the meaningful hit rate is the share of packets
        with ``PathResult.used_cache``.  Both counters and the LRU order
        are serialized state, which is why every router a packet crosses
        must still probe.  :meth:`RoflRouter.best_match` inlines this
        method on the per-hop path; keep the two in step."""
        match = self._ring.predecessor(dest, strict=False)
        if match is None:
            self.misses += 1
            return None
        self.hits += 1
        self._lru.move_to_end(match.value)
        return self._lru[match.value]

    def invalidate_id(self, dest_id: FlatId) -> bool:
        """Drop the entry for a failed identifier (teardown handling)."""
        iv = dest_id.value
        if iv not in self._lru:
            return False
        self._lru.pop(iv)
        self._ring.discard(iv)
        return True

    def invalidate_where(self, predicate: Callable[[int, Pointer], bool]) -> int:
        """Drop every entry whose pointer matches ``predicate`` — e.g. all
        routes traversing a failed router or link.  Returns count dropped."""
        doomed = [iv for iv, ptr in self._lru.items() if predicate(iv, ptr)]
        for iv in doomed:
            self._lru.pop(iv)
            self._ring.discard(iv)
        return len(doomed)

    def replace(self, iv: int, pointer: Pointer) -> None:
        """Refresh an entry's source route in place (path repair)."""
        if iv in self._lru:
            self._lru[iv] = pointer
            self._ring.insert(self.space.make(iv), pointer)

    def entries(self) -> List[Pointer]:
        return list(self._lru.values())

    def clear(self) -> None:
        self._lru.clear()
        self._ring = SortedRingMap(self.space)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return "PointerCache({}/{} entries, hit_rate={:.2f})".format(
            len(self._lru), self.capacity, self.hit_rate)
