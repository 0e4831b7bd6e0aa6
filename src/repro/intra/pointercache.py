"""The per-router pointer cache (paper Sections 2.2, 3.3, 6.2).

"Whenever a source route is established, the routers along the path can
cache the route … The pointer-cache of routers is limited in size, and
precedence is given to pointers [from resident IDs]."  Caches are sized in
*entries*; the paper's hardware framing is 9 Mbit of TCAM ≈ 70 000 entries
of 128-bit IDs (see :data:`repro.topology.isp.TCAM_ENTRIES`).

Eviction is LRU over cached pointers only — resident-ID state never lives
here, so the paper's precedence rule holds by construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from typing import Callable, List, Optional

from repro.idspace.identifier import FlatId, RingSpace
from repro.intra.virtualnode import Pointer


class PointerCache:
    """A fixed-capacity LRU cache of pointers with greedy lookup.

    Two indexes are kept in lock-step: an :class:`OrderedDict` of the
    pointers in LRU recency order and one sorted column of its keys — the
    paper's "list of IDs in sorted order" (Section 3.3) — for the
    ``O(log n)`` closest-not-past query, its modified longest-prefix-match
    lookup.  The column changes only when a key enters or leaves; a
    refresh or :meth:`replace` touches the dict alone.
    """

    def __init__(self, space: RingSpace, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.space = space
        self.capacity = capacity
        # LRU keyed by raw int ID value: native int hashing on the
        # per-hop lookup path instead of FlatId hashing.
        self._lru: "OrderedDict[int, Pointer]" = OrderedDict()
        self._ivalues: List[int] = []       # the keys of ``_lru``, sorted
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, dest_id: FlatId) -> bool:
        return dest_id.value in self._lru

    def put(self, pointer: Pointer) -> None:
        """Insert/refresh a cached pointer, evicting LRU on overflow."""
        if self.capacity == 0:
            return
        iv = pointer.dest_id.value
        if iv in self._lru:
            self._lru.pop(iv)
        else:
            if len(self._lru) >= self.capacity:
                self._forget(self._lru.popitem(last=False)[0])
                self.evictions += 1
            insort(self._ivalues, iv)
        self._lru[iv] = pointer

    def _forget(self, iv: int) -> None:
        """Take a key that has left ``_lru`` out of the sorted column."""
        del self._ivalues[bisect_left(self._ivalues, iv)]

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
        ivalues = self._ivalues
        if not ivalues:
            self.misses += 1
            return None
        iv = ivalues[bisect_right(ivalues, dest.value) - 1]   # -1 wraps
        self.hits += 1
        self._lru.move_to_end(iv)
        return self._lru[iv]

    def invalidate_id(self, dest_id: FlatId) -> bool:
        """Drop the entry for a failed identifier (teardown handling)."""
        iv = dest_id.value
        if iv not in self._lru:
            return False
        self._lru.pop(iv)
        self._forget(iv)
        return True

    def invalidate_where(self, predicate: Callable[[Pointer], bool]) -> int:
        """Drop every entry whose pointer matches ``predicate`` — e.g. all
        routes traversing a failed router or link.  Returns count dropped."""
        doomed = [iv for iv, ptr in self._lru.items() if predicate(ptr)]
        for iv in doomed:
            self._lru.pop(iv)
            self._forget(iv)
        return len(doomed)

    def replace(self, pointer: Pointer) -> None:
        """Refresh an entry's source route in place (path repair)."""
        iv = pointer.dest_id.value
        if iv in self._lru:
            self._lru[iv] = pointer

    def clear(self) -> None:
        self._lru.clear()
        self._ivalues.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return "PointerCache({}/{} entries, hit_rate={:.2f})".format(
            len(self._lru), self.capacity, self.hit_rate)
