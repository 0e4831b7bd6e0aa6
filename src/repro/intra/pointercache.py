"""The per-router pointer cache (paper Sections 2.2, 3.3, 6.2).

"Whenever a source route is established, the routers along the path can
cache the route … The pointer-cache of routers is limited in size, and
precedence is given to pointers [from resident IDs]."  Caches are sized in
*entries*; the paper's hardware framing is 9 Mbit of TCAM ≈ 70 000 entries
of 128-bit IDs (see :data:`repro.topology.isp.TCAM_ENTRIES`).

Eviction is LRU over cached pointers only — resident-ID state never lives
here, so the paper's precedence rule holds by construction.

Two classes share the LRU and the sorted key column.  :class:`PointerCache`
holds one pointer object per entry (the interdomain ``ASPointer``s);
:class:`RouteCache`, a hosting router's cache, holds no pointer at all:
an entry is the target ID's int and one source route, interned per cache.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.idspace.identifier import FlatId, RingSpace
from repro.intra.virtualnode import Pointer

Route = Tuple[str, ...]


class PointerCache:
    """A fixed-capacity LRU cache keyed by ID int, with greedy lookup.

    Two indexes are kept in lock-step: an :class:`OrderedDict` of the
    entries in LRU recency order and one sorted column of its keys — the
    paper's "list of IDs in sorted order" (Section 3.3) — for the
    ``O(log n)`` closest-not-past query, its modified longest-prefix-match
    lookup.  The column changes only when a key enters or leaves; a
    refresh or :meth:`replace` touches the dict alone.

    ``put`` / ``replace`` take the target ID's int and the entry's value;
    ``get`` / ``best_match`` answer with the entry's pointer (here the
    value itself).
    """

    def __init__(self, space: RingSpace, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.space = space
        self.capacity = capacity
        # LRU keyed by raw int ID value: native int hashing on the
        # per-hop lookup path instead of FlatId hashing.
        self._lru: "OrderedDict[int, Any]" = OrderedDict()
        self._ivalues: List[int] = []       # the keys of ``_lru``, sorted
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, dest_id: FlatId) -> bool:
        return dest_id.value in self._lru

    def put(self, iv: int, value: Any) -> None:
        """Insert/refresh the entry for ID ``iv``, evicting LRU on overflow."""
        if self.capacity == 0:
            return
        value = self._own(value)
        if iv in self._lru:
            self._lru.pop(iv)
        else:
            if len(self._lru) >= self.capacity:
                self._forget(self._lru.popitem(last=False)[0])
                self.evictions += 1
            insort(self._ivalues, iv)
        self._lru[iv] = value

    def _own(self, value: Any) -> Any:
        """What the cache stores for a value it is handed."""
        return value

    def _pointer(self, iv: int) -> Any:
        """The entry for ``iv`` as a pointer."""
        return self._lru[iv]

    def _forget(self, iv: int) -> None:
        """Take a key that has left ``_lru`` out of the sorted column."""
        del self._ivalues[bisect_left(self._ivalues, iv)]

    def get(self, dest_id: FlatId) -> Optional[Any]:
        iv = dest_id.value
        if iv not in self._lru:
            return None
        self._lru.move_to_end(iv)
        return self._pointer(iv)

    def best_match(self, dest: FlatId) -> Optional[Any]:
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
        must still probe.  :meth:`RoflRouter.best_match` and
        :meth:`RoflAS.best_match` inline this method on the per-hop path;
        keep the three in step."""
        ivalues = self._ivalues
        if not ivalues:
            self.misses += 1
            return None
        iv = ivalues[bisect_right(ivalues, dest.value) - 1]   # -1 wraps
        self.hits += 1
        self._lru.move_to_end(iv)
        return self._pointer(iv)

    def invalidate_id(self, dest_id: FlatId) -> bool:
        """Drop the entry for a failed identifier (teardown handling)."""
        iv = dest_id.value
        if iv not in self._lru:
            return False
        self._lru.pop(iv)
        self._forget(iv)
        return True

    def invalidate_where(self, predicate: Callable[[int, Any], bool]) -> int:
        """Drop every entry ``(iv, value)`` that matches ``predicate`` —
        e.g. all routes traversing a failed router or link.  Returns count
        dropped."""
        doomed = [iv for iv, value in self._lru.items() if predicate(iv, value)]
        for iv in doomed:
            self._lru.pop(iv)
            self._forget(iv)
        return len(doomed)

    def replace(self, iv: int, value: Any) -> None:
        """Refresh an entry's value in place (path repair); no recency
        change, and nothing happens to an ID that is not cached."""
        if iv in self._lru:
            self._lru[iv] = self._own(value)

    def clear(self) -> None:
        self._lru.clear()
        self._ivalues.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return "{}({}/{} entries, hit_rate={:.2f})".format(
            type(self).__name__, len(self._lru), self.capacity, self.hit_rate)


class RouteCache(PointerCache):
    """A hosting router's pointer cache: per cached ID int, one source
    route and nothing else — every entry is a ``"cache"``-kind pointer, so
    the kind is not stored, and no :class:`Pointer` exists until a caller
    of :meth:`get` / :meth:`best_match` asks for one (the forwarding
    kernel never does: it reads ``_lru`` and commits to the route).

    Routes are interned: equal routes in one cache are one tuple.  The
    cache copies every route it is handed and never adopts the caller's
    tuple, so the object graph the state hash and the pickle see depends
    only on the entries, never on who else held a route or on what was
    cached before.  The intern table ``_routes`` is derived state, dropped
    by ``__getstate__`` and rebuilt from the entries on load; it may keep
    routes no entry holds any more, and is rebuilt from the entries once
    it reaches twice their number (plus 16, so small caches do not
    rebuild on every new route).
    """

    def __init__(self, space: RingSpace, capacity: int):
        super().__init__(space, capacity)
        self._routes: Dict[Route, Route] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_routes"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._routes = {route: route for route in self._lru.values()}

    def _own(self, route: Route) -> Route:
        owned = self._routes.get(route)
        if owned is None:
            if len(self._routes) >= 2 * len(self._lru) + 16:
                self._routes = {kept: kept for kept in self._lru.values()}
            owned = (*route,)       # a new tuple, even when handed one
            self._routes[owned] = owned
        return owned

    def _pointer(self, iv: int) -> Pointer:
        return Pointer(self.space.make(iv), self._lru[iv], "cache")

    def clear(self) -> None:
        super().clear()
        self._routes.clear()
