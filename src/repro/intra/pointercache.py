"""The pointer cache of a router and of an AS (paper Sections 2.2, 3.3,
4.1, 6.2).

"Whenever a source route is established, the routers along the path can
cache the route … The pointer-cache of routers is limited in size, and
precedence is given to pointers [from resident IDs]."  Caches are sized in
*entries*; the paper's hardware framing is 9 Mbit of TCAM ≈ 70 000 entries
of 128-bit IDs (see :data:`repro.topology.isp.TCAM_ENTRIES`).

Eviction is LRU over cached pointers only — resident-ID state never lives
here, so the paper's precedence rule holds by construction.

One class serves routers and ASes alike: an entry is the cached ID's int
and one source route (router names, or AS numbers); no pointer is stored,
and a match is a cache shortcut because it came from here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.idspace.identifier import FlatId, RingSpace

#: A source route: router names (intradomain) or AS numbers (interdomain).
Route = Tuple[Hashable, ...]


class PointerCache:
    """A fixed-capacity LRU cache of source routes keyed by ID int, with
    greedy lookup.

    Two indexes are kept in lock-step: an :class:`OrderedDict` of the
    entries in LRU recency order and one sorted column of its keys — the
    paper's "list of IDs in sorted order" (Section 3.3) — for the
    ``O(log n)`` closest-not-past query, its modified longest-prefix-match
    lookup.  The column changes only when a key enters or leaves; a
    refresh or :meth:`replace` touches the dict alone.

    Routes are interned: equal routes in one cache are one tuple, a copy
    of what the cache was handed, so the object graph the state hash and
    the pickle see depends only on the entries, never on who else held a
    route or on what was cached before.  The intern table ``_routes`` is
    derived state, dropped by ``__getstate__`` and rebuilt from the
    entries on load; it may keep routes no entry holds any more until it
    reaches twice their number (plus 16), when it is rebuilt too.
    """

    def __init__(self, space: RingSpace, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.space = space
        self.capacity = capacity
        # LRU keyed by raw int ID value: native int hashing on the
        # per-hop lookup path instead of FlatId hashing.
        self._lru: "OrderedDict[int, Route]" = OrderedDict()
        self._ivalues: List[int] = []       # the keys of ``_lru``, sorted
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._routes: Dict[Route, Route] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_routes"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._routes = {route: route for route in self._lru.values()}

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, dest_id: FlatId) -> bool:
        return dest_id.value in self._lru

    def put(self, iv: int, route: Route) -> None:
        """Insert/refresh the route to ID ``iv``, evicting LRU on overflow."""
        if self.capacity == 0:
            return
        route = self._own(route)
        if iv in self._lru:
            self._lru.pop(iv)
        else:
            if len(self._lru) >= self.capacity:
                self._forget(self._lru.popitem(last=False)[0])
                self.evictions += 1
            insort(self._ivalues, iv)
        self._lru[iv] = route

    def _own(self, route: Route) -> Route:
        """The cache's interned copy of ``route``."""
        owned = self._routes.get(route)
        if owned is None:
            if len(self._routes) >= 2 * len(self._lru) + 16:
                self._routes = {kept: kept for kept in self._lru.values()}
            owned = (*route,)       # a new tuple, even when handed one
            self._routes[owned] = owned
        return owned

    def _forget(self, iv: int) -> None:
        """Take a key that has left ``_lru`` out of the sorted column."""
        del self._ivalues[bisect_left(self._ivalues, iv)]

    def get(self, dest_id: FlatId) -> Optional[Route]:
        iv = dest_id.value
        if iv not in self._lru:
            return None
        self._lru.move_to_end(iv)
        return self._lru[iv]

    def best_match(self, dest: FlatId) -> Optional[Tuple[int, Route]]:
        """Algorithm 2's ``PC.best_match``: the cached ``(iv, route)``
        closest to ``dest`` without passing it — i.e. the entry minimising
        the clockwise distance to ``dest``.  Touches recency on a hit.

        A "hit" here is a probe that found *any* entry — in a non-empty
        cache, every probe — and its recency is touched even when
        Algorithm 2 then rejects the entry as no closer than the node's
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
        return iv, self._lru[iv]

    def invalidate_id(self, dest_id: FlatId) -> bool:
        """Drop the entry for a failed identifier (teardown handling)."""
        iv = dest_id.value
        if iv not in self._lru:
            return False
        self._lru.pop(iv)
        self._forget(iv)
        return True

    def invalidate_where(self, predicate: Callable[[int, Route], bool]) -> int:
        """Drop every entry ``(iv, route)`` that matches ``predicate`` —
        e.g. all routes traversing a failed router, link or AS.  Returns
        count dropped."""
        doomed = [iv for iv, route in self._lru.items() if predicate(iv, route)]
        for iv in doomed:
            self._lru.pop(iv)
            self._forget(iv)
        return len(doomed)

    def replace(self, iv: int, route: Route) -> None:
        """Refresh an entry's route in place (path repair); no recency
        change, and nothing happens to an ID that is not cached."""
        if iv in self._lru:
            self._lru[iv] = self._own(route)

    def clear(self) -> None:
        self._lru.clear()
        self._ivalues.clear()
        self._routes.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return "PointerCache({}/{} entries, hit_rate={:.2f})".format(
            len(self._lru), self.capacity, self.hit_rate)
