"""Sorted circular maps over flat identifiers.

:class:`SortedRingMap` is the eager, persisted map behind the
interdomain level rings; :class:`ColumnarRingIndex` is the write-batching
int index behind :class:`CandidateIndex`, the derived candidate index
every router and AS keeps.

Rings and virtual-node tables need the same three queries, each in
``O(log n)``:

* ``successor(id)`` — the next key clockwise (wrapping), Chord convention:
  the smallest key strictly greater than ``id``, else the smallest key.
* ``predecessor(id)`` — the previous key counter-clockwise.
* ``closest_not_past_value(current, dest)`` — the greedy next hop of
  Algorithm 2.

The paper notes the last query is cheap on real hardware: "given a list of
IDs in sorted order, the closest namespace distance match is either the
shortest prefix match or the one right before it in the sorted list"
(Section 3.3).  We implement exactly that: a bisect into the sorted key
list and an inspection of the neighbouring entry.

Hot-path layout: alongside the ``FlatId`` key list the map keeps a
lock-step ``_ivalues`` array of raw ``int`` values.  Every bisect runs on
the int array (native int comparisons instead of ``total_ordering``
dispatch) and payloads are stored in a dict keyed by int value (native
int hashing instead of tuple hashing), which is where the greedy-routing
inner loops spend their time.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.idspace.identifier import FlatId, RingSpace
from repro.util import perf


class RingKeysView(Sequence):
    """A zero-copy, read-only view over a map's sorted key list.

    Returned by :meth:`SortedRingMap.keys` so hot loops can iterate and
    index the keys without the per-call list copy the old API made.  The
    view is live: it reflects later mutations of the map.
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: List[FlatId]):
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, index):
        result = self._keys[index]
        return RingKeysView(result) if isinstance(index, slice) else result

    def __iter__(self) -> Iterator[FlatId]:
        return iter(self._keys)

    def __contains__(self, key: object) -> bool:
        return key in self._keys

    def __repr__(self) -> str:
        return "RingKeysView(n={})".format(len(self._keys))


def _ival(key: Union[FlatId, int]) -> int:
    """The raw int value of a key given as either ``FlatId`` or ``int``."""
    return key if type(key) is int else key.value


class SortedRingMap:
    """Map from :class:`FlatId` to arbitrary values with circular queries."""

    def __init__(self, space: RingSpace):
        self.space = space
        self._keys: List[FlatId] = []
        self._ivalues: List[int] = []          # lock-step raw values
        self._payloads: dict = {}              # int value -> stored payload

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Union[FlatId, int]) -> bool:
        return _ival(key) in self._payloads

    def __iter__(self) -> Iterator[FlatId]:
        return iter(self._keys)

    def __getitem__(self, key: Union[FlatId, int]) -> Any:
        return self._payloads[_ival(key)]

    def keys(self) -> RingKeysView:
        """A read-only, zero-copy view of the sorted keys.

        Callers that need an independent snapshot (e.g. to mutate the map
        while iterating) should copy explicitly with ``list(ring.keys())``.
        """
        return RingKeysView(self._keys)

    def key_values(self) -> Sequence[int]:
        """The sorted raw int values, zero-copy.  Do not mutate."""
        return self._ivalues

    def insert(self, key: FlatId, value: Any = None) -> None:
        """Insert or replace the value stored at ``key``."""
        iv = key.value
        if iv not in self._payloads:
            index = bisect.bisect_left(self._ivalues, iv)
            self._ivalues.insert(index, iv)
            self._keys.insert(index, key)
        self._payloads[iv] = value

    def remove(self, key: Union[FlatId, int]) -> Any:
        """Remove ``key``; raises ``KeyError`` if absent."""
        iv = _ival(key)
        value = self._payloads.pop(iv)  # KeyError propagates
        index = bisect.bisect_left(self._ivalues, iv)
        del self._ivalues[index]
        del self._keys[index]
        return value

    def discard(self, key: Union[FlatId, int]) -> None:
        if _ival(key) in self._payloads:
            self.remove(key)

    def successor(self, key: Union[FlatId, int],
                  strict: bool = True) -> Optional[FlatId]:
        """The next key clockwise from ``key`` (wrapping).

        With ``strict=False`` a stored key equal to ``key`` is returned
        as its own successor, which is the lookup used when routing *to*
        an identifier.
        """
        if not self._keys:
            return None
        iv = _ival(key)
        if strict:
            index = bisect.bisect_right(self._ivalues, iv)
        else:
            index = bisect.bisect_left(self._ivalues, iv)
        return self._keys[index % len(self._keys)]

    def predecessor(self, key: Union[FlatId, int],
                    strict: bool = True) -> Optional[FlatId]:
        """The previous key counter-clockwise from ``key`` (wrapping)."""
        if not self._keys:
            return None
        iv = _ival(key)
        if strict:
            index = bisect.bisect_left(self._ivalues, iv) - 1
        else:
            index = bisect.bisect_right(self._ivalues, iv) - 1
        return self._keys[index % len(self._keys)]

    def closest_not_past_value(self, current: int, dest: int) -> Optional[int]:
        """Greedy best match in the int domain: the stored key closest to
        ``dest`` without passing it, and strictly past ``current``;
        ``None`` if no key makes progress."""
        ivalues = self._ivalues
        if not ivalues:
            return None
        # The best admissible key is the predecessor of dest (allowing
        # equality): it is the closest key counter-clockwise of dest.
        index = (bisect.bisect_right(ivalues, dest) - 1) % len(ivalues)
        candidate = ivalues[index]
        mask = self.space.mask
        advanced = (candidate - current) & mask
        if advanced and advanced <= ((dest - current) & mask):
            return candidate
        return None

    def __repr__(self) -> str:
        return "SortedRingMap(n={})".format(len(self._keys))


#: When the staged batch is at least ``1/REBUILD_FRACTION`` of the synced
#: key column, the sync rebuilds the whole column in one C-speed sort
#: instead of applying per-key inserts/deletes.
REBUILD_FRACTION = 8


class ColumnarRingIndex:
    """Flat-array circular candidate index over raw ``int`` keys.

    The columnar counterpart of :class:`SortedRingMap` for hot paths that
    already live in the int domain (router/AS candidate indexes): one
    sorted key column of plain ints (any ring width) plus a lock-step
    payload column, so greedy scans walk two parallel lists with zero
    per-candidate hashing.

    Mutations are **dict-immediate, column-deferred**: ``set``/``delete``
    update the authoritative payload dict at once (reads through ``get``
    are never stale) and only *stage* the key change.  The sorted columns
    are synced lazily at the next positional query, applying the whole
    staged batch in one pass — per-key C ``memmove`` for small batches, a
    single C-speed sort rebuild for storms.  This is what turns a
    mark-dirty storm (thousands of join-time mutations) into one cheap
    epoch flush instead of thousands of O(n) list inserts.
    """

    __slots__ = ("space", "_payloads", "_keys", "_vals",
                 "_pending_add", "_pending_del")

    def __init__(self, space: RingSpace):
        self.space = space
        self._payloads: dict = {}          # int key -> payload (authoritative)
        self._keys: List[int] = []         # sorted key column (synced view)
        self._vals: List[Any] = []         # lock-step payload column
        self._pending_add: set = set()
        self._pending_del: set = set()

    # -- dict-immediate mutation ------------------------------------------------

    def __len__(self) -> int:
        return len(self._payloads)

    def __contains__(self, key: int) -> bool:
        return key in self._payloads

    def get(self, key: int, default: Any = None) -> Any:
        return self._payloads.get(key, default)

    def set(self, key: int, payload: Any) -> None:
        """Insert or replace the payload stored at ``key``."""
        payloads = self._payloads
        if key in payloads:
            payloads[key] = payload
            if key not in self._pending_add:
                # Key already synced: patch the payload column in place.
                self._vals[bisect.bisect_left(self._keys, key)] = payload
            return
        payloads[key] = payload
        if key in self._pending_del:
            # Deleted-then-reinserted within one epoch: the key is still
            # in the columns; only its payload cell needs patching.
            self._pending_del.discard(key)
            self._vals[bisect.bisect_left(self._keys, key)] = payload
        else:
            self._pending_add.add(key)

    def delete(self, key: int) -> Any:
        """Remove ``key``; raises ``KeyError`` if absent."""
        payload = self._payloads.pop(key)  # KeyError propagates
        if key in self._pending_add:
            self._pending_add.discard(key)
        else:
            self._pending_del.add(key)
        return payload

    # -- the epoch sync ---------------------------------------------------------

    def _sync(self) -> None:
        adds, dels = self._pending_add, self._pending_del
        if not adds and not dels:
            return
        payloads = self._payloads
        if (len(adds) + len(dels)) * REBUILD_FRACTION >= len(self._keys):
            # Storm: one C-speed sort over the authoritative dict.
            self._keys = sorted(payloads)
            self._vals = [payloads[key] for key in self._keys]
        else:
            keys, vals = self._keys, self._vals
            for key in sorted(dels, reverse=True):
                position = bisect.bisect_left(keys, key)
                del keys[position]
                del vals[position]
            for key in sorted(adds):
                position = bisect.bisect_left(keys, key)
                keys.insert(position, key)
                vals.insert(position, payloads[key])
        adds.clear()
        dels.clear()

    # -- positional queries (int domain) ----------------------------------------

    def columns(self) -> Tuple[List[int], List[Any]]:
        """The synced ``(sorted keys, lock-step payloads)`` columns.

        Zero-copy: callers must not mutate, and must re-fetch after any
        ``set``/``delete`` (the views go stale at the next sync).
        """
        self._sync()
        return self._keys, self._vals

    def key_values(self) -> List[int]:
        """The synced sorted key column, zero-copy.  Do not mutate."""
        return self.columns()[0]

    def closest_not_past_value(self, current: int, dest: int) -> Optional[int]:
        """Greedy best match in the int domain (see
        :meth:`SortedRingMap.closest_not_past_value`)."""
        self._sync()
        keys = self._keys
        if not keys:
            return None
        candidate = keys[(bisect.bisect_right(keys, dest) - 1) % len(keys)]
        mask = self.space.mask
        advanced = (candidate - current) & mask
        if advanced and advanced <= ((dest - current) & mask):
            return candidate
        return None

    def __repr__(self) -> str:
        return "ColumnarRingIndex(n={})".format(len(self._payloads))


@dataclass
class Candidate:
    """One indexed ID a router or AS can make greedy progress toward.

    ``ptrs`` holds every pointer contribution targeting this key as
    ``(owner_seq, cand_seq, pointer, ...)`` tuples kept sorted, so
    ``ptrs[0]`` is the same "first pointer wins" entry a full rebuild
    produces (owners in registration order, each owner's candidates in
    the order it lists them).
    """

    vn: Optional[Any] = None       # set when the ID is resident here
    ptrs: List[tuple] = field(default_factory=list)


class CandidateIndex:
    """The incrementally maintained candidate index of one router or AS.

    Owners are the resident virtual nodes.  The index tracks, per owner,
    exactly which keys it contributed (its own ID plus its pointer
    targets).  Code that mutates one owner's pointer state calls
    ``mark_dirty(vn)`` afterwards; marks coalesce until the next
    :meth:`flush`, which re-diffs each distinct dirty owner once, slot by
    slot — work in the pointers that changed, not in the owner's group
    size, let alone the resident state.  Pointers are replaced, never
    mutated: the object an owner still lists at a slot is the unchanged
    pointer.  ``mark_dirty()`` with no argument remains the big hammer
    (full rebuild) for bulk mutations.

    ``perf_prefix`` names the ``<prefix>.index.*`` counters and the flush
    timer.  ``pointers_of(vn)`` lists what ``vn`` contributes besides its
    own ID: one tuple per pointer, the pointer first, anything after it
    riding along in the :class:`Candidate` entry.

    Everything but the owners is derived state: pickling keeps the
    constructor arguments and the owners and rebuilds the rest on load,
    so no serialized form depends on lookup history (which flushes ran,
    and how often, follows read traffic, not routing state).
    """

    def __init__(self, space: RingSpace, perf_prefix: str,
                 pointers_of: Callable[[Any], Iterable[tuple]]):
        self.space = space
        self._perf_prefix = perf_prefix
        self._pointers_of = pointers_of
        names = perf_prefix + ".index."
        self._marks_counter = names + "marks"
        self._rebuild_counter = names + "rebuild"
        self._flush_timer = names + "flush"
        self._flushes_counter = names + "refresh.flushes"
        self._owners_counter = names + "refresh.owners"
        self._slots_counter = names + "refresh.slots"
        self.owners: Dict[int, Any] = {}    # vn.id.value -> vn, registration order
        self._index = ColumnarRingIndex(space)
        self._seq = itertools.count()
        self._owner_seq: Dict[int, int] = {}    # vn.id.value -> registration seq
        #: vn.id.value -> (seq, the owner's ``Candidate.ptrs`` tuples in slot
        #: order) — the stored tuples themselves, no copies.
        self._contrib: Dict[int, tuple] = {}
        self._dirty_owners: set = set()         # vn.id.values needing a re-diff
        self._dirty_all = True                  # full rebuild pending
        self._columns: tuple = ([], [])         # synced (keys, entries), see flush
        #: Monotonic flush-epoch counter: one increment per flush that
        #: actually re-diffed or rebuilt state.  Mark-dirty storms
        #: between two lookups all land in the same epoch.
        self.flush_epoch = 0

    def __getstate__(self):
        return (self.space, self._perf_prefix, self._pointers_of,
                list(self.owners.values()))

    def __setstate__(self, state) -> None:
        *args, owners = state
        self.__init__(*args)
        for vn in owners:
            self.add_owner(vn)

    # -- owners -------------------------------------------------------------------

    def add_owner(self, vn: Any) -> None:
        iv = vn.id.value
        self.owners[iv] = vn
        self._owner_seq[iv] = next(self._seq)
        self.mark_dirty(vn)

    def remove_owner(self, vn: Any) -> None:
        iv = vn.id.value
        self.owners.pop(iv, None)
        self._owner_seq.pop(iv, None)
        if not self._dirty_all:
            self._dirty_owners.add(iv)

    def mark_dirty(self, vn: Optional[Any] = None) -> None:
        """Note a pointer-state change so the index re-diffs lazily.

        With ``vn`` given, only that owner's contribution is refreshed at
        the next flush; with no argument the whole index is rebuilt (bulk
        or unknown mutations).
        """
        if vn is None:
            self._dirty_all = True
            self._dirty_owners.clear()
        elif not self._dirty_all:
            perf.counter(self._marks_counter)
            self._dirty_owners.add(vn.id.value)

    # -- contributions ------------------------------------------------------------

    def _entry_for(self, key_iv: int) -> Candidate:
        cand = self._index.get(key_iv)
        if cand is None:
            cand = Candidate()
            self._index.set(key_iv, cand)
        return cand

    def _rediff(self, owner_iv: int) -> int:
        """Bring one owner's keys — its own ID plus its pointer targets —
        in line with its pointer list, slot by slot; returns the slots
        touched.  A pointer object unchanged at its ``cand_seq`` is left
        alone, a changed slot is one remove plus one ``insort``.  A new
        owner diffs from the empty list and a departed one to it; an
        owner re-registered within the epoch (new ``seq``) does both.
        """
        vn = self.owners.get(owner_iv)
        seq = self._owner_seq.get(owner_iv)             # None once departed
        old_seq, old = self._contrib.pop(owner_iv, (None, ()))
        touched = 0
        if old_seq != seq:
            for was in old:
                self._unlink(was[2].dest_id.value, was)
            touched, old = len(old), ()
            if old_seq is not None:
                self._unlink(owner_iv, None)
            if vn is not None:
                self._entry_for(owner_iv).vn = vn
        if vn is None:
            return touched
        kept: List[tuple] = []
        for cand_seq, (was, now) in enumerate(
                itertools.zip_longest(old, self._pointers_of(vn))):
            if was is not None and now is not None \
                    and was[2] is now[0] and was[3:] == now[1:]:
                kept.append(was)
                continue
            touched += 1
            if was is not None:
                self._unlink(was[2].dest_id.value, was)
            if now is not None:
                now = (seq, cand_seq) + now
                bisect.insort(self._entry_for(now[2].dest_id.value).ptrs, now)
                kept.append(now)
        self._contrib[owner_iv] = (seq, kept)
        return touched

    def _unlink(self, key_iv: int, ptr_entry: Optional[tuple]) -> None:
        """Take one pointer contribution (or, with ``None``, the resident
        VN) out of ``key_iv``'s entry; an entry left empty is deleted."""
        cand = self._index.get(key_iv)
        if ptr_entry is None:
            cand.vn = None
        else:
            del cand.ptrs[bisect.bisect_left(cand.ptrs, ptr_entry)]
        if cand.vn is None and not cand.ptrs:
            self._index.delete(key_iv)

    def flush(self) -> ColumnarRingIndex:
        """Apply pending maintenance and sync; returns the up-to-date index."""
        if self._dirty_all or self._dirty_owners:
            with perf.timed(self._flush_timer):
                if self._dirty_all:
                    perf.counter(self._rebuild_counter)
                    self._index, self._contrib = ColumnarRingIndex(self.space), {}
                    self._seq = itertools.count()
                    self._owner_seq = dict(zip(self.owners, self._seq))
                    for owner_iv in self.owners:
                        self._rediff(owner_iv)
                    self._dirty_all = False
                else:
                    perf.counter(self._flushes_counter)
                    perf.counter(self._owners_counter, len(self._dirty_owners))
                    perf.counter(self._slots_counter,
                                 sum(map(self._rediff, self._dirty_owners)))
                self.flush_epoch += 1
                self._dirty_owners.clear()
                self._columns = self._index.columns()
        return self._index

    def columns(self) -> Tuple[List[int], List[Candidate]]:
        """The flushed-and-synced ``(sorted int keys, lock-step entries)``
        columns, the per-hop read of Algorithm 2: one dirty check, no sync
        (only :meth:`flush` stages keys, and it syncs).  Zero-copy."""
        if self._dirty_all or self._dirty_owners:
            self.flush()
        return self._columns
