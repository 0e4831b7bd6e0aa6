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

    def key_values(self) -> Sequence[int]:
        """The sorted raw int values, zero-copy.  Do not mutate."""
        return self._ivalues

    def payloads(self) -> Dict[int, Any]:
        """Raw int value -> stored payload, zero-copy.  Do not mutate."""
        return self._payloads

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
#: A :class:`CandidateIndex` rank is ``group * GROUP_STRIDE`` plus the
#: position in the group: more positions than any group holds.
GROUP_STRIDE = 1 << 32
#: Every rank past the first group's, each its own value: entries share one
#: int object per rank (a fresh int past 256 would cost each entry 32 B).
_RANKS: Dict[int, int] = {}


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


@dataclass(slots=True)
class Candidate:
    """One indexed ID a router or AS can make greedy progress toward.

    ``ptrs`` holds every pointer contribution targeting this key as
    ``(owner_seq, rank, pointer, ...)`` tuples kept sorted, so ``ptrs[0]``
    is the first pointer with owners in registration order, each owner's
    candidates in the order it lists them; ``rank`` is
    ``group * GROUP_STRIDE`` plus the position in the group.
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
    pointer.  That re-diff is the only way the index changes:
    :meth:`add_owner` marks the new owner, so a new index's first flush
    diffs every owner from empty.

    ``perf_prefix`` names the ``<prefix>.index.*`` counters and the flush
    timer.  ``pointers_of(vn)`` lists what ``vn`` contributes besides its
    own ID in groups (an AS's successors, then its fingers), each as
    ``(rider, pointers)``: every entry of the group carries the ``rider``
    tuple after its pointer in the :class:`Candidate` entry.  A slot is a
    position in one group, so a group that grows or shrinks shifts no
    other group's slots.

    The whole index is derived state: :class:`repro.intra.router.RoflRouter`
    and :class:`repro.inter.asnode.RoflAS` drop it when pickled and build a
    new one from their virtual nodes on load, so no serialized form
    depends on lookup history.
    """

    def __init__(self, space: RingSpace, perf_prefix: str,
                 pointers_of: Callable[[Any], Iterable[Tuple[tuple,
                                                             Iterable]]]):
        self._pointers_of = pointers_of
        names = perf_prefix + ".index."
        self._marks_counter = names + "marks"
        self._flush_timer = names + "flush"
        self._flushes_counter = names + "refresh.flushes"
        self._owners_counter = names + "refresh.owners"
        self._slots_counter = names + "refresh.slots"
        self.owners: Dict[int, Any] = {}    # vn.id.value -> vn, registration order
        self._index = ColumnarRingIndex(space)
        self._seq = itertools.count()
        self._owner_seq: Dict[int, int] = {}    # vn.id.value -> registration seq
        #: vn.id.value -> (seq, then per group the owner's ``Candidate.ptrs``
        #: tuples in slot order) — the stored tuples themselves, no copies.
        self._contrib: Dict[int, tuple] = {}
        self._dirty_owners: set = set()         # vn.id.values needing a re-diff
        self._columns: tuple = ([], [])         # synced (keys, entries), see flush
        #: Monotonic flush-epoch counter: one increment per flush that
        #: actually re-diffed state.  Mark-dirty storms between two
        #: lookups all land in the same epoch.
        self.flush_epoch = 0

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
        self._dirty_owners.add(iv)

    def mark_dirty(self, vn: Any) -> None:
        """Note a change to ``vn``'s pointer state: its contribution is
        re-diffed at the next flush."""
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
        in line with its pointer groups, slot by slot; returns the slots
        touched.  A pointer object unchanged at its ``rank`` (under the same
        rider) is left alone, a changed slot is one remove plus one
        ``insort``.  A new owner diffs from no groups and a departed one to
        none; an owner re-registered within the epoch (new ``seq``) does
        both.
        """
        vn = self.owners.get(owner_iv)
        seq = self._owner_seq.get(owner_iv)             # None once departed
        old_seq, *old = self._contrib.pop(owner_iv, (None,))
        touched = 0
        if old_seq != seq:
            for was in itertools.chain.from_iterable(old):
                self._unlink(was[2].dest_id.value, was)
            touched, old = sum(map(len, old)), ()
            if old_seq is not None:
                self._unlink(owner_iv, None)
            if vn is not None:
                self._entry_for(owner_iv).vn = vn
        if vn is None:
            return touched
        kept: List[tuple] = []
        for group_no, (olds, listed) in enumerate(itertools.zip_longest(
                old, self._pointers_of(vn), fillvalue=())):
            rider, pointers = listed or ((), ())
            if not olds and not pointers:
                kept.append(olds)
                continue
            # A group whose rider changed changes at every slot.
            same = not olds or olds[0][3:] == rider
            base = group_no * GROUP_STRIDE
            group = None                # a copy from the first changed slot
            for position, (was, ptr) in enumerate(
                    itertools.zip_longest(olds, pointers)):
                if same and was is not None and was[2] is ptr:
                    if group is not None:
                        group.append(was)
                    continue
                if group is None:
                    group = list(olds[:position])
                touched += 1
                if was is not None:
                    self._unlink(was[2].dest_id.value, was)
                if ptr is not None:
                    rank = base + position
                    if base:            # past 256: one shared int per rank
                        rank = _RANKS.setdefault(rank, rank)
                    entry = (seq, rank, ptr) + rider
                    bisect.insort(self._entry_for(ptr.dest_id.value).ptrs,
                                  entry)
                    group.append(entry)
            # Stored exact-size; an unchanged group keeps its tuple.
            kept.append(olds if group is None else tuple(group))
        self._contrib[owner_iv] = (seq, *kept)
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
        """Re-diff the dirty owners and sync; returns the up-to-date index."""
        if self._dirty_owners:
            with perf.timed(self._flush_timer):
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
        if self._dirty_owners:
            self.flush()
        return self._columns
