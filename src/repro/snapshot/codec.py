"""Canonical state encoding — the byte form behind ``state_hash``.

Two simulations hold *the same state* when their object graphs carry the
same values, regardless of memory addresses, set iteration order (which
``PYTHONHASHSEED`` perturbs across processes), or how warm any derived
cache happens to be.  This module walks an object graph into a canonical
byte stream with exactly those properties:

* dict items are emitted sorted by the canonical encoding of their keys,
  sets and frozensets sorted by the canonical encoding of their elements;
* objects are encoded through their ``__getstate__()`` — the *same*
  reduction pickle uses — so classes that mark derived caches
  rebuild-on-load (``PathCache``, ``BgpBaseline``, ``PolicyView``,
  ``ASGraph``) are hashed without them, and the hash of a saved network
  equals the hash of its loaded twin by construction.  A record — a
  named tuple (the pointers), or a slotted dataclass that keeps
  ``object.__getstate__`` (the virtual nodes) — is written as its
  dict-backed twin would be, without a state dict being built;
* shared references and cycles are handled with a visit-order memo, so
  structurally identical graphs built in different processes (or
  round-tripped through :mod:`repro.snapshot.store`) hash identically;
* RNG streams hash by their ``getstate()`` tuples — a stream that has
  advanced is different state, which is what makes
  "same seed → same hash" a *checkable* invariant rather than a slogan.

The byte grammar is tabulated in DESIGN.md §10 and pinned by
``tests/codec_reference.py``, the walker this one replaced, which the
tests keep as the executable specification of the stream.

The encoder is *compiled* in the sense that whatever depends only on a
type is worked out once per walk rather than once per value: an
exact-type table picks the encoder of a leaf or container, the
``O<len>:<module.qualname>`` header is built once per class, the
encoded, sorted attribute names of an object's state once per
``__dict__`` shape, and a record's sorted fields and the one
``operator.attrgetter`` that reads them once per class.  A ``str`` is
encoded once per walk (router and host names recur in every pointer
path), and a back-reference is resolved
where the value is met, before any container code runs.  Pieces gather
in a small buffer that is joined into the sink every couple of thousand
pieces; nothing else is materialised beyond per-dict key buffers.  The
walk runs with the cyclic GC paused (:func:`gc_paused`).
"""

from __future__ import annotations

import contextlib
import copyreg
import dataclasses
import enum
import gc
import hashlib
import itertools
import operator
import random
from array import array
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.idspace.identifier import FlatId


class CanonicalizationError(TypeError):
    """Raised when an object cannot be canonically encoded."""


#: Pieces buffered before they are joined into the sink.  A few thousand
#: amortise the ``update`` call; tens of thousands show up in peak RSS.
_FLUSH_PIECES = 2048


@contextlib.contextmanager
def gc_paused():
    """Suspend the cyclic GC for one snapshot operation, then restore
    whatever state it was in, on every exit.

    A walk, pickle or unpickle of a 5k-host network allocates millions of
    tracked containers; with the collector live, threshold-triggered
    passes over the network (13 % of a save, measured) find nothing,
    because nothing the operation allocates is garbage before it returns.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _len_prefixed(tag: bytes, payload: bytes) -> bytes:
    return b"%b%d:%b" % (tag, len(payload), payload)


# -- leaves -------------------------------------------------------------------
# One function per exact leaf type, value -> bytes.  Leaves never touch the
# memo, so the same encoders serve values, dict keys and set members.

def _str(obj: str) -> bytes:
    payload = obj.encode("utf-8")
    return b"s%d:%b" % (len(payload), payload)


def _int(obj: int) -> bytes:
    # Hex has no CPython digit-count ceiling; decimal conversion rejects
    # >4300-digit ints (Bloom-peering bitfields are far larger).
    return b"i%#x;" % obj


def _flat_id(obj: FlatId) -> bytes:
    return b"I%d,%d;" % (obj.value, obj.bits)


#: The leaf encoders; each walk uses a copy whose ``str`` entry caches.
_LEAVES: Dict[type, Callable[[Any], bytes]] = {
    str: _str,
    int: _int,
    FlatId: _flat_id,
    type(None): lambda obj: b"N;",
    bool: lambda obj: b"T;" if obj else b"F;",
    float: lambda obj: b"f%b;" % repr(obj).encode("ascii"),
    bytes: lambda obj: _len_prefixed(b"b", obj),
    bytearray: lambda obj: _len_prefixed(b"y", obj),
}


class _StrCodes(dict):
    """``str`` -> its encoding, made on first sight: a lookup is a C call,
    and one walk meets the same router names in tens of thousands of
    pointer paths."""

    def __missing__(self, obj: str) -> bytes:
        code = self[obj] = _str(obj)
        return code


class _Walker:
    """One canonical walk over an object graph, buffered into ``update``.

    References run walker -> buffer/memo/caches only (the dispatch tables
    are module-level plain functions, the ``str`` cache a dict), so the
    walker and the memo it keeps alive are freed by refcount the moment
    the walk returns, GC paused or not.

    Every site that meets a non-leaf value looks it up in the memo first
    and emits the back-reference itself; the container encoders below are
    only ever handed an object the walk has not seen, and just register it.
    Only memoisable objects are in the memo (and kept alive), so no other
    value can match an entry.
    """

    def __init__(self, update: Callable[[bytes], None]):
        self._update = update
        self._buffer: list = []
        #: Where pieces go: the buffer, or a key's own list (``_sub_bytes``).
        self.emit = self._buffer.append
        #: The leaf encoders, ``str`` through this walk's encoding cache.
        self._leaves = dict(_LEAVES)
        self._leaves[str] = _StrCodes().__getitem__
        self._memo: Dict[int, int] = {}
        #: The next visit number.  A record's ``__dict__`` twin takes one
        #: too, with no memo entry behind it, so it is not ``len(memo)``.
        self._visit = itertools.count().__next__
        # Keep encoded objects alive for the walk: ``id()`` values are
        # only unique among *live* objects, and properties/iterators can
        # mint temporaries whose ids would otherwise be recycled.
        self._keepalive: list = []
        #: class -> ``O<len>:<module.qualname>`` for plain-object classes.
        self._headers: Dict[type, bytes] = {}
        #: record class -> its :func:`_record_plan`.
        self._records: Dict[type, tuple] = {}
        #: state-dict key tuple -> (sorted key encodings, keys in that order).
        self._shapes: Dict[tuple, Tuple[tuple, tuple]] = {}

    def flush(self) -> None:
        self._update(b"".join(self._buffer))
        self._buffer.clear()

    def _register(self, obj: Any) -> None:
        """Give ``obj`` the next visit number (it was not in the memo).  The
        rare containers call this; the common ones inline it."""
        self._memo[id(obj)] = self._visit()
        self._keepalive.append(obj)

    def encode(self, obj: Any) -> None:
        kind = type(obj)
        leaf = self._leaves.get(kind)
        if leaf is not None:
            self.emit(leaf(obj))
            return
        index = self._memo.get(id(obj))
        if index is None:
            _CONTAINERS.get(kind, _Walker._fallback)(self, obj)
        else:
            self.emit(b"R%d;" % index)

    # -- containers ---------------------------------------------------------

    def _sub_bytes(self, obj: Any) -> bytes:
        """Encode ``obj`` into standalone bytes (for sort keys).

        Shares this walk's memo so revisits stay consistent between the
        sort-key pass and the streaming pass.
        """
        leaf = self._leaves.get(type(obj))
        if leaf is not None:
            return leaf(obj)
        chunks: list = []
        saved = self.emit
        self.emit = chunks.append
        try:
            self.encode(obj)
        finally:
            self.emit = saved
        return b"".join(chunks)

    def _sequence(self, obj: Any) -> None:
        memo = self._memo
        memo[id(obj)] = self._visit()
        self._keepalive.append(obj)
        emit = self.emit
        is_list = isinstance(obj, list)
        emit(b"[" if is_list else b"(")
        leaves, containers, fallback = (self._leaves, _CONTAINERS,
                                        _Walker._fallback)
        for item in obj:
            kind = type(item)
            leaf = leaves.get(kind)
            if leaf is not None:
                emit(leaf(item))
                continue
            index = memo.get(id(item))
            if index is None:
                containers.get(kind, fallback)(self, item)
            else:
                emit(b"R%d;" % index)
        emit(b"]" if is_list else b")")
        if len(self._buffer) > _FLUSH_PIECES:
            self.flush()

    def _set(self, obj: Any) -> None:
        self._register(obj)
        sub_bytes = self._sub_bytes
        self.emit(b"<%b>" % b"".join(sorted([sub_bytes(item)
                                             for item in obj])))

    def _dict(self, obj: dict) -> None:
        self._memo[id(obj)] = self._visit()
        self._keepalive.append(obj)
        self.emit(b"{")
        # Sort items by encoded key.  Keys are encoded once (into the
        # shared memo) and streamed verbatim; values stream in key order.
        leaves, sub_bytes = self._leaves, self._sub_bytes
        pairs: list = []
        append = pairs.append
        for key, value in obj.items():
            leaf = leaves.get(type(key))
            append((sub_bytes(key) if leaf is None else leaf(key), value))
        pairs.sort()
        self._pairs(pairs)
        self.emit(b"}")

    def _pairs(self, pairs: Iterable[Tuple[bytes, Any]]) -> None:
        """Stream ``(encoded key, value)`` pairs in the order given."""
        emit, memo = self.emit, self._memo
        leaves, containers, fallback = (self._leaves, _CONTAINERS,
                                        _Walker._fallback)
        for key_bytes, value in pairs:
            emit(key_bytes)
            kind = type(value)
            leaf = leaves.get(kind)
            if leaf is not None:
                emit(leaf(value))
                continue
            index = memo.get(id(value))
            if index is None:
                containers.get(kind, fallback)(self, value)
            else:
                emit(b"R%d;" % index)
        if len(self._buffer) > _FLUSH_PIECES:
            self.flush()

    # -- everything the exact-type tables do not know -------------------------

    def _fallback(self, obj: Any) -> None:  # noqa: C901 - a type switch
        kind = type(obj)
        plan = self._records.get(kind)
        header = plan[0] if plan is not None else self._headers.get(kind)
        if header is None:
            if isinstance(obj, enum.Enum):
                self.emit(_len_prefixed(
                    b"E", "{}.{}".format(kind.__name__,
                                         obj.name).encode("utf-8")))
                return
            if isinstance(obj, (list, tuple)) and not _is_named_tuple(kind):
                self._sequence(obj)
                return
            if isinstance(obj, (set, frozenset)):
                self._set(obj)
                return
            if isinstance(obj, dict):
                self._dict(obj)
                return
            if isinstance(obj, random.Random):
                self._register(obj)
                self.emit(b"G")
                self.encode(obj.getstate())
                return
            if kind is array:
                self.emit(_len_prefixed(
                    b"A", obj.typecode.encode("ascii") + b":"
                    + ",".join(str(v) for v in obj).encode("ascii")))
                return
            if isinstance(obj, type(len)) or callable(obj) and hasattr(
                    obj, "__qualname__"):
                self._callable(obj)
                return
            if kind is itertools.count:
                self.emit(_len_prefixed(b"C", repr(obj).encode("ascii")))
                return
            header = _len_prefixed(b"O", "{}.{}".format(
                kind.__module__, kind.__qualname__).encode("utf-8"))
            plan = _record_plan(kind, header)
            # Every test above but ``hasattr(obj, "__qualname__")`` looks
            # at the type alone; non-callable classes skip them next time.
            if not callable(obj):
                if plan is None:
                    self._headers[kind] = header
                else:
                    self._records[kind] = plan
        visit = self._visit
        self._memo[id(obj)] = visit()
        self._keepalive.append(obj)
        if plan is not None:
            _, names, keys, values = plan
            emit = self.emit
            emit(header)
            try:
                pairs = zip(keys, values(obj))
            except AttributeError:      # a field left unset: those that are
                self._state_dict({name: getattr(obj, name) for name in names
                                  if hasattr(obj, name)})
            else:
                # The dict-backed twin's ``__dict__`` takes the next visit
                # number; no object stands behind it, so nothing can ever
                # refer back to it, and it takes no memo entry.
                visit()
                emit(b"{")
                self._pairs(pairs)
                emit(b"}")
            emit(b"o")
            return
        try:
            state = obj.__getstate__()
        except Exception as exc:
            raise CanonicalizationError(
                "cannot canonicalize {!r} instance: {}".format(
                    kind.__name__, exc))
        self.emit(header)
        if type(state) is dict:
            self._state_dict(state)
        else:
            self.encode(state)
        self.emit(b"o")

    def _state_dict(self, state: dict) -> None:
        """``_dict`` for ``__getstate__`` dicts: attribute names are
        encoded and sorted once per shape, not once per instance —
        instances of a class share a handful of ``__dict__`` shapes."""
        # Not met at a dispatch site: ``object.__getstate__`` returns the
        # instance's own ``__dict__``, which may be a value elsewhere too.
        memo = self._memo
        index = memo.get(id(state))
        if index is not None:
            self.emit(b"R%d;" % index)
            return
        keys = tuple(state)
        # Checked per instance: a tuple of ``str``-subclass keys, which
        # encode as objects, equals (and hashes as) the tuple of ``str``.
        for key in keys:
            if type(key) is not str:
                self._dict(state)
                return
        memo[id(state)] = self._visit()
        self._keepalive.append(state)
        shape = self._shapes.get(keys)
        if shape is None:
            ordered = sorted((_str(key), key) for key in keys)
            shape = self._shapes[keys] = (
                tuple(key_bytes for key_bytes, _ in ordered),
                tuple(key for _, key in ordered))
        self.emit(b"{")
        self._pairs(zip(shape[0], map(state.__getitem__, shape[1])))
        self.emit(b"}")

    def _callable(self, obj: Any) -> None:
        bound = getattr(obj, "__self__", None)
        name = "{}.{}".format(getattr(obj, "__module__", "?"),
                              getattr(obj, "__qualname__", repr(type(obj))))
        self.emit(_len_prefixed(b"M" if bound is not None else b"L",
                                name.encode("utf-8")))
        if bound is not None and not isinstance(bound, type):
            self.encode(bound)


def _is_named_tuple(kind: type) -> bool:
    return issubclass(kind, tuple) and hasattr(kind, "_fields")


def _record_plan(kind: type, header: bytes) -> Optional[tuple]:
    """How a record — a named tuple, or a slotted dataclass — streams:
    exactly as its dict-backed twin would, without ``__getstate__`` or a
    state dict.

    ``(header, field names, their encodings sorted, a getter of the
    values in that order)`` — a slotted dataclass's slots are its fields —
    or ``None`` for every other class: one with a ``__dict__``, one with a
    ``__getstate__`` of its own (a frozen slotted dataclass gets one), or
    a slotted class that is no dataclass, which keeps its ``(N;{…})``
    production.
    """
    if _is_named_tuple(kind):
        names = tuple(kind._fields)
    elif (kind.__dictoffset__ or kind.__getstate__ is not object.__getstate__
            or not dataclasses.is_dataclass(kind)):
        return None
    else:
        names = tuple(copyreg._slotnames(kind))
    ordered = sorted((_str(name), name) for name in names)
    in_order = tuple(name for _, name in ordered)
    if len(in_order) > 1:
        values = operator.attrgetter(*in_order)
    else:                           # attrgetter of one name is no tuple
        def values(obj):
            return tuple(getattr(obj, name) for name in in_order)
    return header, names, tuple(key for key, _ in ordered), values


#: Exact container types; subclasses take the ``isinstance`` chain.
_CONTAINERS: Dict[type, Callable[[_Walker, Any], None]] = {
    list: _Walker._sequence,
    tuple: _Walker._sequence,
    dict: _Walker._dict,
}


def canonical_update(obj: Any, update: Callable[[bytes], None]) -> None:
    """Stream the canonical encoding of ``obj`` into ``update``."""
    with gc_paused():
        walker = _Walker(update)
        walker.encode(obj)
        walker.flush()


def state_hash_of(obj: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``."""
    hasher = hashlib.sha256()
    canonical_update(obj, hasher.update)
    return hasher.hexdigest()
