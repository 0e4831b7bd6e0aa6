"""The walker ``repro.snapshot.codec`` had before it was compiled (PR 14),
kept verbatim as the executable specification of the canonical byte
format: ``tests/test_codec.py`` requires the shipped encoder to emit the
same *stream* — not just the same digest — for every graph it can draw.

Do not optimise or tidy this file; its value is that it does not change.
The one sanctioned edit since came and went with its subject: snapshot
schema 2 (PR 20) added an ``X`` production for ``nx.Graph`` here and to
the shipped encoder together, and schema 3 (PR 22) took it out of both
again — the package holds no networkx graph any more, its adjacency dicts
are ordinary values.  The file is byte for byte as PR 14 found it.
"""

from __future__ import annotations

import enum
import itertools
import random
from array import array
from typing import Any, Callable, Dict

from repro.idspace.identifier import FlatId
from repro.snapshot.codec import CanonicalizationError


def _len_prefixed(tag: bytes, payload: bytes) -> bytes:
    return tag + str(len(payload)).encode("ascii") + b":" + payload


class _Walker:
    """One canonical walk over an object graph, streaming into ``update``."""

    def __init__(self, update: Callable[[bytes], None]):
        self.update = update
        self._memo: Dict[int, int] = {}
        self._visit = itertools.count()
        # Keep encoded objects alive for the walk: ``id()`` values are
        # only unique among *live* objects, and properties/iterators can
        # mint temporaries whose ids would otherwise be recycled.
        self._keepalive: list = []

    # -- containers ---------------------------------------------------------

    def _sub_bytes(self, obj: Any) -> bytes:
        """Encode ``obj`` into standalone bytes (for sort keys).

        Shares this walk's memo so revisits stay consistent between the
        sort-key pass and the streaming pass.
        """
        chunks: list = []
        saved = self.update
        self.update = chunks.append
        try:
            self.encode(obj)
        finally:
            self.update = saved
        return b"".join(chunks)

    def _enter(self, obj: Any) -> bool:
        """Memoise ``obj``; True when already emitted (a back-ref)."""
        key = id(obj)
        index = self._memo.get(key)
        if index is not None:
            self.update(b"R" + str(index).encode("ascii") + b";")
            return True
        self._memo[key] = next(self._visit)
        self._keepalive.append(obj)
        return False

    # -- the dispatch -------------------------------------------------------

    def encode(self, obj: Any) -> None:  # noqa: C901 - a type switch
        update = self.update
        if obj is None:
            update(b"N;")
            return
        kind = type(obj)
        if kind is bool:
            update(b"T;" if obj else b"F;")
            return
        if kind is int:
            # hex() has no CPython digit-count ceiling; str() rejects
            # >4300-digit ints (Bloom-peering bitfields are far larger).
            update(b"i" + hex(obj).encode("ascii") + b";")
            return
        if kind is float:
            update(b"f" + repr(obj).encode("ascii") + b";")
            return
        if kind is str:
            update(_len_prefixed(b"s", obj.encode("utf-8")))
            return
        if kind is bytes:
            update(_len_prefixed(b"b", obj))
            return
        if kind is bytearray:
            update(_len_prefixed(b"y", bytes(obj)))
            return
        if kind is FlatId:
            update(b"I" + str(obj.value).encode("ascii") + b","
                   + str(obj.bits).encode("ascii") + b";")
            return
        if isinstance(obj, enum.Enum):
            update(_len_prefixed(
                b"E", "{}.{}".format(type(obj).__name__,
                                     obj.name).encode("utf-8")))
            return
        if kind in (list, tuple) or isinstance(obj, (list, tuple)):
            if self._enter(obj):
                return
            update(b"[" if isinstance(obj, list) else b"(")
            for item in obj:
                self.encode(item)
            update(b"]" if isinstance(obj, list) else b")")
            return
        if isinstance(obj, (set, frozenset)):
            if self._enter(obj):
                return
            update(b"<")
            for item_bytes in sorted(self._sub_bytes(item) for item in obj):
                update(item_bytes)
            update(b">")
            return
        if isinstance(obj, dict):
            self._encode_dict(obj)
            return
        if isinstance(obj, random.Random):
            if self._enter(obj):
                return
            update(b"G")
            self.encode(obj.getstate())
            return
        if kind is array:
            update(_len_prefixed(
                b"A", obj.typecode.encode("ascii") + b":"
                + ",".join(str(v) for v in obj).encode("ascii")))
            return
        if isinstance(obj, type(len)) or callable(obj) and hasattr(
                obj, "__qualname__"):
            self._encode_callable(obj)
            return
        if kind is itertools.count:
            update(_len_prefixed(b"C", repr(obj).encode("ascii")))
            return
        self._encode_object(obj)

    def _encode_dict(self, obj: dict) -> None:
        if self._enter(obj):
            return
        self.update(b"{")
        # Sort items by encoded key.  Keys are encoded once (into the
        # shared memo) and streamed verbatim; values stream in key order.
        pairs = sorted((self._sub_bytes(key), value)
                       for key, value in obj.items())
        for key_bytes, value in pairs:
            self.update(key_bytes)
            self.encode(value)
        self.update(b"}")

    def _encode_callable(self, obj: Any) -> None:
        bound = getattr(obj, "__self__", None)
        name = "{}.{}".format(getattr(obj, "__module__", "?"),
                              getattr(obj, "__qualname__", repr(type(obj))))
        self.update(_len_prefixed(b"M" if bound is not None else b"L",
                                  name.encode("utf-8")))
        if bound is not None and not isinstance(bound, type):
            self.encode(bound)

    def _encode_object(self, obj: Any) -> None:
        if self._enter(obj):
            return
        cls = type(obj)
        try:
            state = obj.__getstate__()
        except Exception as exc:
            raise CanonicalizationError(
                "cannot canonicalize {!r} instance: {}".format(
                    cls.__name__, exc))
        self.update(_len_prefixed(
            b"O", "{}.{}".format(cls.__module__,
                                 cls.__qualname__).encode("utf-8")))
        # ``object.__getstate__`` yields dict / (dict, slots) shapes;
        # dict *subclass* items are not part of either, so fold them in
        # explicitly (HostTable, collections.Counter, ...).
        if isinstance(obj, dict):
            self._encode_dict(dict(obj))
        self.encode(state)
        self.update(b"o")


def reference_update(obj: Any, update: Callable[[bytes], None]) -> None:
    """What ``canonical_update`` did at the parent commit."""
    _Walker(update).encode(obj)
