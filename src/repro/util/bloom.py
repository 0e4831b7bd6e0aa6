"""Bloom filters, built from scratch (paper Sections 4.1, 4.2, 6.3).

ROFL uses Bloom filters in two places:

* border routers "may optionally maintain bloom filters that summarize the
  set of hosts in the subtree rooted at the AS", consulted when deciding
  whether a packet may cross a peering link;
* ASes that use interdomain pointer caches consult the same filters to
  avoid cache entries that would violate the isolation property.

The implementation uses the standard Kirsch–Mitzenmacher double-hashing
construction (two independent SHA-256-derived hashes combined as
``h1 + i*h2``), which preserves the asymptotic false-positive behaviour of
``k`` independent hash functions.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Iterable, List, Tuple


def _hash_pair(item: Hashable) -> Tuple[int, int]:
    """Two independent 64-bit hashes of ``item`` via SHA-256."""
    if isinstance(item, bytes):
        data = b"B" + item
    elif isinstance(item, str):
        data = b"S" + item.encode("utf-8")
    elif isinstance(item, int):
        data = b"I" + item.to_bytes((item.bit_length() + 8) // 8 + 1, "big", signed=True)
    else:
        # Fall back to repr for structured items (e.g. FlatId), which have
        # deterministic reprs in this codebase.
        data = b"R" + repr(item).encode("utf-8")
    digest = hashlib.sha256(data).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:16], "big") | 1  # odd => full period
    return h1, h2


class BloomFilter:
    """A plain Bloom filter over arbitrary hashable items."""

    def __init__(self, n_bits: int, n_hashes: int):
        if n_bits <= 0 or n_hashes <= 0:
            raise ValueError("n_bits and n_hashes must be positive")
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self._bits = 0  # arbitrary-precision int as a bit vector
        self.n_items = 0

    def _positions(self, item: Hashable) -> Iterable[int]:
        h1, h2 = _hash_pair(item)
        for i in range(self.n_hashes):
            yield (h1 + i * h2) % self.n_bits

    def mask_of(self, item: Hashable) -> int:
        """The bits ``item`` sets, as one int that :meth:`add_mask` applies
        to any filter of this geometry — one hash for many filters."""
        mask = 0
        for pos in self._positions(item):
            mask |= 1 << pos
        return mask

    def add_mask(self, mask: int) -> None:
        self._bits |= mask
        self.n_items += 1

    def add(self, item: Hashable) -> None:
        self.add_mask(self.mask_of(item))

    def __contains__(self, item: Hashable) -> bool:
        return all(self._bits >> pos & 1 for pos in self._positions(item))

    @property
    def size_bits(self) -> int:
        """State size in bits — the unit the paper reports (e.g. 74 Mbit/AS)."""
        return self.n_bits

    def __repr__(self) -> str:
        return "BloomFilter(bits={}, hashes={}, items={})".format(
            self.n_bits, self.n_hashes, self.n_items)


class CountingBloomFilter(BloomFilter):
    """A Bloom filter supporting removal, used where host churn must be
    reflected in the subtree summaries (hosts leave as well as join)."""

    def __init__(self, n_bits: int, n_hashes: int):
        super().__init__(n_bits, n_hashes)
        self._counts: List[int] = [0] * self.n_bits

    def add(self, item: Hashable) -> None:
        for pos in self._positions(item):
            self._counts[pos] += 1
            self._bits |= 1 << pos
        self.n_items += 1

    def add_mask(self, mask: int) -> None:
        raise TypeError("a counting filter counts per position; use add()")

    def remove(self, item: Hashable) -> bool:
        """Remove ``item`` if (apparently) present; returns success."""
        positions = list(self._positions(item))
        if not all(self._counts[pos] > 0 for pos in positions):
            return False
        for pos in positions:
            self._counts[pos] -= 1
            if self._counts[pos] == 0:
                self._bits &= ~(1 << pos)
        self.n_items = max(0, self.n_items - 1)
        return True

    @property
    def size_bits(self) -> int:
        # 4-bit counters, the classical counting-bloom sizing.
        return self.n_bits * 4
