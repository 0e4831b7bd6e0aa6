"""Flat identifiers and circular-namespace arithmetic.

The paper wraps 128-bit identifiers "to create a circular namespace and, as
in Chord, we use the notions of successor and predecessor" (Section 2.1).
Routing is greedy: "a packet destined for an ID is sent in the direction of
the pointer that is closest, but not past, the destination ID" (Section 2.2).
This module is the single source of truth for that arithmetic; every other
subsystem (intradomain rings, Canon merging, fingers, caches) goes through
it, so the namespace size is configurable in one place and properties such
as "greedy progress is monotone" can be tested once.
"""

from __future__ import annotations

import hashlib
from functools import total_ordering
from typing import Iterable, Optional

DEFAULT_BITS = 128


@total_ordering
class FlatId:
    """An immutable flat label in a ``2**bits`` circular namespace.

    Instances are hashable and totally ordered by numeric value, which is
    the *linear* order used to keep sorted rings; circular comparisons
    (successorship, clockwise distance) live on :class:`RingSpace`.
    """

    __slots__ = ("value", "bits", "_hash")

    def __init__(self, value: int, bits: int = DEFAULT_BITS):
        if bits <= 0:
            raise ValueError("bits must be positive")
        self.value = value % (1 << bits)
        self.bits = bits

    @classmethod
    def from_bytes(cls, data: bytes, bits: int = DEFAULT_BITS) -> "FlatId":
        """Derive an identifier by hashing ``data`` into the namespace.

        This is how self-certifying IDs are formed: the identifier is "a
        hash of its public key".
        """
        digest = hashlib.sha256(data).digest()
        return cls(int.from_bytes(digest, "big"), bits=bits)

    @classmethod
    def from_hex(cls, text: str, bits: int = DEFAULT_BITS) -> "FlatId":
        return cls(int(text, 16), bits=bits)

    def to_hex(self) -> str:
        width = (self.bits + 3) // 4
        return format(self.value, "0{}x".format(width))

    def prefix_bits(self, n: int) -> int:
        """The top ``n`` bits, used by prefix-based finger tables."""
        if not 0 <= n <= self.bits:
            raise ValueError("prefix length out of range")
        return self.value >> (self.bits - n) if n else 0

    def digit(self, row: int, base_bits: int) -> int:
        """Digit ``row`` of the ID when written in base ``2**base_bits``.

        Row 0 is the most significant digit; this is the Pastry-style view
        used by the proximity finger tables (Section 4.1).
        """
        shift = self.bits - (row + 1) * base_bits
        if shift < 0:
            raise ValueError("row out of range for this namespace")
        return (self.value >> shift) & ((1 << base_bits) - 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FlatId)
            and self.value == other.value
            and self.bits == other.bits
        )

    def __lt__(self, other: "FlatId") -> bool:
        if not isinstance(other, FlatId):
            return NotImplemented
        return self.value < other.value

    def __hash__(self) -> int:
        # Hashing only the value keeps equal IDs hash-equal (equality
        # implies equal values); the result is memoised because IDs are
        # immutable and live in many dict-keyed hot paths.
        try:
            return self._hash
        except AttributeError:
            result = self._hash = hash(self.value)
            return result

    def __repr__(self) -> str:
        return "FlatId(0x{}…)".format(self.to_hex()[:8])


class RingSpace:
    """Circular-namespace arithmetic over ``2**bits`` labels.

    Distances are clockwise (increasing value, wrapping), as in Chord.
    """

    def __init__(self, bits: int = DEFAULT_BITS):
        if bits <= 0:
            raise ValueError("bits must be positive")
        self.bits = bits
        self.size = 1 << bits
        #: ``size - 1``; with a power-of-two namespace, ``x & mask`` is the
        #: wrap used by the int-domain fast paths below.
        self.mask = self.size - 1

    def make(self, value: int) -> FlatId:
        return FlatId(value, bits=self.bits)

    def hash_of(self, data: bytes) -> FlatId:
        return FlatId.from_bytes(data, bits=self.bits)

    def distance_cw(self, a: FlatId, b: FlatId) -> int:
        """Clockwise (increasing-value, wrapping) distance from ``a`` to ``b``."""
        return (b.value - a.value) % self.size

    def progress(self, current: FlatId, candidate: FlatId, dest: FlatId) -> Optional[int]:
        """Clockwise progress made by ``candidate`` toward ``dest``.

        Returns the distance advanced, or ``None`` if the candidate would
        overshoot (be "past" the destination) and is therefore not an
        admissible greedy hop.  Landing exactly on ``dest`` is maximal
        progress.
        """
        to_dest = self.distance_cw(current, dest)
        advanced = self.distance_cw(current, candidate)
        if advanced > to_dest:
            return None
        return advanced

    def closest_not_past(
        self, current: FlatId, dest: FlatId, candidates: Iterable[FlatId]
    ) -> Optional[FlatId]:
        """The greedy next hop: closest candidate to ``dest`` that is not past it.

        This is the rule of Algorithm 2 in the paper, evaluated by a linear
        scan: the oracle the ring-invariant tests hold
        ``SortedRingMap.closest_not_past_value`` (:mod:`repro.util.ringmap`,
        one bisect over a maintained sorted key set) against.  Returns
        ``None`` when no candidate makes strictly positive progress.
        """
        best = None
        best_advance = 0
        for cand in candidates:
            advanced = self.progress(current, cand, dest)
            if advanced is not None and advanced > best_advance:
                best, best_advance = cand, advanced
        return best

    # -- int-domain fast paths ---------------------------------------------------
    #
    # The greedy inner loops (forwarding, router indexes, ring maps) run
    # these operations millions of times per experiment.  Working on raw
    # ``int`` values skips FlatId allocation, ``total_ordering`` dispatch
    # and tuple hashing; the property tests assert each variant returns
    # exactly what its FlatId counterpart returns.

    def distance_cw_i(self, a: int, b: int) -> int:
        """Int-domain :meth:`distance_cw` over raw ``.value`` ints."""
        return (b - a) & self.mask

    def progress_i(self, current: int, candidate: int, dest: int) -> Optional[int]:
        """Int-domain :meth:`progress`."""
        mask = self.mask
        advanced = (candidate - current) & mask
        if advanced > ((dest - current) & mask):
            return None
        return advanced

    def __repr__(self) -> str:
        return "RingSpace(bits={})".format(self.bits)
