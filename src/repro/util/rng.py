"""Deterministic randomness helpers.

Every experiment in the harness is seeded; sub-seeds are derived with
:func:`derive_rng` so that adding a new consumer of randomness never
perturbs the streams of existing ones (no shared global RNG state).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Tuple


def stable_hash(*parts) -> int:
    """A process-independent 64-bit hash (unlike builtin ``hash``)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:8], "big")


def derive_rng(seed, *scope) -> random.Random:
    """A fresh :class:`random.Random` keyed on ``(seed, *scope)``.

    ``scope`` labels the consumer (e.g. ``("topology", isp_name)``) so each
    subsystem gets an independent stream from one experiment seed.
    """
    return random.Random(stable_hash(seed, *scope))


class RngRegistry:
    """All derived streams of one seeded simulation, keyed by scope.

    ``derive(*scope)`` returns the cached stream for that scope (creating
    it via :func:`derive_rng` on first use), so every consumer that holds
    randomness long-term gets it from here and the registry holds *every*
    live stream.  Registries pickle with their streams, which is what
    lets a :mod:`repro.snapshot` resume each stream at its exact position
    instead of silently resetting the tapes on load.  Scope elements must
    be hashable and ``repr``-stable (strings, ints, tuples — the same
    contract :func:`stable_hash` already imposes).
    """

    def __init__(self, seed) -> None:
        self.seed = seed
        self._streams: Dict[Tuple, random.Random] = {}

    def derive(self, *scope) -> random.Random:
        """The cached stream for ``scope`` (seeded on first use)."""
        stream = self._streams.get(scope)
        if stream is None:
            stream = self._streams[scope] = derive_rng(self.seed, *scope)
        return stream

    def __len__(self) -> int:
        return len(self._streams)

    def __repr__(self) -> str:
        return "RngRegistry(seed={!r}, streams={})".format(self.seed,
                                                           len(self._streams))


def zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    """Normalised Zipf weights ``w_k ∝ 1/k^exponent`` for ranks 1..n.

    Used to spread hosts over ASes/ISPs: the paper observes "a highly
    uneven distribution of hosts across ASes in the Internet" and uses
    skitter traces to estimate it; a Zipf law is the standard synthetic
    stand-in.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    raw = [1.0 / (k ** exponent) for k in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def sample_zipf_counts(rng: random.Random, n_bins: int, total: int,
                       exponent: float = 1.0) -> List[int]:
    """Split ``total`` items over ``n_bins`` bins with Zipf popularity.

    Bin order is shuffled so that bin index does not correlate with size.
    Every bin receives at least zero; the counts always sum to ``total``.
    """
    weights = zipf_weights(n_bins, exponent)
    rng.shuffle(weights)
    counts = [int(w * total) for w in weights]
    # Distribute the rounding remainder one by one to random bins.
    shortfall = total - sum(counts)
    for _ in range(shortfall):
        counts[rng.randrange(n_bins)] += 1
    return counts
