"""Checkpoint/restore of complete simulation state (DESIGN.md §10).

Public API::

    from repro import snapshot

    digest = snapshot.save(net, "net.snap")       # flushes, hashes, writes
    net2   = snapshot.load("net.snap", verify=True)
    snapshot.state_hash(net) == snapshot.state_hash(net2)   # True
    snapshot.describe("net.snap")                  # header dict, cheap
    snapshot.validate_network(net2)                # invariant probe sweep

The determinism contract: building a network from seed *S* and loading a
snapshot of a network built from seed *S* yield state with the same
canonical hash, and every subsequent random draw (host plans, workload
tapes, failure schedules) continues identically — "same seed, same
hash, same future".
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.snapshot.codec import (CanonicalizationError, canonical_update,
                                  state_hash_of)
from repro.snapshot.store import (MAGIC, SCHEMA_VERSION, SchemaMismatchError,
                                  SnapshotError, describe, load, save,
                                  state_hash)

__all__ = [
    "CanonicalizationError",
    "MAGIC",
    "SCHEMA_VERSION",
    "SchemaMismatchError",
    "SnapshotError",
    "canonical_update",
    "describe",
    "load",
    "save",
    "state_hash",
    "state_hash_of",
    "validate_network",
]


def validate_network(net: Any) -> List[Dict[str, Any]]:
    """Run the standard invariant probes once; returns violations found.

    A loaded snapshot should be indistinguishable from a live network —
    this sweeps the standard probes of its kind and returns
    ``probe.summary()`` so callers can assert it is empty.
    """
    from repro.obs.probes import ProbeSet

    probes = ProbeSet.for_network(net)
    probes.tick(0.0)
    return probes.summary()
