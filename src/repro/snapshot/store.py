"""Versioned on-disk snapshots of complete simulation state.

Format — self-describing, one file::

    line 1   JSON header: {"magic": "repro-snapshot", "schema": 2,
                           "kind": "...", "state_hash": "...",
                           "counts": {...}, "meta": {...}}
    line 2+  zlib-compressed pickle of the network object graph

The header is plain UTF-8 JSON terminated by a newline, so ``head -1``
(or :func:`describe`) can inspect a snapshot without touching the
payload.  The ``state_hash`` recorded at save time is the canonical
digest from :mod:`repro.snapshot.codec`; ``load(verify=True)`` recomputes
it over the revived graph and refuses to return silently-corrupt state.

What a snapshot covers (and what it deliberately does not):

* the full routing state — rings, pointer caches, virtual nodes, finger
  tables, Bloom peering state, LSDBs;
* every live RNG stream position (via :class:`repro.util.rng.RngRegistry`
  and ``random.Random.getstate()``), so a loaded network continues the
  *same* random tape — replays are byte-identical;
* the event loop's virtual clock and pending queue, where present;
* derived caches (SPF trees, BGP oracle tables, policy memos) are
  **rebuild-on-load**: their owners drop them in ``__getstate__`` and
  repopulate lazily, keeping files small and the hash history-free.

Snapshots target *quiescent* networks — between workload phases, not in
the middle of one (mid-phase driver closures are not serializable).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import pickle
import zlib
from typing import Any, Dict, Iterable, Optional

from repro.snapshot.codec import state_hash_of
from repro.util import perf

#: Bump on any incompatible change to the header, payload layout or
#: canonical byte stream (3: DESIGN.md §10, "Schema 3").
SCHEMA_VERSION = 3
MAGIC = "repro-snapshot"

#: What every header carries besides ``magic`` and ``schema``, and as what.
_HEADER_FIELDS = {"kind": str, "state_hash": str, "counts": dict,
                  "meta": dict}

#: zlib level 6 halves 10k-host files for pennies of CPU; 9 costs ~4x
#: the compression time for a further ~2%.
_ZLIB_LEVEL = 6


@contextlib.contextmanager
def _gc_paused():
    """Suspend the cyclic GC across a bulk (un)pickle.

    Reviving a 10k-host graph allocates millions of tracked containers;
    with the collector live, threshold-triggered passes over the
    half-built graph dominate the load (measured ~4x the unpickle time
    itself).  Nothing in a fresh unpickle is garbage yet, so the passes
    find nothing — pause the collector, then restore its prior state.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class SnapshotError(RuntimeError):
    """A snapshot file is unreadable, corrupt, or not a snapshot."""


class SchemaMismatchError(SnapshotError):
    """The snapshot was written by an incompatible schema version."""

    def __init__(self, found: Any, path: str):
        self.found = found
        self.expected = SCHEMA_VERSION
        super().__init__(
            "snapshot {!r} has schema version {!r} but this build reads "
            "version {}; re-create the snapshot with the current code "
            "(snapshots are rebuildable artifacts, not archives)".format(
                path, found, SCHEMA_VERSION))


def state_hash(net: Any) -> str:
    """Canonical SHA-256 of a network's complete serialized state.

    Deterministic across processes and ``PYTHONHASHSEED`` values: two
    networks built by the same code from the same seed hash identically,
    and a loaded snapshot hashes identically to the network it was saved
    from.  Candidate indexes and their pending flushes are derived, not
    state — their owners drop them in ``__getstate__`` — so the hash does
    not depend on whether ``flush_indexes`` has run.
    """
    with perf.timed("snapshot.hash"):
        return state_hash_of(net)


def save(net: Any, path: str, meta: Optional[Dict[str, Any]] = None) -> str:
    """Serialize ``net`` to ``path``; returns the recorded state hash.

    Pending columnar-index maintenance is flushed first so the snapshot
    (and its hash) reflect settled state rather than whichever epoch the
    deferred flush happened to be in.
    """
    net.flush_indexes()
    digest = state_hash(net)
    header = {
        "magic": MAGIC,
        "schema": SCHEMA_VERSION,
        "kind": type(net).__name__,
        "state_hash": digest,
        "counts": {name: value for name, value in net.describe().items()
                   if isinstance(value, int)},
        "meta": dict(meta or {}),
    }
    with perf.timed("snapshot.save"):
        with _gc_paused():
            blob = pickle.dumps(net, protocol=pickle.HIGHEST_PROTOCOL)
        payload = zlib.compress(blob, _ZLIB_LEVEL)
        _replace_file(path, (json.dumps(header, sort_keys=True).encode("utf-8"),
                             b"\n", payload))
    perf.counter("snapshot.saved")
    perf.observe("snapshot.bytes", len(payload))
    return digest


def _replace_file(path: str, parts: Iterable[bytes]) -> None:
    """Write ``parts`` to ``path`` all or nothing.

    The bytes go to a temp file beside ``path`` that then takes its name,
    so a write that fails midway leaves the previous snapshot in place
    rather than a truncated one.
    """
    tmp = "{}.{}.tmp".format(os.fspath(path), os.getpid())
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_header(fh: io.BufferedReader, path: str) -> Dict[str, Any]:
    line = fh.readline()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise SnapshotError(
            "{!r} is not a repro snapshot (unreadable header)".format(path))
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise SnapshotError(
            "{!r} is not a repro snapshot (bad magic)".format(path))
    if header.get("schema") != SCHEMA_VERSION:
        raise SchemaMismatchError(header.get("schema"), path)
    for field, kind in _HEADER_FIELDS.items():
        if not isinstance(header.get(field), kind):
            raise SnapshotError(
                "snapshot {!r} has a malformed header ({!r} missing or not "
                "a {})".format(path, field, kind.__name__))
    return header


def describe(path: str) -> Dict[str, Any]:
    """Read and validate a snapshot's header without loading the payload."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load(path: str, verify: bool = False) -> Any:
    """Revive the network saved at ``path``.

    With ``verify=True`` the canonical state hash is recomputed over the
    revived graph and checked against the header — catching corrupt
    payloads *and* code drift that changes serialized state shape.
    """
    with perf.timed("snapshot.load"):
        with open(path, "rb") as fh:
            header = _read_header(fh, path)
            payload = fh.read()
        try:
            with _gc_paused():
                net = pickle.loads(zlib.decompress(payload))
        except Exception as exc:
            raise SnapshotError(
                "snapshot {!r} payload is corrupt: {}".format(path, exc))
    if verify:
        digest = state_hash(net)
        if digest != header["state_hash"]:
            raise SnapshotError(
                "snapshot {!r} failed verification: stored hash {}… but "
                "revived state hashes {}…".format(
                    path, header["state_hash"][:16], digest[:16]))
    perf.counter("snapshot.loaded")
    return net
