"""Versioned on-disk snapshots of complete simulation state.

Format — self-describing, one file::

    line 1   JSON header: {"magic": "repro-snapshot",
                           "schema": SCHEMA_VERSION,
                           "kind": "...", "state_hash": "...",
                           "counts": {...}, "meta": {...}}
    line 2+  zlib-compressed pickle of the network object graph

The header is plain UTF-8 JSON terminated by a newline, so ``head -1``
(or :func:`describe`) can inspect a snapshot without touching the
payload.  The payload is streamed both ways: ``save`` deflates each
pickle frame into the file as the pickler writes it, and ``load``
inflates the file into the unpickler as it reads, so neither holds the
whole pickle or the whole compressed payload.  The ``state_hash``
recorded at save time is the canonical digest from
:mod:`repro.snapshot.codec`; ``load(verify=True)`` recomputes it over
the revived graph and refuses to return silently-corrupt state.

What a snapshot covers (and what it deliberately does not):

* the full routing state — rings, pointer caches, virtual nodes, finger
  tables, Bloom peering state, LSDBs;
* every live RNG stream position (via :class:`repro.util.rng.RngRegistry`
  and ``random.Random.getstate()``), so a loaded network continues the
  *same* random tape — replays are byte-identical;
* derived caches (SPF trees, BGP oracle tables, policy memos) are
  **rebuild-on-load**: their owners drop them in ``__getstate__`` and
  repopulate lazily, keeping files small and the hash history-free —
  but for the interdomain path memo, which the pickle (never the hash)
  carries, because pointers share its tuples.

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
from typing import Any, BinaryIO, Dict, Iterator, Optional

from repro.snapshot.codec import gc_paused, state_hash_of
from repro.util import perf

#: Bump on any incompatible change to the header, payload layout or
#: canonical byte stream (9: DESIGN.md §10, "Schema 9").
SCHEMA_VERSION = 9
MAGIC = "repro-snapshot"

#: What every header carries besides ``magic`` and ``schema``, and as what.
_HEADER_FIELDS = {"kind": str, "state_hash": str, "counts": dict,
                  "meta": dict}

#: zlib level 1 writes a 5k-host pickle at ~0.4 of its size (4.82 -> 1.89
#: MiB on the ``inter_5k`` benchmark shape, 4.89 -> 2.14 on ``intra_5k``)
#: in 0.058 / 0.065 s.  Level 6 takes 0.157 / 0.143 s, 0.10 / 0.08 s more
#: of a ~0.7 / ~0.6 s save, for files 8 % / 15 % smaller (1.75 / 1.86
#: MiB); level 9 takes 0.79 / 0.56 s for 1-2 % less again (schema 9, one
#: core of a 2-core x86 VM).  ``load`` reads a payload of any level.
_ZLIB_LEVEL = 1

#: Compressed bytes a load reads at a time.
_READ_CHUNK = 1 << 16


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

    Pending candidate-index maintenance is left pending: the indexes are
    derived state that ``__getstate__`` drops, so neither the hash nor the
    pickle sees whether it has run.  Hash, pickle and compression share
    one pause of the cyclic GC, and the payload is deflated into the
    file as it is pickled.
    """
    with gc_paused():
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
        with perf.timed("snapshot.save"), _replace_file(path) as fh:
            line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
            fh.write(line)
            payload = _Deflater(fh)
            pickle.Pickler(payload, protocol=pickle.HIGHEST_PROTOCOL).dump(net)
            payload.finish()
            size = fh.tell() - len(line)
    perf.counter("snapshot.saved")
    perf.observe("snapshot.bytes", size)
    return digest


@contextlib.contextmanager
def _replace_file(path: str) -> Iterator[BinaryIO]:
    """A file to write ``path``'s new bytes to, all or nothing.

    The bytes go to a temp file beside ``path`` that takes its name when
    the block ends, so a write or a pickle that fails midway leaves the
    previous snapshot in place rather than a truncated one.
    """
    tmp = "{}.{}.tmp".format(os.fspath(path), os.getpid())
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class _Deflater:
    """The mirror of :class:`_Inflater`: the pickle after a snapshot
    header, deflated into the file frame by frame as :class:`pickle.Pickler`
    writes it (``write`` is the file protocol it asks for), so neither the
    whole pickle nor the whole compressed payload is ever in memory.

    One ``compressobj`` spans every frame, so the payload is one zlib
    stream that inflates to exactly ``pickle.dumps(net)``.
    """

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self._zlib = zlib.compressobj(_ZLIB_LEVEL)

    def write(self, data: bytes) -> None:
        self._fh.write(self._zlib.compress(data))

    def finish(self) -> None:
        """End the stream: its buffered tail and checksum."""
        self._fh.write(self._zlib.flush())


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


class _Inflater:
    """The zlib payload after a snapshot header, inflated as the unpickler
    reads it (``read`` and ``readline`` are the file protocol
    :class:`pickle.Unpickler` asks for), so neither the compressed payload
    nor the whole pickle is ever in memory.

    A ``decompressobj`` does not raise on a stream that stops early, so a
    file that ends first is refused here; :meth:`finish` refuses anything
    after the pickle, inflated or not.
    """

    def __init__(self, fh: io.BufferedReader):
        self._fh = fh
        self._zlib = zlib.decompressobj()
        self._buffer = bytearray()

    def _inflate(self) -> bool:
        """Inflate more of the stream into the buffer; False at its end."""
        stream = self._zlib
        while not stream.eof:
            chunk = self._fh.read(_READ_CHUNK)
            if not chunk:
                raise ValueError("the zlib stream is truncated")
            data = stream.decompress(chunk)
            if data:
                self._buffer += data
                return True
        return False

    def read(self, size: int = -1) -> bytes:
        buffer = self._buffer
        while size < 0 or len(buffer) < size:
            if not self._inflate():
                break
        if size < 0:
            size = len(buffer)
        data = bytes(buffer[:size])
        del buffer[:size]
        return data

    def readline(self) -> bytes:
        buffer = self._buffer
        while b"\n" not in buffer:
            if not self._inflate():
                break
        return self.read(buffer.find(b"\n") + 1 or len(buffer))

    def finish(self) -> None:
        """Check that the pickle ends where the stream and the file do
        (which also checks the stream's checksum)."""
        if self.read():
            raise ValueError("inflated bytes trail the pickle")
        if self._zlib.unused_data or self._fh.read(1):
            raise ValueError("bytes trail the zlib stream")


def load(path: str, verify: bool = False) -> Any:
    """Revive the network saved at ``path``.

    The payload is inflated into the unpickler chunk by chunk, and must
    end exactly where the file does.  With ``verify=True`` the canonical
    state hash is recomputed over the revived graph and checked against
    the header — catching corrupt payloads *and* code drift that changes
    serialized state shape.
    """
    with perf.timed("snapshot.load"), open(path, "rb") as fh:
        header = _read_header(fh, path)
        try:
            with gc_paused():
                payload = _Inflater(fh)
                net = pickle.Unpickler(payload).load()
                payload.finish()
                # Nothing revived is garbage: move it all straight to the
                # oldest generation (two O(1) list splices), or the first
                # young collection after the pause traverses the whole
                # graph — a quarter of a load.  Skipped when the caller
                # has frozen objects of its own, which must stay frozen.
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
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
