"""The core of ``repro.obs``: cheap causal trace records and sinks.

Every routed packet (or control lookup) can open a *span*; within a span
the forwarding engines emit *records* — decision points tagged with the
rule that chose the next pointer, physical hops linked to the decision
that committed them, cache hits/misses, NACKs, and terminal outcomes.
Records carry monotonic sequence numbers, the simulator's virtual time,
and a causal parent id, so any :class:`repro.sim.stats.PathResult` can be
explained after the fact (see :mod:`repro.obs.explain`) and invariant
probes can subscribe live (see :mod:`repro.obs.probes`).

The layer is **off by default** and designed to vanish from the hot
paths when off: emit sites check the module-level :data:`ENABLED` flag
once per packet (``span = trace.packet_span(...) if trace.ENABLED else
None``) and a local ``is None`` test per hop.  When on, spans are
sampled deterministically from their span id — no RNG draw, so enabling
tracing never perturbs a seeded workload's random streams and a traced
run replays byte-for-byte.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Fast guard consulted by every instrumented hot path.  True exactly
#: while a tracer is installed via :func:`install` / :func:`tracing`.
ENABLED = False

#: The installed tracer (``None`` when tracing is off).
_TRACER: Optional["Tracer"] = None

#: Knuth's multiplicative-hash constant, used for deterministic span
#: sampling (same span id + same sample rate → same keep/drop decision).
_HASH_MULT = 2654435761
_HASH_MOD = 1 << 32


@dataclass
class TraceRecord:
    """One trace event.

    ``span`` groups records of one logical operation (one routed packet);
    ``parent`` is the ``seq`` of the causally preceding record inside the
    span (-1 for span roots), e.g. a ``hop`` record's parent is the
    ``decision`` record that committed the pointer it walks.
    """

    seq: int
    t: float
    span: int
    parent: int
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "t": self.t, "span": self.span,
                "parent": self.parent, "kind": self.kind, "data": self.data}


# ---------------------------------------------------------------------------
# Sinks.
# ---------------------------------------------------------------------------

class NullSink:
    """Discards every record (tracing structure without retention)."""

    def write(self, record: TraceRecord) -> None:
        pass

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keeps the most recent ``capacity`` records in memory."""

    def __init__(self, capacity: Optional[int] = 65536):
        self._buf: deque = deque(maxlen=capacity)

    def write(self, record: TraceRecord) -> None:
        self._buf.append(record)

    def records(self) -> List[TraceRecord]:
        return list(self._buf)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._buf)


class JsonlSink:
    """Streams records as one JSON object per line.

    Output is deterministic (sorted keys, compact separators, no wall
    clock anywhere in a record), so two runs from one seed produce
    byte-identical files — the replay contract the CI smoke checks.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w")

    def write(self, record: TraceRecord) -> None:
        self._fh.write(json.dumps(record.to_dict(), sort_keys=True,
                                  separators=(",", ":")))
        self._fh.write("\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def dump_jsonl(records: List[TraceRecord], path: str) -> None:
    """Write records in the :class:`JsonlSink` format (deterministic)."""
    sink = JsonlSink(path)
    try:
        for record in records:
            sink.write(record)
    finally:
        sink.close()


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------

class Span:
    """One sampled logical operation; a factory for causally-linked records.

    ``decision()`` records a rule-tagged routing decision and becomes the
    parent of subsequent ``hop()`` records; ``end()`` closes the span
    with its outcome.  ``event()`` is the generic escape hatch.
    """

    __slots__ = ("tracer", "id", "root", "last_decision")

    def __init__(self, tracer: "Tracer", span_id: int, root_seq: int):
        self.tracer = tracer
        self.id = span_id
        self.root = root_seq
        self.last_decision = root_seq

    def event(self, kind: str, parent: Optional[int] = None, **data) -> int:
        return self.tracer.emit(kind, span=self.id,
                                parent=self.root if parent is None else parent,
                                **data)

    def decision(self, **data) -> int:
        seq = self.tracer.emit("decision", span=self.id, parent=self.root,
                               **data)
        self.last_decision = seq
        return seq

    def hop(self, **data) -> int:
        return self.tracer.emit("hop", span=self.id,
                                parent=self.last_decision, **data)

    def end(self, **data) -> int:
        return self.tracer.emit("end", span=self.id, parent=self.root, **data)


# ---------------------------------------------------------------------------
# Tracer.
# ---------------------------------------------------------------------------

class Tracer:
    """Emits :class:`TraceRecord`\\ s into a sink and to live observers.

    ``clock`` supplies virtual time (the workload driver binds it to its
    event loop's ``now``; standalone uses default to 0.0 and rely on
    ``seq`` for ordering).  ``sample`` keeps that fraction of spans,
    decided deterministically per span id.  Observers (invariant probes)
    see every record after the sink does; records they emit re-entrantly
    are delivered to the sink but not re-dispatched to observers.
    """

    def __init__(self, sink=None, clock: Optional[Callable[[], float]] = None,
                 sample: float = 1.0):
        if not 0.0 <= sample <= 1.0:
            raise ValueError("sample must be in [0, 1]")
        self.sink = sink if sink is not None else RingBufferSink()
        self.clock = clock or (lambda: 0.0)
        self.sample = sample
        #: The span the forwarding engine is currently inside, so nested
        #: components (pointer-cache lookups, policy filters) can attach
        #: records without threading a span through every call.
        self.current: Optional[Span] = None
        self.records_emitted = 0
        self.spans_started = 0
        self.spans_dropped = 0
        self._seq = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._observers: List[Callable[[TraceRecord], None]] = []
        self._dispatching = False

    # -- record emission -----------------------------------------------------

    def emit(self, kind: str, span: int = 0, parent: int = -1, **data) -> int:
        record = TraceRecord(seq=next(self._seq), t=self.clock(), span=span,
                             parent=parent, kind=kind, data=data)
        self.records_emitted += 1
        self.sink.write(record)
        if self._observers and not self._dispatching:
            self._dispatching = True
            try:
                for observer in self._observers:
                    observer(record)
            finally:
                self._dispatching = False
        return record.seq

    def span(self, kind: str, **data) -> Optional[Span]:
        """Open a sampled span; ``None`` means this span was not sampled
        (callers skip all further emission with a local ``is None``)."""
        span_id = next(self._span_ids)
        self.spans_started += 1
        if self.sample < 1.0:
            keep = ((span_id * _HASH_MULT) % _HASH_MOD) < int(
                self.sample * _HASH_MOD)
            if not keep:
                self.spans_dropped += 1
                return None
        root = self.emit(kind, span=span_id, parent=-1, **data)
        return Span(self, span_id, root)

    def event_in_current(self, kind: str, **data) -> None:
        """Attach a record to whatever span is in flight (if any)."""
        span = self.current
        if span is not None:
            span.event(kind, **data)

    # -- observers -----------------------------------------------------------

    def add_observer(self, observer: Callable[[TraceRecord], None]) -> None:
        self._observers.append(observer)

    def remove_observer(self, observer: Callable[[TraceRecord], None]) -> None:
        if observer in self._observers:
            self._observers.remove(observer)

    def close(self) -> None:
        self.sink.close()


# ---------------------------------------------------------------------------
# Module-level installation (the hot-path guard).
# ---------------------------------------------------------------------------

def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the active tracer and raise the :data:`ENABLED` flag."""
    global _TRACER, ENABLED
    _TRACER = tracer
    ENABLED = True
    return tracer


def uninstall() -> None:
    global _TRACER, ENABLED
    ENABLED = False
    _TRACER = None


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """``with trace.tracing(Tracer(...)) as tr: ...`` — scoped install."""
    tr = tracer if tracer is not None else Tracer()
    install(tr)
    try:
        yield tr
    finally:
        uninstall()


# -- emit-site helpers (called only after an ENABLED check) -----------------

def packet_span(kind: str, **data) -> Optional[Span]:
    """Open a packet span on the installed tracer and make it current.

    Call sites guard with ``if trace.ENABLED:``; a ``None`` return means
    tracing is off or the span was sampled out.
    """
    tracer = _TRACER
    if tracer is None:
        return None
    span = tracer.span(kind, **data)
    tracer.current = span
    return span


def close_span(span: Optional[Span]) -> None:
    """Clear the current-span slot once a packet span is finished."""
    tracer = _TRACER
    if tracer is not None and tracer.current is span:
        tracer.current = None


def event_in_current(kind: str, **data) -> None:
    tracer = _TRACER
    if tracer is not None:
        tracer.event_in_current(kind, **data)
