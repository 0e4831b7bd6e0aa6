"""A minimal, deterministic discrete-event loop.

Events fire in (time, insertion-order) order, so two events scheduled for
the same instant run in the order they were scheduled — determinism the
test-suite relies on.  The loop supports a bounded run
(``run(until=...)``) used to model timeouts.  A scheduled event cannot be
withdrawn (nothing in the package needs to since the message-level join
engine went): a callback that may have become moot checks when it fires.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass(order=True)
class Event:
    """A scheduled callback; comparable by (time, seq) for the heap."""

    time: float
    seq: int
    callback: Callable[[], Any] = field(compare=False)


class EventLoop:
    """Heap-based event scheduler with virtual time."""

    def __init__(self, on_event: Optional[Callable[[Event], Any]] = None) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._counter = itertools.count()
        self.events_run = 0
        #: Observer invoked with each event just before its callback runs
        #: (after ``now`` advances).  Used by ``repro.obs``.
        self.on_event = on_event

    def schedule(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(
                "negative delay {!r}: cannot schedule in the past "
                "(now={!r})".format(delay, self.now))
        event = Event(self.now + delay, next(self._counter), callback)
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(
                "absolute time {!r} is before now={!r}: cannot schedule "
                "in the past".format(time, self.now))
        return self.schedule(time - self.now, callback)

    def step(self) -> bool:
        """Run the single next event.  Returns False when idle."""
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        self.now = event.time
        if self.on_event is not None:
            self.on_event(event)
        event.callback()
        self.events_run += 1
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain events; stop at virtual time ``until`` or after
        ``max_events`` callbacks.  Returns how many events ran."""
        ran = 0
        while self._heap and (max_events is None or ran < max_events):
            if until is not None and self._heap[0].time > until:
                # Advance to the bound, never backwards: ``run(until=t)``
                # with ``t < now`` must not rewind the clock — the
                # past-scheduling guards assume ``now`` is monotone.
                self.now = max(self.now, until)
                break
            self.step()
            ran += 1
        return ran

    @property
    def pending(self) -> int:
        return len(self._heap)

    # -- snapshot support ---------------------------------------------------

    def __getstate__(self):
        """Serialize the virtual clock and the pending queue.

        The queue is written in firing order — a heap's layout depends on
        its push history, which is not state, and a sorted list is a valid
        heap to load — and the ``on_event`` observer is dropped: observers
        (e.g. an installed tracer with an open file sink) are
        process-local wiring that the loading side re-attaches
        explicitly.  Event callbacks themselves must be picklable for a
        mid-run loop to snapshot; a quiescent (drained) loop always is.
        """
        state = self.__dict__.copy()
        state["_heap"] = sorted(self._heap)
        state["on_event"] = None
        return state
