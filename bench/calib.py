"""Host-speed calibration: timings in seconds of a quiet core.

The sandbox this benchmark runs in shares its cores.  The same pinned,
single-threaded loop takes 20-70 % longer for seconds to minutes at a
time, with nothing else running in the sandbox; CPU time and wall time
agree, so it is the core that slows down, not the process that waits.
Whole runs are slow together — even the fastest tenth of the per-op times
moves with the mean — so no statistic taken inside a run removes it: ten
runs of one seed spread (interquartile distance over median) by 0.2 to 0.4
on raw wall-clock rates, wider than the widest bound a metric may have.

So every measuring process also times a fixed *reference kernel* — greedy
routing over a private ring of 128-bit keys: the same kind of interpreter
work the simulator does, and none of the simulator's code — about every
20 ms: between operations where the benchmark drives the program one
operation at a time (``pace``), and from an interval timer's signal handler
inside a single long call (``ticking``).  One timing is a *tick*.  The
clock the workloads read stops while a tick runs, and a measured interval
is divided by how much slower than nominal the ticks around it ran:

    calibrated seconds = wall seconds x NOMINAL_TICK_S / tick seconds

On a quiet core that is wall-clock time; under contention it is what the
interval would have taken at the speed the kernel saw.  The core's speed
moves by a factor of two within a few hundred milliseconds, and one tick
samples half a millisecond of it, so what steadies a reading is how many
ticks fall inside the measured interval: thirty same-seed runs in a busy
hour spread (interquartile distance over median) by 0.16-0.29 raw, by
0.05-0.17 with a tick every 100 ms and by 0.04-0.10 with one every 20 ms;
smoothing the ticks (running median, mean or trimmed mean over 0.15-1.5 s)
made every metric worse than interpolating between neighbours.  The kernel
does not slow down exactly as much as the simulator does, so this removes
most of the drift, not all of it (bench/README.md has the measured spreads,
raw and calibrated).  Both sides of any comparison are calibrated by the
same frozen kernel, and the raw wall-clock value of every metric is kept
beside the calibrated one in the result file.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import random
import signal
import time
from typing import Iterator, List, Optional, Tuple

#: What one tick takes on this sandbox's cores in their fast state.  Only
#: the unit of the reported times depends on it.
NOMINAL_TICK_S = 0.0005

#: Ticks are taken no closer together than this.  A tick is two passes of
#: the kernel (one untimed), so the spacing costs 5-8 % of a run's wall
#: time, none of it on the workload clock.
TICK_SPACING_S = 0.02

_KEY_BITS = 128
_MASK = (1 << _KEY_BITS) - 1
_NODES = 8192
_ROUTES_PER_TICK = 64


class _Node:
    __slots__ = ("key", "fingers", "visits")

    def __init__(self, key: int):
        self.key = key
        self.fingers: List[int] = []
        self.visits = 0


class Calibrator:
    """The reference kernel, the ticks taken so far, and the clock that
    stops while a tick runs."""

    def __init__(self) -> None:
        built = time.perf_counter()
        rng = random.Random(0x0F1A7)
        keys = sorted(rng.getrandbits(_KEY_BITS) for _ in range(_NODES))
        self._nodes = {key: _Node(key) for key in keys}
        for key in keys:
            targets = {keys[bisect.bisect_right(keys, key) % _NODES]}
            for bit in range(_KEY_BITS - 26, _KEY_BITS, 2):
                at = bisect.bisect_left(keys, (key + (1 << bit)) & _MASK)
                targets.add(keys[at % _NODES])
            self._nodes[key].fingers = sorted(targets)
        # The same routes every tick: a tick is a fixed amount of work.
        self._pairs = [(rng.choice(keys), rng.choice(keys))
                       for _ in range(_ROUTES_PER_TICK)]
        self._last = 0.0
        #: (time on the workload clock, seconds the kernel took)
        self.ticks: List[Tuple[float, float]] = []
        self._times: List[float] = []
        # Building the kernel is off the workload clock as well.
        self._paused = time.perf_counter() - built

    def _kernel(self) -> float:
        """Route the fixed pairs greedily; returns the seconds it took."""
        nodes = self._nodes
        start = time.perf_counter()
        for src, dst in self._pairs:
            node = nodes[src]
            hops = 0
            while node.key != dst and hops < 64:
                here = node.key
                remaining = (dst - here) & _MASK
                best = None
                best_step = -1
                for finger in node.fingers:
                    step = (finger - here) & _MASK
                    if best_step < step <= remaining:
                        best, best_step = finger, step
                if best is None:
                    break
                node = nodes[best]
                node.visits += 1
                hops += 1
        return time.perf_counter() - start

    # -- clock and ticks ----------------------------------------------------

    def clock(self) -> float:
        """``time.perf_counter()`` minus all the time spent in ticks."""
        return time.perf_counter() - self._paused

    def tick(self, count: int = 1) -> None:
        """Time the kernel ``count`` times, off the workload clock, and
        record the median as one tick.  A single long call that cannot be
        interrupted gets a tick of several timings before and after it."""
        start = time.perf_counter()
        # One untimed pass first: the workload has evicted the kernel's
        # working set by an amount that depends on the program under test,
        # and the tick must time the core, not that.
        self._kernel()
        timings = sorted(self._kernel() for _ in range(count))
        self._last = start - self._paused
        self.ticks.append((self._last, timings[count // 2]))
        self._times.append(self._last)
        self._paused += time.perf_counter() - start

    def pace(self) -> None:
        """Tick if the last one is ``TICK_SPACING_S`` old.  Called between
        operations; the check is its only cost on the workload clock."""
        if time.perf_counter() - self._paused - self._last >= TICK_SPACING_S:
            self.tick()

    @contextlib.contextmanager
    def ticking(self, freeze: Optional[int] = None) -> Iterator[None]:
        """Tick every ``TICK_SPACING_S`` inside a block that cannot call
        ``pace`` — one long call into the program, or set-up — from the
        handler of an interval timer.  Python runs the handler between two
        bytecodes of the main thread, so the program's results are what
        they would be without it; a stretch of C code (a whole
        ``pickle.dumps``) delays the next tick until it returns.  The block
        itself must not tick.

        When the work is done by a child process on this process's core
        (the server of ``serve_session``), ``freeze`` is its pid: it is
        stopped for the length of each tick, so that the tick has the core
        to itself and the child makes no progress while the clock stands.
        """
        handling = False

        def on_alarm(signum, frame) -> None:
            # The timer can fire again while its handler runs (a stall
            # longer than the spacing): that firing is dropped.
            nonlocal handling
            if handling:
                return
            handling = True
            if freeze is None:
                self.tick()
            else:
                entered = time.perf_counter()
                os.kill(freeze, signal.SIGSTOP)
                os.waitid(os.P_PID, freeze,
                          os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                self._paused += time.perf_counter() - entered
                self.tick()
                resumed = time.perf_counter()
                os.kill(freeze, signal.SIGCONT)
                self._paused += time.perf_counter() - resumed
            handling = False

        before = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_SPACING_S, TICK_SPACING_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, before)

    # -- calibrated time ----------------------------------------------------

    def seconds(self, start: float, end: float) -> float:
        """The interval [start, end] of the workload clock, in seconds of a
        quiet core.

        Between two ticks the core's slowdown is taken as the mean of the
        two; before the first and after the last, as that tick's.  The
        interval is integrated piece by piece over the ticks it spans.
        """
        ticks = self.ticks
        if not ticks or end <= start:
            return max(0.0, end - start)
        times = self._times
        low = bisect.bisect_right(times, start)
        high = bisect.bisect_left(times, end)
        total = 0.0
        cursor = start
        for index in range(low, high + 1):
            stop = times[index] if index < high else end
            before = ticks[max(index - 1, 0)][1]
            after = ticks[min(index, len(ticks) - 1)][1]
            total += (stop - cursor) * 2.0 * NOMINAL_TICK_S / (before + after)
            cursor = stop
        return total
