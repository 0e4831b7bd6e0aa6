"""Discrete-event simulation kernel and measurement plumbing.

Most ROFL control-plane operations are simulated procedurally (each
conceptual message is charged to the routers it traverses — the same
"highly simplified simulation" style as the paper's own evaluation).  Where
*timing* matters — join latency (Fig 5c), failure-detection timers — the
heap-based :class:`repro.sim.engine.EventLoop` drives message delivery with
per-link latencies.
"""
