"""Periodic time-series sampling for workload runs.

The recorder keeps its own two :class:`repro.util.perf.Histogram`
objects (so runs never pollute the process-global registry the harness
snapshots) for the distributions the end-of-run summary reports: packet
stretch and join messages.  Every ``sample_interval`` of virtual time it
appends one JSON-ready row with windowed delivery rate, stretch,
control-message overhead, routing-state size, and churn counts — the
run's one window row, written out once, as the ``samples`` of the result
(DESIGN.md §12).

All sampled quantities are functions of simulation state only — no wall
clock — so the time series is byte-for-byte reproducible from one seed
(the determinism contract the test-suite asserts).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.sim.stats import PathResult, StatsCollector, percentile
from repro.util.perf import Histogram


class MetricsRecorder:
    """Accumulates per-window counts and emits periodic samples."""

    def __init__(self, stats: StatsCollector,
                 state_entries_fn: Callable[[], int]):
        self.stats = stats
        self.state_entries_fn = state_entries_fn
        self._stretch = Histogram()
        self._join_messages = Histogram()
        self.samples: List[Dict] = []

        # Run totals.
        self.total_sent = 0
        self.total_delivered = 0
        self.total_joins = 0
        self.total_departures = 0

        # Current-window accumulators (reset at each sample).
        self._win_sent = 0
        self._win_delivered = 0
        self._win_stretches: List[float] = []
        self._win_joins = 0
        self._win_departures = 0
        # The first window counts from here: messages spent before the
        # recorder exists (bootstrap, warm-up joins) are set-up, not load.
        self._last_total_messages = stats.total_messages()
        self._last_data_messages = stats.messages.get("data", 0)

    # -- event hooks --------------------------------------------------------

    def record_packet(self, result: PathResult) -> None:
        self.total_sent += 1
        self._win_sent += 1
        if result.delivered:
            self.total_delivered += 1
            self._win_delivered += 1
            if result.optimal_hops > 0:
                stretch = result.stretch
                self._win_stretches.append(stretch)
                self._stretch.record(stretch)

    def record_join(self, messages: int) -> None:
        self.total_joins += 1
        self._win_joins += 1
        self._join_messages.record(messages)

    def record_departure(self) -> None:
        self.total_departures += 1
        self._win_departures += 1

    # -- sampling -----------------------------------------------------------

    def sample(self, now: float, live_hosts: int,
               pending_events: int = 0) -> Dict:
        """Close the current window and append one time-series row."""
        total_messages = self.stats.total_messages()
        data_messages = self.stats.messages.get("data", 0)
        control_delta = ((total_messages - data_messages)
                         - (self._last_total_messages
                            - self._last_data_messages))
        state_entries = self.state_entries_fn()

        row = {
            "t": round(now, 6),
            "live_hosts": live_hosts,
            "sent": self._win_sent,
            "delivered": self._win_delivered,
            "delivery_rate": (self._win_delivered / self._win_sent
                              if self._win_sent else None),
            "mean_stretch": (sum(self._win_stretches)
                             / len(self._win_stretches)
                             if self._win_stretches else None),
            "p95_stretch": (percentile(self._win_stretches, 0.95)
                            if self._win_stretches else None),
            "control_messages": control_delta,
            "state_entries": state_entries,
            "joins": self._win_joins,
            "departures": self._win_departures,
            "queue_depth": pending_events,
        }
        self.samples.append(row)

        self._last_total_messages = total_messages
        self._last_data_messages = data_messages
        self._win_sent = 0
        self._win_delivered = 0
        self._win_stretches = []
        self._win_joins = 0
        self._win_departures = 0
        return row

    # -- summaries ----------------------------------------------------------

    def summary(self) -> Dict:
        """Whole-run roll-up with percentile summaries."""
        rates = [s["delivery_rate"] for s in self.samples
                 if s["delivery_rate"] is not None]
        out: Dict = {
            "delivery_rate": (self.total_delivered / self.total_sent
                              if self.total_sent else None),
            "min_window_delivery_rate": min(rates) if rates else None,
            "total_sent": self.total_sent,
            "total_delivered": self.total_delivered,
            "total_joins": self.total_joins,
            "total_departures": self.total_departures,
            "control_messages": (self.stats.total_messages()
                                 - self.stats.messages.get("data", 0)),
            "final_state_entries": (self.samples[-1]["state_entries"]
                                    if self.samples else None),
        }
        if len(self._stretch):
            snap = self._stretch.snapshot()
            out["stretch"] = {key: snap[key]
                              for key in ("mean", "p50", "p95", "p99")}
        if len(self._join_messages):
            snap = self._join_messages.snapshot()
            out["join_messages"] = {"mean": snap["mean"], "p95": snap["p95"]}
        return out
