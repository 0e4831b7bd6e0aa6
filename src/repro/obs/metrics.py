"""Streaming metrics: windowed registry deltas and Prometheus text.

The end-of-run ``PerfRegistry.snapshot()`` that lands in bench rows says
nothing about *dynamics* — stretch under churn, repair after a fault,
control overhead over time.  This module closes that gap with two
complementary surfaces:

* :class:`MetricsExporter` — a JSONL stream of per-window **deltas**
  over a live :class:`repro.util.perf.PerfRegistry` (plus optional
  extra cumulative counter sources, e.g. a network's
  ``StatsCollector.messages``).  Windows are stamped with *virtual*
  time, never the wall clock, and in deterministic mode every emitted
  field is a pure function of simulation state — so two runs from one
  seed produce byte-identical streams (the same replay contract the
  trace JSONL and the workload result already obey).

* :func:`render_prometheus` — the classic Prometheus text exposition of
  a registry snapshot, served live by ``repro serve``'s ``metrics_text``
  op so external scrapers can watch a resident network.

Both are zero-dependency and cost nothing when unused: the exporter is
pull-based (callers decide when a window closes — the workload driver
ties it to virtual-time sampling) and touches the registry only at
those boundaries.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Dict, IO, Optional, Union

from repro.util.perf import PerfRegistry

#: Histogram quantiles reported per window and in Prometheus summaries.
QUANTILES = (0.5, 0.95, 0.99)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


class MetricsExporter:
    """Emit windowed registry deltas as deterministic JSONL.

    One line per window::

        {"counters": {...}, "gauges": {...}, "histograms": {...},
         "t": 12.0, "timers": {...}, "window": 3}

    ``counters`` carries the **delta** since the previous window (zero
    deltas are omitted); ``gauges`` the current values; ``histograms``
    the cumulative count, the window's new-sample count, and cumulative
    p50/p95/p99/mean; ``timers`` the per-window call delta — and, only
    when ``deterministic=False``, wall-clock seconds/mean/max (wall
    time can never be byte-reproducible, so deterministic streams drop
    it and keep the call counts, which are functions of the seed).

    ``counters_fn`` folds an extra cumulative-counter source into the
    stream (the workload driver passes the network's protocol message
    counters); it must return a ``name -> cumulative value`` dict.
    """

    def __init__(self, registry: PerfRegistry,
                 out: Union[str, IO[str]], *,
                 deterministic: bool = True,
                 counters_fn: Optional[Callable[[], Dict[str, float]]] = None,
                 source: Optional[str] = None):
        self.registry = registry
        self.deterministic = deterministic
        self.counters_fn = counters_fn
        self.source = source
        if isinstance(out, str):
            self._fh: Optional[IO[str]] = open(out, "w")
            self._own_fh = True
        else:
            self._fh = out
            self._own_fh = False
        self.windows_emitted = 0
        #: Virtual time of the most recent window (None before the first).
        self.last_t: Optional[float] = None
        self._last_counters: Dict[str, float] = {}
        self._last_timers: Dict[str, tuple] = {}
        self._last_hist_counts: Dict[str, int] = {}

    # -- window assembly -----------------------------------------------------

    def _cumulative_counters(self) -> Dict[str, float]:
        counters = dict(self.registry.counters)
        if self.counters_fn is not None:
            counters.update(self.counters_fn())
        return counters

    def _counter_deltas(self, counters: Dict[str, float]) -> Dict[str, float]:
        out = {}
        for name, value in counters.items():
            delta = value - self._last_counters.get(name, 0)
            if delta:
                out[name] = delta
        return out

    def _timer_deltas(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for name, cell in self.registry.timers.items():
            last_calls, last_seconds = self._last_timers.get(name, (0, 0.0))
            delta_calls = cell[0] - last_calls
            if not delta_calls:
                continue
            row: Dict[str, float] = {"calls": delta_calls}
            if not self.deterministic:
                delta_seconds = cell[1] - last_seconds
                row["seconds"] = round(delta_seconds, 6)
                row["mean"] = round(delta_seconds / delta_calls, 9)
                row["max"] = round(cell[2], 6)
            out[name] = row
        return out

    def _histogram_rows(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for name, hist in self.registry.histograms.items():
            count = len(hist)
            new = count - self._last_hist_counts.get(name, 0)
            if not count:
                continue
            row = {"count": count, "new": new}
            snap = hist.snapshot()
            for q in QUANTILES:
                key = "p{:g}".format(q * 100)
                row[key] = snap.get(key, hist.percentile(q))
            row["mean"] = round(snap["mean"], 9)
            row["max"] = snap["max"]
            out[name] = row
        return out

    def emit_window(self, t: float,
                    extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Close the window ending at virtual time ``t``: write one JSONL
        line of deltas and advance the baseline.  Returns the row."""
        counters = self._cumulative_counters()
        row: Dict[str, Any] = {
            "t": round(t, 6),
            "window": self.windows_emitted,
            "counters": self._counter_deltas(counters),
            "timers": self._timer_deltas(),
            "gauges": dict(self.registry.gauges),
            "histograms": self._histogram_rows(),
        }
        if self.source is not None:
            row["source"] = self.source
        if extra:
            row.update(extra)
        self._write(row)
        self.windows_emitted += 1
        self.last_t = row["t"]
        self._last_counters = counters
        self._last_timers = {name: (cell[0], cell[1])
                             for name, cell in self.registry.timers.items()}
        self._last_hist_counts = {name: len(hist) for name, hist
                                  in self.registry.histograms.items()}
        return row

    def _write(self, row: Dict[str, Any]) -> None:
        if self._fh is None:
            raise ValueError("exporter is closed")
        self._fh.write(json.dumps(row, sort_keys=True,
                                  separators=(",", ":")))
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None and self._own_fh:
            self._fh.close()
        self._fh = None

    def __enter__(self) -> "MetricsExporter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_metrics_jsonl(path: str) -> list:
    """Load the window rows a :class:`MetricsExporter` wrote."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


# ---------------------------------------------------------------------------
# Prometheus text exposition.
# ---------------------------------------------------------------------------

def _mangle(name: str) -> str:
    """Dotted registry names to the Prometheus charset."""
    return _NAME_RE.sub("_", name)


def render_prometheus(registry_or_snapshot, prefix: str = "repro") -> str:
    """The Prometheus text exposition format (version 0.0.4) of a
    registry snapshot.

    Counters become ``<prefix>_<name>_total`` counters; gauges stay
    gauges; timers expand to ``_calls_total`` / ``_seconds_total``
    counters plus a ``_seconds_max`` gauge; histograms render as
    summaries with p50/p95/p99 quantiles, ``_sum``, and ``_count``.
    Output ordering is sorted, so equal snapshots render identically.
    """
    if isinstance(registry_or_snapshot, PerfRegistry):
        snap = registry_or_snapshot.snapshot()
    else:
        snap = registry_or_snapshot
    lines = []

    def fmt(value: float) -> str:
        if isinstance(value, float) and value == int(value) and \
                abs(value) < 1e15:
            return str(int(value))
        return repr(value)

    for name in sorted(snap.get("counters", {})):
        metric = "{}_{}_total".format(prefix, _mangle(name))
        lines.append("# TYPE {} counter".format(metric))
        lines.append("{} {}".format(metric, fmt(snap["counters"][name])))
    for name in sorted(snap.get("gauges", {})):
        metric = "{}_{}".format(prefix, _mangle(name))
        lines.append("# TYPE {} gauge".format(metric))
        lines.append("{} {}".format(metric, fmt(snap["gauges"][name])))
    for name in sorted(snap.get("timers", {})):
        row = snap["timers"][name]
        base = "{}_{}".format(prefix, _mangle(name))
        lines.append("# TYPE {}_calls_total counter".format(base))
        lines.append("{}_calls_total {}".format(base, fmt(row["calls"])))
        lines.append("# TYPE {}_seconds_total counter".format(base))
        lines.append("{}_seconds_total {}".format(base,
                                                  fmt(row["seconds"])))
        if "max" in row:
            lines.append("# TYPE {}_seconds_max gauge".format(base))
            lines.append("{}_seconds_max {}".format(base, fmt(row["max"])))
    for name in sorted(snap.get("histograms", {})):
        row = snap["histograms"][name]
        base = "{}_{}".format(prefix, _mangle(name))
        lines.append("# TYPE {} summary".format(base))
        if row.get("count"):
            for q in QUANTILES:
                key = "p{:g}".format(q * 100)
                if key in row:
                    lines.append('{}{{quantile="{}"}} {}'.format(
                        base, q, fmt(row[key])))
            lines.append("{}_sum {}".format(
                base, fmt(round(row["mean"] * row["count"], 9))))
        lines.append("{}_count {}".format(base, fmt(row.get("count", 0))))
    return "\n".join(lines) + "\n"
