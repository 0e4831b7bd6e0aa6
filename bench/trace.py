"""Span tracer for the traced run, and the boundary callables it wraps.

The benchmark measures every layer from outside: ``BOUNDARIES`` names
public callables of ``repro`` that are replaced, in the benchmark's own
process and only for a traced run, by wrappers recording one span per
call.  The modules call each other through attributes
(``routing.route(...)``, ``self.paths.hop_dist(...)``), so setting the
attribute is enough and nothing under ``src/`` changes.

A span has a name, a start, an end, the span that caused it and the
identifier of its *op* — the outermost span it ran under (one join, one
send, one event).  Spans are aggregated per name as they close (calls,
busy time, time covered by child spans); one op in ``SAMPLE_EVERY`` keeps
all its spans whole for the span file.  Self time is a span's duration
minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import time
import warnings
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from bench.spec import quantile

SAMPLE_EVERY = 64

#: Span ids of a merged foreign dump are shifted by this much so they can
#: never collide with the local ones.
_MERGE_OFFSET = 1 << 40


class Boundary(NamedTuple):
    """One wrapped callable.

    ``sites`` are ``"module:attr.path"`` strings; the first holds the
    original, the rest are names the same function was imported under
    (``from x import f`` binds a second reference that must be replaced
    too).  ``keep`` stores every call's duration for percentiles;
    ``observe`` names a result observer in ``OBSERVERS``; ``net`` marks the
    network classes' public methods, whose busy time is what a workload
    driver spends inside the network.
    """

    name: str
    sites: Tuple[str, ...]
    keep: bool = False
    observe: Optional[str] = None
    net: bool = False


def _net(name: str, method: str, **options) -> Boundary:
    kind = name.split(".")[0]
    cls = {"inter": "repro.inter.network:InterDomainNetwork",
           "intra": "repro.intra.network:IntraDomainNetwork"}[kind]
    return Boundary(name, ("{}.{}".format(cls, method),), net=True, **options)


BOUNDARIES: Tuple[Boundary, ...] = (
    _net("inter.join", "join_host", keep=True, observe="join"),
    _net("inter.send", "send", keep=True, observe="send"),
    _net("inter.flush_indexes", "flush_indexes"),
    _net("inter.fail_as", "fail_as"),
    _net("inter.restore_as", "restore_as"),
    Boundary("inter.routing.route", ("repro.inter.routing:route",)),
    Boundary("inter.fingers.acquire",
             ("repro.inter.fingers:acquire_fingers",)),
    Boundary("inter.asnode.flush_index",
             ("repro.inter.asnode:RoflAS.flush_index",)),
    Boundary("inter.policy.join_chain",
             ("repro.inter.policy:PolicyView.join_chain",)),
    Boundary("inter.policy.path_profile",
             ("repro.inter.policy:PolicyView.path_profile",)),
    Boundary("inter.bgp.policy_distance",
             ("repro.inter.bgp:BgpBaseline.policy_distance",)),
    _net("intra.join", "join_host", keep=True, observe="join"),
    _net("intra.send", "send", keep=True, observe="send"),
    _net("intra.flush_indexes", "flush_indexes"),
    _net("intra.fail_router", "fail_router"),
    _net("intra.fail_link", "fail_link"),
    _net("intra.restore_link", "restore_link"),
    Boundary("intra.forwarding.route", ("repro.intra.forwarding:route",)),
    Boundary("intra.router.flush_index",
             ("repro.intra.router:RoflRouter.flush_index",)),
    Boundary("intra.failure.router_failure",
             ("repro.intra.failure:router_failure",)),
    Boundary("intra.failure.link_failure",
             ("repro.intra.failure:link_failure",)),
    Boundary("linkstate.spf.hop_dist",
             ("repro.linkstate.spf:PathCache.hop_dist",)),
    Boundary("linkstate.spf.hop_path",
             ("repro.linkstate.spf:PathCache.hop_path",)),
    Boundary("sim.engine.step", ("repro.sim.engine:EventLoop.step",)),
    Boundary("snapshot.codec.state_hash_of",
             ("repro.snapshot.codec:state_hash_of",
              "repro.snapshot.store:state_hash_of")),
)

#: The span a traced churn run puts around each event callback, so that
#: ``sim.engine.step`` self time is the engine alone and the callback's
#: self time is the workload driver alone.
DRIVER_EVENT = "workload.driver.event"


def _observe_send(sums: Dict[str, float], result: Any) -> None:
    sums["n"] += 1
    sums["cached"] += bool(result.used_cache)
    if result.delivered:
        sums["delivered"] += 1
        sums["hops"] += result.hops
        if result.optimal_hops > 0:
            sums["stretch"] += result.hops / result.optimal_hops
            sums["stretch_n"] += 1


def _observe_join(sums: Dict[str, float], receipt: Any) -> None:
    sums["n"] += 1
    sums["messages"] += receipt.messages


OBSERVERS: Dict[str, Tuple[Callable, Tuple[str, ...]]] = {
    "send": (_observe_send,
             ("n", "delivered", "hops", "stretch", "stretch_n", "cached")),
    "join": (_observe_join, ("n", "messages")),
}


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


class Tracer:
    """Spans in memory: per-name aggregates plus a sample of whole ops."""

    def __init__(self) -> None:
        #: name → [calls, busy seconds, seconds covered by child spans]
        self.cells: Dict[str, List[float]] = {}
        #: name → every call's duration (``keep`` boundaries only)
        self.durations: Dict[str, List[float]] = {}
        #: name → observer sums (``observe`` boundaries only)
        self.observed: Dict[str, Dict[str, float]] = {}
        #: span names whose target did not resolve
        self.unresolved: List[str] = []
        #: names flagged ``net`` in the installed table
        self.net_names: List[str] = []
        #: whole spans of the sampled ops
        self.sampled: List[Dict[str, Any]] = []
        self.ops = 0
        #: where spans read the time; a measuring child points this at its
        #: calibrator's clock, which stops during reference ticks
        self.clock: Callable[[], float] = time.perf_counter
        self._stack: List[List[float]] = []
        self._ids = itertools.count()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _begin(self) -> List[float]:
        """Open a span; the frame is [child seconds, start, span id, parent
        id], with id -1 outside a sampled op."""
        stack = self._stack
        if stack:
            parent = stack[-1][2]
            span_id = next(self._ids) if parent >= 0 else -1
        else:
            self.ops += 1
            parent = -1
            span_id = (next(self._ids) if self.ops % SAMPLE_EVERY == 0
                       else -1)
        frame = [0.0, 0.0, span_id, parent]
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _end(self, name: str, cell: List[float], frame: List[float],
             durations: Optional[List[float]]) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        elapsed = end - frame[1]
        cell[0] += 1
        cell[1] += elapsed
        cell[2] += frame[0]
        if stack:
            stack[-1][0] += elapsed
        if durations is not None:
            durations.append(elapsed)
        if frame[2] >= 0:
            self.sampled.append({
                "span": frame[2],
                "parent": frame[3] if frame[3] >= 0 else None,
                "name": name, "op": self.ops,
                "start": frame[1], "end": end})

    def _cell(self, name: str) -> List[float]:
        return self.cells.setdefault(name, [0, 0.0, 0.0])

    @contextlib.contextmanager
    def span(self, name: str, keep: bool = False):
        """A span around a call the benchmark itself makes into a layer."""
        cell = self._cell(name)
        durations = self.durations.setdefault(name, []) if keep else None
        frame = self._begin()
        try:
            yield
        finally:
            self._end(name, cell, frame, durations)

    def wrap(self, name: str, fn: Callable, keep: bool = False,
             observe: Optional[str] = None) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        cell = self._cell(name)
        durations = self.durations.setdefault(name, []) if keep else None
        begin, end = self._begin, self._end
        if observe is None:
            def traced(*args, **kwargs):
                frame = begin()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(name, cell, frame, durations)
        else:
            observer, fields = OBSERVERS[observe]
            sums = self.observed.setdefault(name, dict.fromkeys(fields, 0))

            def traced(*args, **kwargs):
                frame = begin()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end(name, cell, frame, durations)
                observer(sums, result)
                return result
        return traced

    # -- wrapping the boundary table ---------------------------------------

    def install(self, table: Tuple[Boundary, ...] = BOUNDARIES) -> None:
        """Replace every resolvable callable of ``table`` by its wrapper.

        An entry whose first site no longer resolves is recorded in
        ``unresolved`` with a warning — its metrics read ``null`` — and
        never raises: a rename in ``src/`` must not break the benchmark
        that a performance change is forbidden to edit.
        """
        for boundary in table:
            resolved = []
            for site in boundary.sites:
                try:
                    resolved.append(_resolve(site))
                except (ImportError, AttributeError) as exc:
                    warnings.warn("bench.trace: {} does not resolve ({}: {})"
                                  .format(site, type(exc).__name__, exc))
                    if not resolved:
                        break
            if not resolved:
                self.unresolved.append(boundary.name)
                continue
            if boundary.net:
                self.net_names.append(boundary.name)
            wrapper = self.wrap(boundary.name, resolved[0][2],
                                keep=boundary.keep, observe=boundary.observe)
            for owner, attr, original in resolved:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def busy(self, name: str) -> float:
        return self.cells.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        cell = self.cells.get(name, (0, 0.0, 0.0))
        return cell[1] - cell[2]

    def net_busy(self) -> float:
        """Seconds inside the network classes' public methods (they do not
        call one another, so the sum counts nothing twice)."""
        return sum(self.busy(name) for name in self.net_names)

    def metrics(self) -> Dict[str, float]:
        """Every ``<span>.<field>`` this tracer can report."""
        out: Dict[str, float] = {}
        for name, (calls, busy, covered) in self.cells.items():
            out[name + ".calls"] = calls
            out[name + ".busy_s"] = busy
            out[name + ".self_s"] = busy - covered
        for name, values in self.durations.items():
            out[name + ".ms_p50"] = quantile(values, 0.50) * 1e3
            out[name + ".ms_max"] = max(values, default=0.0) * 1e3
            out[name + ".us_p50"] = quantile(values, 0.50) * 1e6
            out[name + ".us_p99"] = quantile(values, 0.99) * 1e6
        for name, sums in self.observed.items():
            if "messages" in sums:
                out[name + ".msgs_mean"] = _ratio(sums["messages"], sums["n"])
            else:
                out[name + ".hops_mean"] = _ratio(sums["hops"],
                                                  sums["delivered"])
                out[name + ".stretch_mean"] = _ratio(sums["stretch"],
                                                     sums["stretch_n"])
                out[name + ".delivered_frac"] = _ratio(sums["delivered"],
                                                       sums["n"])
                out[name + ".cache_hit_frac"] = _ratio(sums["cached"],
                                                       sums["n"])
        return out

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"cells": self.cells, "durations": self.durations,
                "observed": self.observed, "unresolved": self.unresolved,
                "net_names": self.net_names, "sampled": self.sampled,
                "ops": self.ops}

    def merge(self, dump: Dict[str, Any], proc: str) -> None:
        """Fold in the spans another process recorded (the traced serve
        server): aggregates add, sampled spans keep their tree under
        shifted ids and are tagged with ``proc``."""
        for name, (calls, busy, covered) in dump["cells"].items():
            cell = self._cell(name)
            cell[0] += calls
            cell[1] += busy
            cell[2] += covered
        for name, values in dump["durations"].items():
            self.durations.setdefault(name, []).extend(values)
        for name, sums in dump["observed"].items():
            mine = self.observed.setdefault(name, dict.fromkeys(sums, 0))
            for field, value in sums.items():
                mine[field] += value
        for name in dump["unresolved"]:
            if name not in self.unresolved:
                self.unresolved.append(name)
        for name in dump["net_names"]:
            if name not in self.net_names:
                self.net_names.append(name)
        for span in dump["sampled"]:
            span = dict(span, proc=proc, span=span["span"] + _MERGE_OFFSET,
                        op=span["op"] + _MERGE_OFFSET)
            if span["parent"] is not None:
                span["parent"] += _MERGE_OFFSET
            self.sampled.append(span)

    def write_jsonl(self, path: str, meta: Dict[str, Any]) -> None:
        """The span file: a header, one line per span name with its
        aggregate, then every span of the sampled ops."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(meta, sample_every=SAMPLE_EVERY,
                                     ops=self.ops), sort_keys=True) + "\n")
            for name in sorted(self.cells):
                calls, busy, covered = self.cells[name]
                fh.write(json.dumps({"aggregate": name, "calls": calls,
                                     "busy_s": busy,
                                     "self_s": busy - covered},
                                    sort_keys=True) + "\n")
            for span in self.sampled:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _resolve(site: str) -> Tuple[Any, str, Any]:
    """``"module:attr.path"`` → (owner object, attribute name, original)."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)
