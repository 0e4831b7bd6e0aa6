"""Live invariant probes: structured violations during workload runs.

Probes watch a running network two ways: *event-driven* checks subscribe
to the installed tracer's record stream (e.g. every ``cache.hit`` must
respect the Bloom isolation guard), and *periodic* checks run on
:meth:`ProbeSet.tick` (ring successor consistency, Bloom residency,
LSDB/SPF agreement).  A failed check produces a structured
:class:`Violation` — and, when a tracer is attached, a
``probe.violation`` trace record — instead of an exception, so a
workload run completes and reports every invariant breach it saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.trace import Tracer, TraceRecord
from repro.topology.graph import bfs_paths


@dataclass
class Violation:
    """One observed invariant breach."""

    probe: str
    t: float
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"probe": self.probe, "t": self.t, "detail": self.detail}


class Probe:
    """Base class; subclasses override ``check`` and/or ``on_record``."""

    name = "probe"

    def __init__(self, net=None):
        self.net = net

    def check(self, report) -> None:
        """Periodic invariant sweep; call ``report(**detail)`` per breach."""

    def on_record(self, record: TraceRecord, report) -> None:
        """React to one live trace record."""


class RingConsistencyProbe(Probe):
    """Intra: live members must form one sorted successor ring per
    component (wraps the network's own :meth:`Network.check`)."""

    name = "ring-consistency"

    def check(self, report) -> None:
        try:
            self.net.check()
        except AssertionError as exc:
            report(error=str(exc))


class InterRingConsistencyProbe(RingConsistencyProbe):
    """Inter: every hierarchy level's merged ring must be consistent."""

    name = "inter-ring-consistency"


class CacheIsolationProbe(Probe):
    """Inter: pointer-cache use must respect the subtree Bloom guard.

    Event-driven: a ``cache.hit`` for a destination that the hitting
    AS's subtree Bloom claims is *below* it would let a cached shortcut
    pull intra-subtree traffic through a provider (Section 5) — the
    Bloom guard in :meth:`RoflAS.best_match`, which skips the cache for
    such a destination, exists to prevent exactly this.
    Periodic: every hosted ID must be resident in the subtree Bloom of
    each of its ancestors (Blooms admit false positives, never false
    negatives, so a miss means a stale filter).
    """

    name = "cache-isolation"

    def on_record(self, record: TraceRecord, report) -> None:
        if record.kind != "cache.hit":
            return
        asn = record.data.get("asn")
        dest_hex = record.data.get("dest")
        # Trace data stringifies AS numbers for JSON; map back.
        node = self.net.ases.get(asn)
        if node is None:
            node = next((n for key, n in self.net.ases.items()
                         if str(key) == asn), None)
        if node is None or dest_hex is None:
            return
        from repro.idspace.identifier import FlatId
        dest = FlatId.from_hex(dest_hex)
        if dest in node.subtree_bloom:
            report(kind="bloom-guard-bypassed", asn=asn, dest=dest_hex)

    def check(self, report) -> None:
        hierarchy = self.net.policy.hierarchy
        for asn, node in self.net.ases.items():
            for vn in node.hosted.values():
                for ancestor in hierarchy.up_chain(vn.home_as):
                    if vn.id not in self.net.ases[ancestor].subtree_bloom:
                        report(kind="bloom-missing-resident",
                               asn=ancestor, dest=vn.id.to_hex())


class SpfAgreementProbe(Probe):
    """Intra: the event-invalidated :class:`PathCache` must agree with a
    fresh SPF over the live LSDB (selective eviction gone wrong shows up
    as a stale cached distance)."""

    name = "spf-agreement"

    #: Pairs checked per tick; deterministic picks, no RNG draw.
    MAX_PAIRS = 8

    def _sample_pairs(self):
        routers = sorted(self.net.routers)
        n = len(routers)
        if n < 2:
            return
        step = max(1, n // self.MAX_PAIRS)
        for i in range(0, n, step):
            yield routers[i], routers[(i + n // 2) % n]

    def check(self, report) -> None:
        live = self.net.lsmap.adjacency
        for src, dst in self._sample_pairs():
            if src == dst:
                continue
            cached = self.net.paths.hop_dist(src, dst)
            # The oracle: a BFS of its own, never the cache under test.
            path = bfs_paths(live, src).get(dst) if src in live else None
            fresh = None if path is None else len(path) - 1
            if cached != fresh:
                report(src=src, dst=dst, cached=cached, fresh=fresh)


class StretchBoundProbe(Probe):
    """Compact routing: observed stretch must respect the provable bound.

    Event-driven: every ``end`` record carrying both ``optimal`` and
    ``bound`` (the compact forwarding engine stamps each delivered
    packet with its hop count, the shortest-path distance, and the
    protocol's ``stretch_bound``) is asserted to satisfy
    ``hops ≤ bound · optimal`` — a breach means the Thorup–Zwick
    argument was violated in practice, the headline invariant of the
    Disco baseline.

    Periodic (when constructed with the network): deterministic bounded
    samples of the three structures the proof rests on —

    * *radius agreement*: the precomputed nearest-landmark distance must
      match a fresh SPF query;
    * *ball closure*: the shortest path to a ball member must stay
      inside the ball (the advertisement-cost and shortcut arguments);
    * *locator residency*: every sampled registered ID's directory
      record must point at the router that actually hosts it.
    """

    name = "stretch-bound"

    #: Routers / locators sampled per tick; deterministic, no RNG draw.
    MAX_SAMPLES = 8

    #: Slack for float comparison of ``hops ≤ bound · optimal``.
    EPSILON = 1e-9

    def on_record(self, record: TraceRecord, report) -> None:
        if record.kind != "end":
            return
        data = record.data
        if "optimal" not in data or "bound" not in data:
            return
        if not data.get("delivered"):
            return
        optimal = data["optimal"]
        hops = data.get("hops", 0)
        if optimal and optimal > 0:
            if hops > data["bound"] * optimal + self.EPSILON:
                report(kind="stretch-bound-exceeded", span=record.span,
                       hops=hops, optimal=optimal, bound=data["bound"],
                       stretch=hops / optimal)

    def _sample(self, items):
        ordered = sorted(items)
        step = max(1, len(ordered) // self.MAX_SAMPLES)
        return ordered[::step][:self.MAX_SAMPLES]

    def check(self, report) -> None:
        net = self.net
        if net is None:
            return
        plan = net.plan
        for router in self._sample(net.topology.routers):
            fresh = min((d for d in (net.paths.hop_dist(router, lm)
                                     for lm in plan.landmarks)
                         if d is not None), default=None)
            if fresh != plan.radius.get(router):
                report(kind="radius-disagreement", router=router,
                       cached=plan.radius.get(router), fresh=fresh)
                continue
            ball = plan.ball[router]
            for member in self._sample(ball)[:2]:
                path = net.paths.hop_path(router, member)
                if path is None:
                    report(kind="ball-member-unreachable", router=router,
                           member=member)
                elif any(node not in ball for node in path[1:-1]):
                    report(kind="ball-not-closed", router=router,
                           member=member, path=list(path))
        for host_id in self._sample(net.host_location):
            locator = net.directory.lookup(host_id)
            if locator is None:
                report(kind="locator-missing", dest=host_id.to_hex())
            elif locator.attach_router != net.host_location[host_id]:
                report(kind="locator-stale", dest=host_id.to_hex(),
                       registered=locator.attach_router,
                       actual=net.host_location[host_id])


class ProbeSet:
    """A bundle of probes sharing one violation log.

    Attach to a tracer to receive live records (and echo violations as
    ``probe.violation`` trace records); call :meth:`tick` from the
    workload sampling loop for the periodic sweeps.
    """

    def __init__(self, probes: List[Probe],
                 tracer: Optional[Tracer] = None):
        self.probes = probes
        self.tracer = tracer
        self.violations: List[Violation] = []
        self._now = 0.0
        if tracer is not None:
            tracer.add_observer(self.on_record)

    #: The standard bundle per ``Network.kind`` (none: ``check()`` is all).
    STANDARD = {
        "intra": (RingConsistencyProbe, SpfAgreementProbe),
        "inter": (InterRingConsistencyProbe, CacheIsolationProbe),
        "disco": (StretchBoundProbe,),
    }

    @classmethod
    def for_network(cls, net, tracer: Optional[Tracer] = None) -> "ProbeSet":
        """The standard probe bundle for ``net``'s kind."""
        return cls([probe(net) for probe in cls.STANDARD.get(net.kind, ())],
                   tracer=tracer)

    # -- plumbing ------------------------------------------------------------

    def _report_for(self, probe: Probe):
        def report(**detail):
            violation = Violation(probe=probe.name, t=self._now,
                                  detail=detail)
            self.violations.append(violation)
            if self.tracer is not None:
                self.tracer.emit("probe.violation", probe=probe.name,
                                 **detail)
        return report

    def on_record(self, record: TraceRecord) -> None:
        self._now = record.t
        for probe in self.probes:
            probe.on_record(record, self._report_for(probe))

    def tick(self, now: float) -> int:
        """Run every periodic check; returns violations found this tick."""
        self._now = now
        before = len(self.violations)
        for probe in self.probes:
            probe.check(self._report_for(probe))
        return len(self.violations) - before

    def detach(self) -> None:
        if self.tracer is not None:
            self.tracer.remove_observer(self.on_record)

    def summary(self) -> List[Dict[str, Any]]:
        return [v.to_dict() for v in self.violations]
