"""Scheduled fault injectors.

Each injector is a dataclass whose fields are the parameters a
:class:`repro.workload.scenario.FaultSpec` of its kind may carry (the
scenario codec checks a spec against them and builds the injector); when
its virtual time arrives it drives the *existing* recovery machinery —
:mod:`repro.intra.failure`, :mod:`repro.intra.partition`,
:meth:`repro.inter.network.InterDomainNetwork.fail_as` — through the
driver.  Victim selection is deterministic: each injector draws from its
own ``derive_rng`` scope keyed on ``(seed, "faults", kind, at)``.

A fault comes back only through ``restore_after`` on the injector that
took it down (``link_cut``, ``as_depeer``), which logs a ``link_restore``
or ``as_restore`` record.  Every injection and scheduled restore hands a
JSON-ready record (kind, time, victims, repair cost) to
``driver.fault_done``, which reconciles the live-host list and appends it
to the fault log — how the Figure 7 experiment rewrites read their
measurements back out.

Each injector names in ``needs`` the :class:`repro.network.Network`
operations it calls, which is how ``Scenario.validate`` knows, before
anything runs, that a network kind cannot take a fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.driver import WorkloadDriver

Link = Tuple[str, str]


@dataclass
class FaultInjector:
    """One scheduled injection; subclasses implement :meth:`inject`."""

    #: Absolute virtual time of the injection.
    at: float
    kind: ClassVar[str] = "abstract"
    #: The network operations this injector calls.
    needs: ClassVar[Tuple[str, ...]] = ()

    def rng(self, driver: "WorkloadDriver"):
        return driver.rng("faults", self.kind, self.at)

    def check(self, net) -> None:
        """Refuse explicit ``links``, ``routers``, ``asn`` or ``pop`` that
        name one ``net`` does not have.  The driver asks before it touches
        the network: a bad name ends the run before it starts, not
        mid-way."""
        unknown = ["link {!r} - {!r}".format(a, b)
                   for a, b in getattr(self, "links", None) or ()
                   if not net.topology.has_link(a, b)]
        unknown += ["router {!r}".format(router)
                    for router in getattr(self, "routers", None) or ()
                    if router not in net.topology.nodes]
        asn, pop = getattr(self, "asn", None), getattr(self, "pop", None)
        if asn is not None and asn not in net.ases:
            unknown.append("AS {!r}".format(asn))
        if pop is not None and pop not in net.topology.pops:
            unknown.append("PoP {!r}".format(pop))
        if unknown:
            from repro.workload.scenario import ScenarioError
            raise ScenarioError("fault {!r} at {}: unknown {}".format(
                self.kind, self.at, unknown[0]))

    def inject(self, driver: "WorkloadDriver") -> Dict:  # pragma: no cover
        raise NotImplementedError

    def fire(self, driver: "WorkloadDriver") -> None:
        record = self.inject(driver)
        record.setdefault("kind", self.kind)
        record.setdefault("at", driver.loop.now)
        driver.fault_done(record)


@dataclass
class LinkCut(FaultInjector):
    """Cut ``count`` live links (or the explicit ``links`` list); with
    ``restore_after`` the same links come back later."""

    kind = "link_cut"
    needs = ("fail_link", "restore_link")
    count: int = 1
    links: Optional[List[Link]] = None
    restore_after: Optional[float] = None

    def inject(self, driver: "WorkloadDriver") -> Dict:
        net = driver.net
        victims = self.links
        if not victims:
            live = sorted((a, b) for a, b in net.topology.links()
                          if net.lsmap.is_link_up(a, b))
            count = min(self.count, len(live))
            victims = self.rng(driver).sample(live, count) if count else []
        dropped = sum(net.fail_link(a, b) for a, b in victims)
        if self.restore_after is not None:
            def restore():
                for a, b in victims:
                    net.restore_link(a, b)
                driver.fault_done({
                    "kind": "link_restore", "at": driver.loop.now,
                    "links": [list(v) for v in victims]})
            driver.loop.schedule(self.restore_after, restore)
        return {"links": [list(v) for v in victims],
                "cache_entries_dropped": dropped}


@dataclass
class RouterCrash(FaultInjector):
    """Crash ``count`` live routers (or the explicit ``routers`` list);
    resident hosts re-home and rejoin via the failover protocol."""

    kind = "router_crash"
    needs = ("fail_router",)
    count: int = 1
    routers: Optional[List[str]] = None

    def inject(self, driver: "WorkloadDriver") -> Dict:
        net = driver.net
        if self.routers:
            victims = self.routers
        else:
            live = sorted(net.lsmap.live_routers())
            count = min(self.count, max(0, len(live) - 1))
            victims = self.rng(driver).sample(live, count) if count else []
        messages = 0
        for router in victims:
            if net.lsmap.is_router_up(router):
                messages += net.fail_router(router)
        return {"routers": victims, "repair_messages": messages}


@dataclass
class PopPartition(FaultInjector):
    """Run the full Fig 7 disconnect/heal/reconnect/merge cycle for one
    PoP (``pop`` explicit, otherwise a seeded random choice)."""

    kind = "pop_partition"
    needs = ("partition_pop",)
    pop: Optional[int] = None

    def inject(self, driver: "WorkloadDriver") -> Dict:
        net = driver.net
        pop = self.pop
        if pop is None:
            pop = self.rng(driver).choice(sorted(net.topology.pops))
        report = net.partition_pop(pop)
        return {"pop": str(report.pop),
                "ids_in_pop": report.ids_in_pop,
                "cut_links": len(report.cut_links),
                "disconnect_messages": report.disconnect_messages,
                "reconnect_messages": report.reconnect_messages,
                "repair_messages": report.total_messages}


@dataclass
class HostCrash(FaultInjector):
    """Crash ``count`` live hosts (session-timeout teardown, not a
    graceful leave)."""

    kind = "host_crash"
    needs = ("fail_host",)
    count: int = 1

    def inject(self, driver: "WorkloadDriver") -> Dict:
        net = driver.net
        live = sorted(net.hosts)
        count = min(self.count, len(live))
        victims = self.rng(driver).sample(live, count) if count else []
        messages = 0
        for host in victims:
            if host in net.hosts:
                messages += net.fail_host(host)
                driver.note_departure(host)
        return {"hosts": victims, "repair_messages": messages}


@dataclass
class ASDepeer(FaultInjector):
    """De-peer (fail) one AS — a host-bearing stub by default — and
    optionally restore it ``restore_after`` later."""

    kind = "as_depeer"
    needs = ("fail_as", "restore_as")
    asn: Optional[str] = None
    stub_only: bool = True
    restore_after: Optional[float] = None

    def inject(self, driver: "WorkloadDriver") -> Dict:
        net = driver.net
        asn = self.asn
        if asn is None:
            pool = net.asg.stubs() if self.stub_only else net.asg.ases()
            candidates = sorted((a for a in pool
                                 if net.as_is_up(a) and net.ases[a].hosted),
                                key=str)
            if not candidates:
                return {"asn": None, "repair_messages": 0}
            asn = self.rng(driver).choice(candidates)
        ids = len(net.ases[asn].hosted)
        for vn in net.ases[asn].hosted.values():
            if vn.host_name is not None:
                driver.note_departure(vn.host_name)
        messages = net.fail_as(asn)
        if self.restore_after is not None:
            def restore():
                net.restore_as(asn)
                driver.fault_done({"kind": "as_restore",
                                   "at": driver.loop.now,
                                   "asn": str(asn)})
            driver.loop.schedule(self.restore_after, restore)
        return {"asn": str(asn), "ids": ids, "repair_messages": messages}


#: Fault kind → injector class: the fault vocabulary of a scenario.
INJECTORS = {cls.kind: cls for cls in (LinkCut, RouterCrash, PopPartition,
                                       HostCrash, ASDepeer)}
