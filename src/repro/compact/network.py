"""DiscoNetwork: compact routing on flat names with provable stretch ≤ 3.

The third flat-label baseline beside CMU-ETHERNET and OSPF host routing
(see :mod:`repro.baselines`): a Disco-style protocol ("Scalable Routing
on Flat Names", Singla et al.) over the same ISP topologies and host
populations ROFL runs on.  Where ROFL trades bounded state for an
*unbounded* worst-case stretch (the paper can only report empirical
CDFs), Disco pays ``O(sqrt(R))`` routing entries per router for a
worst-case guarantee the obs layer can check packet by packet.

Control plane (built at construction + per join):

* **landmark election** — ``~sqrt(R)`` routers sampled from the seeded
  RNG registry flood their election; every router installs a route to
  every landmark (:mod:`repro.compact.landmarks`);
* **vicinity advertisement** — every router advertises itself (and
  later its attached hosts) into its Thorup–Zwick ball, so router ``v``
  ends up with a host entry for exactly the IDs attached at routers
  ``w`` with ``v ∈ ball(w)``;
* **name resolution** — each flat ID hashes to one landmark storing its
  locator (:mod:`repro.compact.resolve`); joins register there, senders
  query it once and cache the answer.

Data plane, per packet from router ``s`` to the target's attachment
router ``a`` with home landmark ``L(a)`` and radius ``r_a = d(a,
L(a))``:

* if the target ID is in ``s``'s vicinity table (``s ∈ ball(a)`` or
  ``s = a``) route the shortest path directly — stretch 1
  (``vicinity.direct``);
* otherwise route toward ``L(a)`` (``landmark.route``); any router on
  the way whose vicinity table knows the ID exits early onto a shortest
  path (``vicinity.shortcut``), else the packet descends ``L(a) → a``
  (``landmark.descend``).

The guarantee: ``s ∉ ball(a)`` means ``r_a ≤ d(s, a)``, so the detour
costs at most ``d(s, L(a)) + d(L(a), a) ≤ d(s, a) + 2·r_a ≤ 3·d(s,
a)``, and a mid-path shortcut never exceeds the remaining detour by the
triangle inequality — observed stretch ≤ 3 on every delivered packet,
asserted live by :class:`repro.obs.probes.StretchBoundProbe` from the
``end`` records emitted here.

Like ROFL's ``validate_pointer``, staleness is modelled against the
oracle: a cached locator that disagrees with the directory is detected
on use, invalidated, and re-queried at full lookup cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.compact.landmarks import LandmarkPlan, build_plan, elect_landmarks
from repro.compact.resolve import Locator, LocatorCache, ResolverDirectory
from repro.idspace.identifier import FlatId
from repro.linkstate.protocol import flood_message_cost
from repro.network import Network
from repro.obs import trace
from repro.sim.stats import PathResult
from repro.topology.graph import RouterTopology
from repro.topology.hosts import PlannedHost
from repro.util import perf


class DiscoNetwork(Network):
    """Compact flat-name routing over one ISP topology."""

    kind = "disco"
    #: Provable worst-case data-path stretch (Thorup–Zwick argument in
    #: the module docstring); every ``end`` trace record carries it and
    #: the stretch-bound probe asserts ``hops ≤ bound · optimal``.
    stretch_bound = 3.0

    def __init__(self, topology: RouterTopology, seed: int = 0,
                 landmark_factor: float = 1.0,
                 locator_cache_entries: int = 64,
                 authority=None,
                 attachment_weights: Optional[List[float]] = None):
        super().__init__(seed, ("compact", "traffic"), topology=topology,
                         weights=attachment_weights, authority=authority)

        election_rng = self.rngs.derive("compact", "landmarks")
        self.plan: LandmarkPlan = build_plan(
            self.paths, list(topology.routers),
            elect_landmarks(list(topology.routers), election_rng,
                            landmark_factor))
        self.directory = ResolverDirectory(self.plan.landmarks)
        self.locator_cache_entries = locator_cache_entries
        self.caches: Dict[str, LocatorCache] = {
            router: LocatorCache(locator_cache_entries)
            for router in sorted(topology.routers)}
        #: router → flat IDs its vicinity table can route directly
        #: (hosts attached at routers whose ball contains it, plus its
        #: own attached hosts).
        self.vicinity_ids: Dict[str, Set[FlatId]] = {
            router: set() for router in topology.routers}

        #: host ID → attachment router (``hosts`` maps name → host ID).
        self.host_location: Dict[FlatId, str] = {}
        self._host_names: Dict[FlatId, str] = {}
        self._bootstrap()

    # -- control plane -------------------------------------------------------

    def _bootstrap(self) -> None:
        """Charge the one-time protocol setup.

        Each landmark floods its election (every router must learn a
        route to every landmark), and each router advertises itself into
        its ball — ball closure makes that advertisement a spanning tree
        of the ball, one message per member.
        """
        with self.stats.operation("bootstrap"):
            for landmark in self.plan.landmarks:
                self.stats.charge_hops(
                    flood_message_cost(self.lsmap, landmark), "bootstrap")
            for router in sorted(self.topology.routers):
                self.stats.charge_hops(self.plan.ball_size(router),
                                       "bootstrap")

    def join_host(self, host: PlannedHost) -> int:
        """Join one host; returns the network-level messages charged to
        the join operation (the :meth:`Network.join_host` contract).

        Two control actions: register the locator at the ID's resolver
        landmark (one message along the attach → resolver path) and
        advertise the ID into the attach router's ball (one message per
        ball member, by ball closure).
        """
        with perf.timed("compact.join"), \
                self.stats.operation("join", host=host.name) as op:
            attach = host.attach_at
            locator = Locator(host_id=host.flat_id, attach_router=attach,
                              home_landmark=self.plan.home[attach])
            resolver = self.directory.resolver_of(host.flat_id)
            reg_path = self.paths.hop_path(attach, resolver)
            if reg_path is None:
                raise ValueError("resolver {!r} unreachable from {!r}"
                                 .format(resolver, attach))
            self.stats.charge_path(reg_path, "join")
            self.stats.charge_hops(self.plan.ball_size(attach), "join")
            self.directory.register(locator)
            self.vicinity_ids[attach].add(host.flat_id)
            for member in self.plan.ball[attach]:
                self.vicinity_ids[member].add(host.flat_id)
        self.hosts[host.name] = host.flat_id
        self.host_location[host.flat_id] = attach
        self._host_names[host.flat_id] = host.name
        return op["messages"]

    def leave_host(self, host_name: str) -> int:
        """Withdraw a host: unregister its locator and retract the ball
        advertisement; returns the messages charged.  Remote locator
        caches are *not* notified — they discover staleness on next use,
        exactly like ROFL's cached source routes."""
        host_id = self.hosts[host_name]
        attach = self.host_location[host_id]
        with self.stats.operation("leave", host=host_name) as op:
            resolver = self.directory.withdraw(host_id)
            if resolver is not None:
                path = self.paths.hop_path(attach, resolver)
                if path is not None:
                    self.stats.charge_path(path, "leave")
            self.stats.charge_hops(self.plan.ball_size(attach), "leave")
            self.vicinity_ids[attach].discard(host_id)
            for member in self.plan.ball[attach]:
                self.vicinity_ids[member].discard(host_id)
        del self.hosts[host_name]
        del self.host_location[host_id]
        del self._host_names[host_id]
        return op["messages"]

    # -- resolution ----------------------------------------------------------

    def _resolve(self, src_router: str, dest_id: FlatId,
                 tr) -> Tuple[Optional[Locator], bool]:
        """Locator for ``dest_id`` as seen from ``src_router``.

        Returns ``(locator, used_cache)``; ``(None, _)`` means the ID is
        not registered anywhere (the lookup round-trip is still paid).
        Cache hits are validated against the directory oracle — a stale
        entry is invalidated and re-queried at full cost.
        """
        current = self.directory.lookup(dest_id)
        if current is not None and current.attach_router == src_router:
            if tr is not None:
                tr.event("resolve.local", router=src_router)
            return current, False

        cache = self.caches[src_router]
        cached = cache.get(dest_id)
        if cached is not None:
            if cached == current:
                if tr is not None:
                    tr.event("resolve.hit", router=src_router)
                return cached, True
            cache.invalidate(dest_id)

        if tr is not None:
            tr.event("resolve.miss", router=src_router)
        resolver = self.directory.resolver_of(dest_id)
        query_path = self.paths.hop_path(src_router, resolver)
        if query_path is None:
            return None, False
        self.stats.charge_path(query_path, "lookup")
        self.stats.charge_path(list(reversed(query_path)), "lookup")
        if tr is not None:
            tr.event("resolve.query", router=src_router, resolver=resolver,
                     rtt_hops=2 * (len(query_path) - 1))
        if current is None:
            return None, False
        cache.put(current)
        return current, False

    # -- data plane ----------------------------------------------------------

    def send(self, src_host: str, dst_host: str) -> PathResult:
        src_router = self.host_location[self.hosts[src_host]]
        return self.send_to_id(src_router, self.hosts[dst_host])

    def send_to_id(self, src_router: str, dest_id: FlatId) -> PathResult:
        """Resolve ``dest_id`` and route one data packet toward it."""
        with perf.timed("compact.route.data"):
            tr = trace.packet_span("compact.packet", start=src_router,
                                   dest=dest_id.to_hex(),
                                   mode="data") if trace.ENABLED else None
            locator, used_cache = self._resolve(src_router, dest_id, tr)
            if locator is None:
                if tr is not None:
                    tr.end(delivered=False, reason="unknown id",
                           router=src_router)
                    trace.close_span(tr)
                return PathResult(delivered=False, path=[src_router])
            result = self._route(src_router, locator, tr)
            result.used_cache = used_cache
            return result

    def _route(self, src_router: str, locator: Locator, tr) -> PathResult:
        dest = locator.attach_router
        dest_id = locator.host_id
        optimal = self.paths.hop_dist(src_router, dest)
        if optimal is None:
            if tr is not None:
                tr.end(delivered=False, reason="destination unreachable",
                       router=src_router)
                trace.close_span(tr)
            return PathResult(delivered=False, path=[src_router])

        route_path: List[str] = [src_router]

        def walk(to: str) -> bool:
            """Extend the route along the shortest path to ``to``."""
            leg = self.paths.hop_path(route_path[-1], to)
            if leg is None:
                return False
            for frm, nxt in zip(leg, leg[1:]):
                route_path.append(nxt)
                if tr is not None:
                    tr.hop(frm=frm, to=nxt)
            return True

        delivered = True
        reason = "delivered"
        if dest_id in self.vicinity_ids[src_router]:
            if tr is not None:
                tr.decision(router=src_router, rule="vicinity.direct",
                            target=dest, distance=optimal)
            delivered = walk(dest)
        else:
            landmark = locator.home_landmark
            if tr is not None:
                tr.decision(router=src_router, rule="landmark.route",
                            target=landmark,
                            distance=self.paths.hop_dist(src_router,
                                                         landmark))
            leg = self.paths.hop_path(src_router, landmark)
            if leg is None:
                delivered = False
            else:
                current = src_router
                for frm, nxt in zip(leg, leg[1:]):
                    route_path.append(nxt)
                    if tr is not None:
                        tr.hop(frm=frm, to=nxt)
                    current = nxt
                    if current == dest:
                        break
                    if dest_id in self.vicinity_ids[current]:
                        if tr is not None:
                            tr.decision(
                                router=current, rule="vicinity.shortcut",
                                target=dest,
                                distance=self.paths.hop_dist(current, dest))
                        delivered = walk(dest)
                        break
                else:
                    # Reached the landmark without meeting the vicinity:
                    # descend the landmark's own route to the target.
                    if current != dest:
                        if tr is not None:
                            tr.decision(
                                router=current, rule="landmark.descend",
                                target=dest,
                                distance=self.paths.hop_dist(current, dest))
                        delivered = walk(dest)

        if not delivered:
            reason = "destination unreachable"
        hops = len(route_path) - 1
        self.stats.charge_path(route_path, "data")
        if tr is not None:
            tr.end(delivered=delivered, reason=reason, router=route_path[-1],
                   hops=hops, optimal=optimal, bound=self.stretch_bound)
            trace.close_span(tr)
        return PathResult(delivered=delivered, path=route_path, hops=hops,
                          optimal_hops=optimal)

    # -- accounting ----------------------------------------------------------

    def memory_entries_per_router(self) -> Dict[str, int]:
        """Routing-table entries per router: the landmark table (every
        router), the vicinity host entries, the locator-directory shard
        (landmarks only), and the live locator cache."""
        shard = self.directory.entries_per_landmark()
        return {
            router: (self.plan.n_landmarks
                     + len(self.vicinity_ids[router])
                     + shard.get(router, 0)
                     + len(self.caches[router]))
            for router in self.topology.routers}

    def check(self) -> None:
        """Every joined ID is registered with its true attachment router."""
        for host_id, attach in self.host_location.items():
            locator = self.directory.lookup(host_id)
            if locator is None or locator.attach_router != attach:
                raise AssertionError("{} attached at {} but registered as "
                                     "{}".format(host_id, attach, locator))

    def cache_stats(self) -> Dict[str, int]:
        """Aggregate locator-cache counters across all routers."""
        totals = {"hits": 0, "misses": 0, "evictions": 0, "invalidations": 0}
        for cache in self.caches.values():
            totals["hits"] += cache.hits
            totals["misses"] += cache.misses
            totals["evictions"] += cache.evictions
            totals["invalidations"] += cache.invalidations
        return totals
