"""The Disco-style compact-routing plane: election, balls, resolution,
bounded-stretch forwarding, and the stretch-bound probe."""

import pytest

from repro.compact.landmarks import build_plan, elect_landmarks, landmark_count
from repro.compact.network import DiscoNetwork
from repro.compact.resolve import (Locator, LocatorCache, ResolverDirectory,
                                   resolver_of)
from repro.idspace.identifier import FlatId
from repro.linkstate.lsdb import LinkStateMap
from repro.linkstate.spf import PathCache
from repro.obs import explain, trace
from repro.obs.probes import ProbeSet, StretchBoundProbe
from repro.obs.trace import TraceRecord, Tracer
from repro.topology.isp import synthetic_isp
from repro.util.rng import RngRegistry


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    trace.uninstall()


@pytest.fixture()
def topo():
    return synthetic_isp(n_routers=40, seed=3)


@pytest.fixture()
def net(topo):
    network = DiscoNetwork(topo, seed=0)
    network.join_random_hosts(40)
    return network


class TestLandmarks:
    def test_count_is_sqrt_clamped(self):
        assert landmark_count(1) == 1
        assert landmark_count(100) == 10
        assert landmark_count(50) == 8          # ceil(sqrt(50))
        assert landmark_count(4, factor=10.0) == 4   # clamped to R
        with pytest.raises(ValueError):
            landmark_count(0)

    def test_election_is_deterministic(self, topo):
        routers = list(topo.routers)
        a = elect_landmarks(routers, RngRegistry(7).derive("compact",
                                                           "landmarks"))
        b = elect_landmarks(list(reversed(routers)),
                            RngRegistry(7).derive("compact", "landmarks"))
        assert a == b == sorted(a)
        assert len(a) == landmark_count(len(routers))

    def test_plan_home_and_radius_match_fresh_spf(self, topo):
        paths = PathCache(LinkStateMap(topo))
        routers = list(topo.routers)
        landmarks = elect_landmarks(routers,
                                    RngRegistry(0).derive("x"))
        plan = build_plan(paths, routers, landmarks)
        for router in routers:
            dists = {lm: paths.hop_dist(router, lm) for lm in landmarks}
            best = min(dists.values())
            assert plan.radius[router] == best
            assert dists[plan.home[router]] == best
        for landmark in landmarks:
            assert plan.radius[landmark] == 0
            assert plan.ball[landmark] == set()

    def test_balls_are_closed_under_shortest_paths(self, topo):
        """The advertisement-cost argument: a shortest path to a ball
        member never leaves the ball."""
        paths = PathCache(LinkStateMap(topo))
        routers = list(topo.routers)
        plan = build_plan(paths, routers,
                          elect_landmarks(routers, RngRegistry(1).derive("x")))
        for router in routers:
            for member in plan.ball[router]:
                path = paths.hop_path(router, member)
                assert all(node in plan.ball[router] for node in path[1:-1])


class TestResolution:
    def test_resolver_hashing_is_stable_and_total(self):
        landmarks = ["r1", "r5", "r9"]
        for value in range(50):
            host_id = FlatId(value)
            assert resolver_of(host_id, landmarks) == \
                landmarks[value % len(landmarks)]
        with pytest.raises(ValueError):
            resolver_of(FlatId(1), [])

    def test_directory_register_withdraw(self):
        directory = ResolverDirectory(["r1", "r2"])
        locator = Locator(host_id=FlatId(4), attach_router="r7",
                          home_landmark="r1")
        assert directory.register(locator) == directory.resolver_of(FlatId(4))
        assert directory.lookup(FlatId(4)) == locator
        assert len(directory) == 1
        assert sum(directory.entries_per_landmark().values()) == 1
        assert directory.withdraw(FlatId(4)) is not None
        assert directory.lookup(FlatId(4)) is None
        assert directory.withdraw(FlatId(4)) is None

    def test_cache_lru_and_counters(self):
        cache = LocatorCache(capacity=2)
        locs = [Locator(FlatId(i), "r{}".format(i), "L") for i in range(3)]
        assert cache.get(FlatId(0)) is None and cache.misses == 1
        cache.put(locs[0])
        cache.put(locs[1])
        assert cache.get(FlatId(0)) == locs[0] and cache.hits == 1
        cache.put(locs[2])                    # evicts FlatId(1), the LRU
        assert cache.evictions == 1
        assert FlatId(1) not in cache and FlatId(0) in cache
        assert cache.invalidate(FlatId(0)) and cache.invalidations == 1
        assert not cache.invalidate(FlatId(0))

    def test_zero_capacity_cache_never_stores(self):
        cache = LocatorCache(capacity=0)
        cache.put(Locator(FlatId(1), "r1", "L"))
        assert len(cache) == 0
        with pytest.raises(ValueError):
            LocatorCache(capacity=-1)


class TestDiscoNetwork:
    def test_join_accounting_matches_stats(self, topo):
        net = DiscoNetwork(topo, seed=0)
        costs = net.join_random_hosts(10)
        assert costs == net.stats.operation_costs("join")
        assert all(c >= 0 for c in costs)
        assert net.stats.total_messages("bootstrap") > 0

    def test_join_advertises_into_ball(self, net):
        name = net.hosts.names[0]
        host_id = net.hosts[name]
        attach = net.host_location[host_id]
        assert host_id in net.vicinity_ids[attach]
        for member in net.plan.ball[attach]:
            assert host_id in net.vicinity_ids[member]

    def test_leave_withdraws_everywhere(self, net):
        name = net.hosts.names[0]
        host_id = net.hosts[name]
        assert net.leave_host(name) > 0
        assert net.directory.lookup(host_id) is None
        assert all(host_id not in ids for ids in net.vicinity_ids.values())
        assert net.stats.total_messages("leave") > 0

    def test_all_pairs_delivered_within_bound(self, net):
        names = net.hosts.names[:15]
        for a in names:
            for b in names:
                if a == b:
                    continue
                result = net.send(a, b)
                assert result.delivered
                if result.optimal_hops > 0:
                    assert result.stretch <= net.stretch_bound + 1e-9

    def test_repeat_send_hits_locator_cache(self, net):
        a, b = net.hosts.names[0], net.hosts.names[-1]
        net.send(a, b)
        before = net.stats.total_messages("lookup")
        hits_before = net.cache_stats()["hits"]
        net.send(a, b)
        if net.host_location[net.hosts[b]] != \
                net.host_location[net.hosts[a]]:
            assert net.cache_stats()["hits"] == hits_before + 1
            assert net.stats.total_messages("lookup") == before

    def test_stale_cache_detected_on_use(self, net):
        """Validate-on-use: a cached locator that disagrees with the
        directory is invalidated and re-resolved at full lookup cost."""
        names = net.hosts.names
        a, b = names[0], names[-1]
        host_id = net.hosts[b]
        src = net.host_location[net.hosts[a]]
        old = net.host_location[host_id]
        if src == old:
            a = names[1]
            src = net.host_location[net.hosts[a]]
        net.send(a, b)                         # populates src's cache
        assert host_id in net.caches[src]
        # Move b to a different attachment point behind the cache's back.
        new_attach = next(r for r in sorted(net.topology.routers)
                          if r not in (old, src))
        net.directory.withdraw(host_id)
        net.directory.register(Locator(host_id=host_id,
                                       attach_router=new_attach,
                                       home_landmark=net.plan.home[new_attach]))
        net.host_location[host_id] = new_attach
        net.vicinity_ids[old].discard(host_id)
        for member in net.plan.ball[old]:
            net.vicinity_ids[member].discard(host_id)
        net.vicinity_ids[new_attach].add(host_id)
        for member in net.plan.ball[new_attach]:
            net.vicinity_ids[member].add(host_id)
        invalidations = net.cache_stats()["invalidations"]
        result = net.send(a, b)
        assert result.delivered
        assert result.path[-1] == new_attach
        assert net.cache_stats()["invalidations"] == invalidations + 1

    def test_unknown_id_pays_lookup_and_fails(self, net):
        src = sorted(net.topology.routers)[0]
        before = net.stats.total_messages("lookup")
        result = net.send_to_id(src, FlatId(2**100 + 17))
        assert not result.delivered
        assert net.stats.total_messages("lookup") >= before

    def test_memory_counts_all_four_tables(self, net):
        mem = net.state_entries()
        assert set(mem) == set(net.topology.routers)
        landmark = net.plan.landmarks[0]
        assert mem[landmark] >= net.plan.n_landmarks
        total_vicinity = sum(len(v) for v in net.vicinity_ids.values())
        total_shard = len(net.directory)
        assert sum(mem.values()) >= total_vicinity + total_shard

    def test_same_seed_is_deterministic(self, topo):
        a = DiscoNetwork(topo, seed=5)
        b = DiscoNetwork(topo, seed=5)
        a.join_random_hosts(12)
        b.join_random_hosts(12)
        assert a.plan.landmarks == b.plan.landmarks
        assert list(a.hosts) == list(b.hosts)
        pair = a.random_host_pair()
        assert pair == b.random_host_pair()
        assert a.send(*pair).path == b.send(*pair).path


class TestStretchBoundProbe:
    def test_for_network_attaches_probe(self, net):
        probes = ProbeSet.for_network(net)
        assert {p.name for p in probes.probes} == {"stretch-bound"}

    def test_healthy_network_ticks_clean(self, net):
        assert ProbeSet.for_network(net).tick(0.0) == 0

    def test_bound_breach_is_reported(self):
        probe = StretchBoundProbe()
        violations = []
        record = TraceRecord(seq=1, t=0.0, span=1, parent=-1, kind="end",
                             data={"delivered": True, "hops": 10,
                                   "optimal": 2, "bound": 3.0})
        probe.on_record(record, lambda **d: violations.append(d))
        assert violations and \
            violations[0]["kind"] == "stretch-bound-exceeded"

    def test_compliant_end_records_pass(self):
        probe = StretchBoundProbe()
        violations = []
        for hops, optimal in ((6, 2), (3, 1), (0, 0)):
            record = TraceRecord(seq=1, t=0.0, span=1, parent=-1, kind="end",
                                 data={"delivered": True, "hops": hops,
                                       "optimal": optimal, "bound": 3.0})
            probe.on_record(record, lambda **d: violations.append(d))
        assert violations == []

    def test_corrupted_radius_caught_by_sweep(self, net):
        router = next(r for r in sorted(net.topology.routers)
                      if net.plan.radius[r] > 0)
        net.plan.radius[router] += 1
        violations = []
        StretchBoundProbe(net).check(lambda **d: violations.append(d))
        net.plan.radius[router] -= 1
        assert any(v["kind"] == "radius-disagreement" for v in violations)

    def test_stale_locator_caught_by_sweep(self, net):
        # Corrupt a locator the bounded deterministic sweep will sample.
        host_id = StretchBoundProbe(net)._sample(net.host_location)[0]
        actual = net.host_location[host_id]
        other = next(r for r in sorted(net.topology.routers) if r != actual)
        net.host_location[host_id] = other
        violations = []
        StretchBoundProbe(net).check(lambda **d: violations.append(d))
        net.host_location[host_id] = actual
        assert any(v["kind"] == "locator-stale" for v in violations)


class TestExplainIntegration:
    def test_attribution_sums_to_stretch(self, net):
        tracer = Tracer(trace.RingBufferSink())
        results = []
        with trace.tracing(tracer):
            for _ in range(40):
                a, b = net.random_host_pair()
                results.append(net.send(a, b))
        packets = explain.explain_packets(tracer.sink.records())
        assert len(packets) == len(results)
        rules = set()
        for packet, result in zip(packets, results):
            assert packet.root.kind == "compact.packet"
            assert packet.delivered == result.delivered
            assert packet.hops == result.hops
            total = packet.total_stretch(result.optimal_hops)
            assert total == pytest.approx(result.stretch, abs=1e-9)
            rules.update(seg.rule for seg in packet.segments)
        assert rules <= {"vicinity.direct", "vicinity.shortcut",
                         "landmark.route", "landmark.descend"}

    def test_end_records_carry_bound_for_the_probe(self, net):
        tracer = Tracer(trace.RingBufferSink())
        probes = ProbeSet.for_network(net, tracer=tracer)
        with trace.tracing(tracer):
            a, b = net.random_host_pair()
            net.send(a, b)
        probes.detach()
        ends = [r for r in tracer.sink.records() if r.kind == "end"]
        assert ends and all("bound" in r.data and "optimal" in r.data
                            for r in ends)
        assert probes.violations == []
