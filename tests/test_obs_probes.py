"""Live invariant probes: violations are structured, not exceptions."""

import pytest

from repro.inter.network import InterDomainNetwork
from repro.intra.network import IntraDomainNetwork
from repro.obs import trace
from repro.obs.probes import (CacheIsolationProbe, ProbeSet,
                              RingConsistencyProbe, SpfAgreementProbe)
from repro.obs.trace import TraceRecord, Tracer
from repro.topology.asgraph import synthetic_as_graph
from repro.topology.isp import synthetic_isp


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    trace.uninstall()


def _intra_net(seed=0):
    net = IntraDomainNetwork(synthetic_isp(n_routers=16, seed=seed),
                             seed=seed)
    net.join_random_hosts(30)
    return net


def _inter_net(seed=0):
    net = InterDomainNetwork(synthetic_as_graph(n_ases=24, seed=seed),
                             seed=seed, cache_entries=128)
    net.join_random_hosts(30)
    return net


class TestProbeSet:
    def test_for_network_picks_plane_specific_probes(self):
        intra = ProbeSet.for_network(_intra_net())
        assert {p.name for p in intra.probes} == {"ring-consistency",
                                                 "spf-agreement"}
        inter = ProbeSet.for_network(_inter_net())
        assert {p.name for p in inter.probes} == {"inter-ring-consistency",
                                                 "cache-isolation"}

    def test_healthy_networks_tick_clean(self):
        assert ProbeSet.for_network(_intra_net()).tick(1.0) == 0
        assert ProbeSet.for_network(_inter_net()).tick(1.0) == 0

    def test_violations_become_trace_records(self):
        tracer = Tracer()
        probes = ProbeSet([], tracer=tracer)
        report = probes._report_for(RingConsistencyProbe(None))
        report(error="synthetic")
        assert probes.violations[0].probe == "ring-consistency"
        assert [r.kind for r in tracer.sink.records()] == ["probe.violation"]

    def test_detach_stops_record_delivery(self):
        tracer = Tracer()
        probes = ProbeSet.for_network(_inter_net(), tracer=tracer)
        probes.detach()
        tracer.emit("cache.hit", asn="S-0", dest="00")
        assert probes.violations == []


class TestRingConsistency:
    def test_broken_successor_is_reported_not_raised(self):
        net = _intra_net()
        # Corrupt one member's primary successor to point at itself.
        victim = next(vn for vn in net.ring_members()
                      if vn.primary_successor() is not None)
        broken = victim.primary_successor()
        victim.successors[0] = type(broken)(
            dest_id=victim.id, path=(victim.router,))
        probes = ProbeSet([RingConsistencyProbe(net)])
        assert probes.tick(5.0) == 1
        violation = probes.violations[0]
        assert violation.probe == "ring-consistency" and violation.t == 5.0
        assert "expects" in violation.detail["error"] \
            or "successor" in violation.detail["error"]


class TestSpfAgreement:
    def test_stale_path_cache_detected(self):
        net = _intra_net()
        probe = SpfAgreementProbe(net)
        probes = ProbeSet([probe])
        assert probes.tick(0.0) == 0
        # Poison one cached tree behind the cache's back: shortest-path
        # answers diverge from a fresh SPF until invalidation.
        src, dst = next((s, d) for s, d in probe._sample_pairs()
                        if d in net.paths._hop_tree(s))
        tree = net.paths._hop_tree(src)
        tree[dst] = list(tree[dst]) + [dst]  # one bogus extra hop
        assert probes.tick(1.0) >= 1
        assert probes.violations[0].detail["src"] == src


class TestCacheIsolation:
    def test_bloom_guard_bypass_detected_from_cache_hit_record(self):
        net = _inter_net()
        probe = CacheIsolationProbe(net)
        probes = ProbeSet([probe])
        asn = next(iter(net.ases))
        node = net.ases[asn]
        resident = next(iter(net.hosts.values()))
        node.subtree_bloom.add(resident.id)
        record = TraceRecord(seq=1, t=0.0, span=1, parent=-1,
                             kind="cache.hit",
                             data={"asn": str(asn),
                                   "dest": resident.id.to_hex()})
        probes.on_record(record)
        assert len(probes.violations) == 1
        assert probes.violations[0].detail["kind"] == "bloom-guard-bypassed"

    def test_stale_bloom_missing_resident_detected(self):
        net = _inter_net()
        probes = ProbeSet([CacheIsolationProbe(net)])
        assert probes.tick(0.0) == 0
        # Wipe one AS's bloom: its own hosted IDs are now "missing".
        victim = next(asn for asn, node in net.ases.items() if node.hosted)
        net.ases[victim].subtree_bloom._bits = 0
        assert probes.tick(1.0) >= 1
        kinds = {v.detail["kind"] for v in probes.violations}
        assert kinds == {"bloom-missing-resident"}


class TestWorkloadIntegration:
    def test_driver_runs_probes_and_reports_clean(self):
        from repro.workload.driver import run_scenario
        from repro.workload.scenario import builtin_scenario
        scenario = builtin_scenario("steady-churn")
        result = run_scenario(scenario, probes=True)
        assert result.violations == []
        assert result.deterministic_view()["violations"] == []

    def test_traced_run_matches_untraced_run(self):
        """Enabling tracing must not perturb the seeded streams."""
        from repro.workload.driver import run_scenario
        from repro.workload.scenario import builtin_scenario
        base = run_scenario(builtin_scenario("steady-churn"))
        tracer = Tracer()
        with trace.tracing(tracer):
            traced = run_scenario(builtin_scenario("steady-churn"),
                                  tracer=tracer, probes=True)
        assert tracer.records_emitted > 0
        a = base.deterministic_view()
        b = traced.deterministic_view()
        a.pop("violations"), b.pop("violations")
        assert a == b
