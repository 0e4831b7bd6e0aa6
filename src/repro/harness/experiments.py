"""Drivers for every figure in the paper's evaluation (Section 6).

Scaling: the paper simulates up to millions of (intradomain) and tens of
thousands of (interdomain) hosts on their cluster; these drivers default
to laptop-scale parameters and expose knobs to scale up.  Where the paper
extrapolates to a 600 M-host Internet, the same log-linear extrapolation
is computed and reported (see DESIGN.md §3.5).
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import build_network
from repro.compact.network import DiscoNetwork
from repro.inter.bgp import BgpBaseline
from repro.inter.network import InterDomainNetwork
from repro.inter.policy import JoinStrategy
from repro.obs import trace
from repro.obs.explain import explain_packets
from repro.obs.probes import ProbeSet
from repro.obs.trace import RingBufferSink, Tracer
from repro.sim.stats import cdf_points, percentile
from repro.topology.asgraph import as_router_topology, synthetic_as_graph
from repro.topology.hosts import PAPER_INTERNET_HOSTS
from repro.topology.isp import ROCKETFUEL_PROFILES, TCAM_ENTRIES
from repro.util import perf
from repro.util.rng import derive_rng
from repro.workload.driver import run_scenario
from repro.workload.scenario import (FaultSpec, NetworkSpec, Phase, Scenario,
                                     TrafficSpec)


def _with_perf(fn):
    """Instrument an experiment driver with the global perf registry.

    The registry is reset on entry, the whole driver runs under an
    ``experiment.<name>`` timer, and the counter/timer snapshot is
    attached to the result dict under the ``"perf"`` key — so every
    figure's output carries the hot-path counters (forwarding hops,
    index flushes, SPF evictions) that produced it.  Report formatters
    skip the key; ``repro report --perf`` reads it off a ``compare-stretch
    --json`` file.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        perf.reset()
        with perf.timed("experiment." + fn.__name__):
            result = fn(*args, **kwargs)
        result["perf"] = perf.snapshot()
        return result
    return wrapper


def _mean(samples: Sequence[float]) -> Optional[float]:
    """Mean of a sample list, or ``None`` for an empty one.

    Stretch/cost series can legitimately come back empty (every send
    undeliverable under faults, zero eligible pairs at tiny scale);
    ``None`` is the explicit empty-series marker the formatters render
    as ``n/a``."""
    return sum(samples) / len(samples) if samples else None


def _stretches(results) -> List[float]:
    """The stretch samples of a result list: delivered packets whose
    endpoints are not on the same router."""
    return [r.stretch for r in results if r.delivered and r.optimal_hops > 0]


def _mean_stretch(net, n_packets: int) -> Optional[float]:
    """Mean stretch of ``n_packets`` sends between random host pairs."""
    return _mean(_stretches(net.send(*net.random_host_pair())
                            for _ in range(n_packets)))


#: What every figure and the head-to-head run at: a third of the router
#: count of each Rocketfuel map the paper used.
FAST_PROFILES = {name: profile["routers"] // 3
                 for name, profile in ROCKETFUEL_PROFILES.items()}


def _isp(profile: str, seed: int, kind: str = "intra", hosts: int = 0,
         **sizing):
    """A ``kind`` network over the scaled-down ``profile`` ISP with
    ``hosts`` joined: :func:`repro.build_network` under the profile's
    name, so every kind built for one profile sees the same topology."""
    return build_network(kind, seed, hosts=hosts, name=profile,
                         n_routers=FAST_PROFILES[profile], **sizing)


def _inter(n_ases: int, seed: int, **config) -> InterDomainNetwork:
    """Interdomain ROFL configured past what ``build_network`` sizes (a
    join ``strategy``, a ``peering_mode``)."""
    return InterDomainNetwork(synthetic_as_graph(n_ases=n_ases, seed=seed),
                              seed=seed, **config)


def _rofl_beside_cmu(profile: str, seed: int, host_counts: Sequence[int]
                     ) -> Iterator[Tuple[int, object, object]]:
    """ROFL and CMU-ETHERNET over one ISP, both joined up to each of
    ``host_counts`` in turn: ``(count, rofl, cmu)`` at every step."""
    rofl, cmu = _isp(profile, seed), _isp(profile, seed, "cmu")
    joined = 0
    for target in sorted(host_counts):
        rofl.join_random_hosts(target - joined)
        cmu.join_random_hosts(target - joined)
        joined = target
        yield target, rofl, cmu


# ---------------------------------------------------------------------------
# Fig 5a — intradomain cumulative join overhead (+ CMU-ETHERNET ratio)
# ---------------------------------------------------------------------------

@_with_perf
def fig5a_intra_join_overhead(profiles: Sequence[str] = ("AS1221", "AS3967"),
                              host_counts: Sequence[int] = (10, 100, 1000),
                              seed: int = 0) -> Dict:
    """Cumulative join messages vs number of hosts, ROFL vs CMU-ETHERNET."""
    out: Dict = {"profiles": {}, "host_counts": list(host_counts)}
    for profile in profiles:
        rofl_series: List[int] = []
        cmu_series: List[int] = []
        for _, rofl, cmu in _rofl_beside_cmu(profile, seed, host_counts):
            rofl_series.append(rofl.stats.total_messages("join"))
            cmu_series.append(cmu.stats.total_messages("join"))
        ratios = [c / r for r, c in zip(rofl_series, cmu_series) if r]
        out["profiles"][profile] = {
            "rofl_cumulative": rofl_series,
            "cmu_cumulative": cmu_series,
            "cmu_over_rofl": ratios,
            "diameter": rofl.topology.diameter(),
        }
    return out


# ---------------------------------------------------------------------------
# Fig 5b — CDF of per-host join overhead
# ---------------------------------------------------------------------------

@_with_perf
def fig5b_join_overhead_cdf(profiles: Sequence[str] = ("AS1221", "AS3967"),
                            n_hosts: int = 600, seed: int = 0) -> Dict:
    out: Dict = {}
    for profile in profiles:
        net = _isp(profile, seed, hosts=n_hosts)
        costs = net.stats.operation_costs("join")
        mean, diameter = _mean(costs), net.topology.diameter()
        out[profile] = {
            "cdf": cdf_points(costs),
            "median": percentile(costs, 0.5),
            "p95": percentile(costs, 0.95),
            "mean": mean,
            "diameter": diameter,
            "per_diameter": mean / diameter,
        }
    return out


# ---------------------------------------------------------------------------
# Fig 5c — CDF of join latency
# ---------------------------------------------------------------------------

@_with_perf
def fig5c_join_latency_cdf(profiles: Sequence[str] = ("AS1221", "AS3967"),
                           n_hosts: int = 400, seed: int = 0) -> Dict:
    out: Dict = {}
    for profile in profiles:
        net = _isp(profile, seed)
        latencies = [net.join_host(net.next_planned_host()).latency_ms
                     for _ in range(n_hosts)]
        out[profile] = {
            "cdf": cdf_points(latencies),
            "median_ms": percentile(latencies, 0.5),
            "p95_ms": percentile(latencies, 0.95),
            "mean_ms": _mean(latencies),
        }
    return out


# ---------------------------------------------------------------------------
# Fig 6a — intradomain stretch vs pointer-cache size
# ---------------------------------------------------------------------------

@_with_perf
def fig6a_stretch_vs_cache(profile: str = "AS3967",
                           cache_sizes: Sequence[int] = (0, 16, 64, 256, 1024,
                                                         8192, TCAM_ENTRIES),
                           n_hosts: int = 800, n_packets: int = 400,
                           seed: int = 0) -> Dict:
    series = [(cache, _mean_stretch(_isp(profile, seed, hosts=n_hosts,
                                         cache_entries=cache), n_packets))
              for cache in cache_sizes]
    return {"profile": profile, "series": series,
            "tcam_entries": TCAM_ENTRIES}


# ---------------------------------------------------------------------------
# Fig 6b — load balance vs OSPF
# ---------------------------------------------------------------------------

@_with_perf
def fig6b_load_balance(profile: str = "AS3967", n_hosts: int = 500,
                       n_packets: int = 1500, seed: int = 0) -> Dict:
    net = _isp(profile, seed, hosts=n_hosts)
    net.stats.reset_load()
    ospf = _isp(profile, seed, "ospf")
    for _ in range(n_packets):
        a, b = net.random_host_pair()
        net.send(a, b)
        ospf.send_routers(net.hosts[a].router, net.hosts[b].router)
    rofl_load = net.stats.load_series()
    ospf_load = ospf.stats.load_series()
    rofl_total = sum(rofl_load.values()) or 1
    ospf_total = sum(ospf_load.values()) or 1
    # Routers ranked by OSPF load (the paper's x-axis).
    ranked = sorted(net.topology.routers, key=lambda r: ospf_load.get(r, 0),
                    reverse=True)
    series = [(rank, ospf_load.get(r, 0) / ospf_total,
               rofl_load.get(r, 0) / rofl_total)
              for rank, r in enumerate(ranked)]
    top10 = series[:max(1, len(series) // 10)]
    return {
        "profile": profile,
        "series": series,
        "max_fraction_ospf": max(s[1] for s in series),
        "max_fraction_rofl": max(s[2] for s in series),
        "top_decile_ratio": (sum(s[2] for s in top10)
                             / max(1e-12, sum(s[1] for s in top10))),
    }


# ---------------------------------------------------------------------------
# Fig 6c — memory per router vs number of IDs (+ CMU-ETHERNET ratio)
# ---------------------------------------------------------------------------

@_with_perf
def fig6c_memory(profile: str = "AS3967",
                 host_counts: Sequence[int] = (10, 100, 1000),
                 seed: int = 0) -> Dict:
    series = []
    for target, rofl, cmu in _rofl_beside_cmu(profile, seed, host_counts):
        rofl_avg = _mean(list(rofl.state_entries(
            include_cache=False).values()))
        cmu_avg = _mean(list(cmu.state_entries().values()))
        series.append({"ids": target, "rofl_avg_entries": rofl_avg,
                       "cmu_avg_entries": cmu_avg,
                       "cmu_over_rofl": cmu_avg / max(rofl_avg, 1e-9)})
    return {"profile": profile, "series": series}


# ---------------------------------------------------------------------------
# Fig 7 and §6.2 (text) — partition, host-failure and router-failure repair
#
# The recovery experiments (7/7b/7c) are scenarios on the repro.workload
# engine: the scenario declares the population and the faults, and the
# run's fault log carries the repair measurements back out.
# ---------------------------------------------------------------------------

def _run_recovery(net, name: str, seed: int, warmup_hosts: int,
                  faults: List, duration: float = 1.0,
                  phases: Sequence = ()) -> Tuple[object, float]:
    """Run a recovery scenario on ``net``: ``warmup_hosts`` joins, then
    ``faults`` (and ``phases``) over ``duration``.  Returns the run's
    result and the mean join cost it paid (1.0 when nothing joined, so
    the ratios against it stay defined)."""
    result = run_scenario(Scenario(
        name=name, seed=seed, duration=duration, warmup_hosts=warmup_hosts,
        sample_interval=duration, network=NetworkSpec(kind="intra"),
        phases=list(phases), faults=faults), network=net)
    return result, _mean(net.stats.operation_costs("join")) or 1.0


@_with_perf
def fig7_partition_repair(profile: str = "AS3967",
                          ids_per_pop: Sequence[int] = (1, 4, 16, 64),
                          seed: int = 0) -> Dict:
    """Partition repair overhead vs IDs per PoP."""
    series = []
    for per_pop in ids_per_pop:
        net = _isp(profile, seed)
        pops = net.topology.pops
        pop = derive_rng(seed, "fig7", per_pop).choice(sorted(pops))
        result, avg_join = _run_recovery(
            net, "fig7-partition", seed, per_pop * len(pops),
            [FaultSpec(kind="pop_partition", at=0.5, params={"pop": pop})])
        report = next(f for f in result.fault_log
                      if f["kind"] == "pop_partition")
        series.append({
            "ids_per_pop": per_pop,
            "ids_in_pop": report["ids_in_pop"],
            "repair_messages": report["repair_messages"],
            # What rejoining the PoP's IDs would cost.
            "rejoin_baseline": report["ids_in_pop"] * avg_join,
        })
    return {"profile": profile, "series": series}


@_with_perf
def fig7b_host_failure(profile: str = "AS3967", n_hosts: int = 500,
                       n_failures: int = 100, seed: int = 0) -> Dict:
    """§6.2 (text): host-failure repair overhead vs join overhead."""
    net = _isp(profile, seed)
    _, avg_join = _run_recovery(
        net, "fig7b-host-failure", seed, n_hosts,
        [FaultSpec(kind="host_crash", at=0.5,
                   params={"count": n_failures})])
    avg_failure = _mean(net.stats.operation_costs("host_failure"))
    net.check()
    return {
        "profile": profile,
        "avg_join": avg_join,
        "avg_failure": avg_failure,
        "failure_over_join": avg_failure / avg_join,
    }


@_with_perf
def fig7c_router_recovery(profile: str = "AS3967", n_hosts: int = 300,
                          n_failures: int = 3, probe_rate: float = 40.0,
                          seed: int = 0) -> Dict:
    """§6.2 (text) / Fig 7c: crash routers one at a time under open-loop
    probe traffic and measure per-crash repair cost plus the delivery
    rate the survivors sustain while the ring heals."""
    net = _isp(profile, seed)
    duration = float(n_failures + 1)
    result, avg_join = _run_recovery(
        net, "fig7c-router-recovery", seed, n_hosts,
        [FaultSpec(kind="router_crash", at=float(i + 1) - 0.5,
                   params={"count": 1}) for i in range(n_failures)],
        duration=duration,
        phases=[Phase(name="probe", start=0.0, end=duration,
                      traffic=TrafficSpec(rate=probe_rate))])
    net.check()
    crashes = [f for f in result.fault_log if f["kind"] == "router_crash"]
    avg_repair = _mean([c["repair_messages"] for c in crashes]) or 0.0
    return {
        "profile": profile,
        "series": [{"router": c["routers"][0],
                    "repair_messages": c["repair_messages"]}
                   for c in crashes],
        "avg_join": avg_join,
        "avg_repair": avg_repair,
        "repair_over_join": avg_repair / avg_join,
        "delivery_rate": result.summary["delivery_rate"],
        "min_window_delivery_rate":
            result.summary["min_window_delivery_rate"],
    }


# ---------------------------------------------------------------------------
# Fig 8a — interdomain join overhead per strategy
# ---------------------------------------------------------------------------

@_with_perf
def fig8a_inter_join(n_ases: int = 80, n_hosts: int = 300, seed: int = 0,
                     n_fingers: int = 8) -> Dict:
    out: Dict = {"strategies": {}}
    for strategy in JoinStrategy:       # the paper's four, in its order
        net = _inter(n_ases, seed, n_fingers=n_fingers, strategy=strategy)
        receipts = net.join_random_hosts(n_hosts)
        costs = [r.messages for r in receipts]
        window = max(1, len(costs) // 5)
        out["strategies"][strategy.value] = {
            "moving_avg_tail": _mean(costs[-window:]),
            "mean": _mean(costs),
            "mean_fingers": _mean([r.fingers for r in receipts]),
            "cdf": cdf_points(costs),
            "mismatches": net.lookup_mismatches,
        }
    out["extrapolation_600M"] = extrapolate_join_to_internet(
        out, measured_ids=n_hosts)
    return out


#: Finger-table sizes the paper quotes for its 600 M-ID extrapolation
#: ("a ROFL host can join across all providers and peers and acquire 340
#: fingers with ∼445 control messages").
PAPER_FINGER_TARGETS = {"ephemeral": 0, "single-homed": 0,
                        "multihomed": 0, "peering": 340}


def extrapolate_join_to_internet(fig8a: Dict, measured_ids: int,
                                 internet_ids: int = PAPER_INTERNET_HOSTS) -> Dict:
    """The paper's rough extrapolation to 600 M IDs.

    The lookup legs of a join grow ~log2(n) with population; finger
    acquisition costs ~1 message per finger and is a configuration
    constant, so it is swapped for the paper's per-strategy finger target
    before scaling and added back after.
    """
    out = {}
    growth = math.log2(internet_ids) / math.log2(max(4, measured_ids))
    for name, data in fig8a["strategies"].items():
        base = max(1.0, data["moving_avg_tail"] - data["mean_fingers"])
        target_fingers = PAPER_FINGER_TARGETS.get(name, 0)
        out[name] = round(base * (0.5 + 0.5 * growth) + target_fingers, 1)
    return out


# ---------------------------------------------------------------------------
# Fig 8b — interdomain stretch CDF vs finger count (+ BGP-policy)
# ---------------------------------------------------------------------------

@_with_perf
def fig8b_inter_stretch(n_ases: int = 80, n_hosts: int = 300,
                        finger_counts: Sequence[int] = (4, 16, 32),
                        n_packets: int = 300, seed: int = 0) -> Dict:
    out: Dict = {"fingers": {}}
    for fingers in finger_counts:
        net = build_network("inter", seed, hosts=n_hosts, n_ases=n_ases,
                            n_fingers=fingers)
        stretches = _stretches(net.send(*net.random_host_pair())
                               for _ in range(n_packets))
        out["fingers"][fingers] = {
            "cdf": cdf_points(stretches),
            "mean": _mean(stretches),
        }
    # BGP-policy baseline: policy path over shortest path.
    asg = synthetic_as_graph(n_ases=n_ases, seed=seed)
    bgp = BgpBaseline(asg)
    rng = derive_rng(seed, "fig8b-bgp")
    bearers = [asn for asn in asg.ases() if asg.hosts(asn) > 0]
    bgp_stretches = [s for s in (bgp.policy_stretch(*rng.sample(bearers, 2))
                                 for _ in range(n_packets)) if s is not None]
    out["bgp_policy"] = {
        "cdf": cdf_points(bgp_stretches),
        "mean": _mean(bgp_stretches),
    }
    return out


# ---------------------------------------------------------------------------
# Fig 8c — interdomain stretch vs per-AS pointer cache
# ---------------------------------------------------------------------------

@_with_perf
def fig8c_inter_cache_stretch(n_ases: int = 80, n_hosts: int = 300,
                              cache_sizes: Sequence[int] = (0, 64, 512, 4096),
                              n_packets: int = 300, seed: int = 0,
                              n_fingers: int = 8) -> Dict:
    series = []
    for cache in cache_sizes:
        net = build_network("inter", seed, hosts=n_hosts, n_ases=n_ases,
                            n_fingers=n_fingers, cache_entries=cache)
        series.append({"cache_entries": cache,
                       "cache_mbits_per_as": cache * net.space.bits / 1e6,
                       "mean_stretch": _mean_stretch(net, n_packets)})
    return {"series": series}


# ---------------------------------------------------------------------------
# §6.3 failures — stub-AS failure impact
# ---------------------------------------------------------------------------

@_with_perf
def fig8d_stub_failure(n_ases: int = 80, n_hosts: int = 400,
                       n_failures: int = 5, n_probe_pairs: int = 400,
                       seed: int = 0) -> Dict:
    net = build_network("inter", seed, hosts=n_hosts, n_ases=n_ases,
                        n_fingers=8)

    # Which host-pair paths does a to-be-failed stub carry?  The paper's
    # 99.998%-unaffected claim rests on stubs carrying no transit: only
    # paths *terminating* in the stub can break, and at Internet scale
    # that is a vanishing fraction of pairs.
    pairs = [net.random_host_pair() for _ in range(n_probe_pairs)]
    paths = {(a, b): net.send(a, b).path for a, b in pairs}
    home = {name: net.hosts[name].home_as for name in net.hosts.names}

    results = []
    stubs = [s for s in net.asg.stubs() if len(net.ases[s].hosted) > 0]
    derive_rng(seed, "fig8d").shuffle(stubs)
    for stub in stubs[:n_failures]:
        ids = len(net.ases[stub].hosted)
        transit_affected = sum(1 for p in paths.values() if stub in p[1:-1])
        endpoint_affected = sum(1 for a, b in paths
                                if stub in (home[a], home[b]))
        messages = net.fail_as(stub)
        net.check()
        # Survivors must still reach each other.
        probes = 50 if len(net.hosts) >= 2 else 0
        delivered = sum(net.send(*net.random_host_pair()).delivered
                        for _ in range(probes))
        results.append({
            "stub": str(stub), "ids": ids, "repair_messages": messages,
            "messages_per_id": messages / max(1, ids),
            "transit_paths_affected": transit_affected / len(paths),
            "endpoint_paths_affected": endpoint_affected / len(paths),
            "endpoint_fraction_600M": ids / PAPER_INTERNET_HOSTS,
            "post_delivery": delivered / max(1, probes),
        })
    return {"failures": results}


# ---------------------------------------------------------------------------
# §4.2 / 6.3 — bloom-filter peering vs virtual-AS peering
# ---------------------------------------------------------------------------

@_with_perf
def fig8e_bloom_peering(n_ases: int = 80, n_hosts: int = 250,
                        n_packets: int = 250, seed: int = 0,
                        n_fingers: int = 8) -> Dict:
    out: Dict = {}
    for mode in ("virtual_as", "bloom"):
        net = _inter(n_ases, seed, n_fingers=n_fingers,
                     strategy=JoinStrategy.PEERING, peering_mode=mode)
        receipts = net.join_random_hosts(n_hosts)
        results = [net.send(*net.random_host_pair())
                   for _ in range(n_packets)]
        out[mode] = {
            "mean_join": _mean([r.messages for r in receipts]),
            "mean_stretch": _mean(_stretches(results)),
            "delivery_rate": sum(r.delivered for r in results) / n_packets,
            "bloom_mbits_total": net.bloom_bits_total() / 1e6,
        }
    return out


# ---------------------------------------------------------------------------
# Head-to-head — ROFL vs Disco-style compact routing, judged by the obs layer
# ---------------------------------------------------------------------------

def _measure_headtohead(net, pairs) -> Dict:
    """Route ``pairs`` through one baseline under tracing and fold the
    outcome into a comparison row: stretch tail (mean/p99/worst), bound
    accounting, and — for tracing protocols — per-decision stretch
    attribution from :func:`repro.obs.explain.explain_packets`, checked
    to sum exactly (float-isclose) to each packet's ``PathResult.stretch``.
    """
    sink = RingBufferSink()
    tracer = Tracer(sink)
    probes = ProbeSet.for_network(net, tracer=tracer)
    with trace.tracing(tracer):
        results = [net.send(a, b) for a, b in pairs]
        probes.tick(0.0)
    probes.detach()

    bound = net.stretch_bound
    stretches = _stretches(results)
    p99 = percentile(stretches, 0.99) if stretches else None
    memory = list(net.state_entries().values())

    # Per-decision attribution (protocols that emit packet spans only).
    expls = explain_packets(sink.records())
    attribution: Dict[str, Dict[str, float]] = {}
    tail_attribution: Dict[str, float] = {}
    mismatches = 0
    if expls and len(expls) == len(results):
        tail_floor = p99 if p99 is not None else float("inf")
        for expl, result in zip(expls, results):
            measured = result.delivered and result.optimal_hops > 0
            if measured and not math.isclose(
                    expl.total_stretch(result.optimal_hops), result.stretch,
                    rel_tol=1e-9, abs_tol=1e-12):
                mismatches += 1
            in_tail = measured and result.stretch >= tail_floor
            for seg in expl.segments:
                share = seg.attribution(result.optimal_hops)
                cell = attribution.setdefault(
                    seg.rule, {"hops": 0, "stretch": 0.0})
                cell["hops"] += seg.n_hops
                cell["stretch"] += share
                if in_tail:
                    tail_attribution[seg.rule] = (
                        tail_attribution.get(seg.rule, 0.0) + share)
    return {
        "sent": len(results),
        "delivered": sum(r.delivered for r in results),
        "mean": _mean(stretches),
        "p99": p99,
        "worst": max(stretches) if stretches else None,
        "stretch_bound": bound if bound != float("inf") else None,
        "bound_violations": sum(s > bound + 1e-9 for s in stretches),
        "messages": dict(sorted(net.stats.messages.items())),
        "probe_violations": probes.summary(),
        "memory": {"mean": _mean(memory), "max": max(memory)},
        "trace_spans": len(expls),
        "attribution": dict(sorted(attribution.items())),
        "tail_attribution": dict(sorted(tail_attribution.items())),
        "attribution_mismatches": mismatches,
    }


@_with_perf
def headtohead_stretch(profile: str = "AS3967", n_hosts: int = 200,
                       n_packets: int = 400, n_ases: int = 60,
                       inter_hosts: int = 150, inter_packets: int = 200,
                       seed: int = 0, all_pairs_hosts: int = 40) -> Dict:
    """ROFL vs Disco (vs CMU-ETHERNET / OSPF) stretch tail, obs-judged.

    The evaluation axis the source paper could not reach (its baselines
    have no stretch story): all four flat-label baselines run over the
    *same* ISP topology with byte-identical host populations (same seed
    → same ``HostPlan`` tape) and the *same* packet pair list, so every
    difference in the stretch columns is protocol, not workload.  Per-
    decision attribution comes from ``obs.explain`` and is verified to
    sum exactly to each packet's stretch; Disco additionally routes every
    ordered pair of its first ``all_pairs_hosts`` hosts through the same
    probed loop — zero stretch-bound violations is the CI gate.

    The interdomain section compares ROFL's fig8b configuration with
    Disco run over the flattened AS graph.  Caveat recorded in the
    result: ROFL's stretch denominator is the *BGP policy* path (the
    paper's convention), Disco's is the shortest AS path, so the two
    columns answer slightly different questions and are reported side
    by side rather than as a ratio.
    """
    nets = {label: _isp(profile, seed, kind, hosts=n_hosts)
            for label, kind in (("rofl", "intra"), ("disco", "disco"),
                                ("cmu", "cmu"), ("ospf", "ospf"))}
    names = nets["disco"].hosts.names
    assert all(list(net.hosts) == list(names) for net in nets.values()), \
        "host populations diverged across baselines"
    pair_rng = derive_rng(seed, "headtohead", profile)
    pairs = [tuple(pair_rng.sample(names, 2)) for _ in range(n_packets)]

    out: Dict = {"profile": profile, "n_hosts": n_hosts,
                 "n_packets": n_packets,
                 "intra": {label: _measure_headtohead(net, pairs)
                           for label, net in nets.items()}}
    out["intra"]["disco"]["landmarks"] = nets["disco"].plan.n_landmarks
    for label in ("rofl", "disco"):     # the two kinds that cache pointers
        out["intra"][label]["cache"] = nets[label].cache_stats()

    # Exhaustive bound check: every ordered pair among the first
    # ``all_pairs_hosts`` hosts, stretch-bound probe attached.
    swept = names[:all_pairs_hosts]
    sweep = _measure_headtohead(nets["disco"], [(a, b) for a in swept
                                                for b in swept if a != b])
    out["disco_all_pairs"] = {
        "pairs": sweep["sent"],
        "undelivered": sweep["sent"] - sweep["delivered"],
        "max_stretch": sweep["worst"], "bound": nets["disco"].stretch_bound,
        "violations": sweep["probe_violations"]}

    # Interdomain: ROFL fig8b configuration vs Disco over the AS graph.
    inter = build_network("inter", seed, hosts=inter_hosts, n_ases=n_ases,
                          n_fingers=16)
    asg = inter.asg
    disco_inter = DiscoNetwork(
        as_router_topology(asg, name="as{}".format(n_ases)), seed=seed,
        attachment_weights=[float(asg.hosts(asn))
                            for asn in sorted(asg.ases(), key=repr)])
    disco_inter.join_random_hosts(inter_hosts)
    out["inter"] = {}
    for label, net, denominator in (
            ("rofl", inter, "bgp-policy-path"),
            ("disco", disco_inter, "shortest-as-path")):
        row = out["inter"][label] = _measure_headtohead(
            net, [net.random_host_pair() for _ in range(inter_packets)])
        row["denominator"] = denominator
    out["inter"]["disco"]["landmarks"] = disco_inter.plan.n_landmarks
    out["inter"]["disco"]["cache"] = disco_inter.cache_stats()
    return out
