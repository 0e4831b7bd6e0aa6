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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.cmu_ethernet import CmuEthernetNetwork
from repro.baselines.ospf_routing import OspfHostRouting
from repro.inter.network import InterDomainNetwork
from repro.inter.policy import JoinStrategy
from repro.intra.network import IntraDomainNetwork
from repro.sim.stats import cdf_points, percentile
from repro.topology.asgraph import synthetic_as_graph
from repro.topology.hosts import PAPER_INTERNET_HOSTS
from repro.topology.isp import ROCKETFUEL_PROFILES, TCAM_ENTRIES, synthetic_isp
from repro.util import perf
from repro.util.rng import derive_rng


def _with_perf(fn):
    """Instrument an experiment driver with the global perf registry.

    The registry is reset on entry, the whole driver runs under an
    ``experiment.<name>`` timer, and the counter/timer snapshot is
    attached to the result dict under the ``"perf"`` key — so every
    figure's output carries the hot-path counters (forwarding hops,
    index rebuilds, SPF evictions) that produced it.  Report formatters
    skip the key; ``repro report --perf`` reads it off a ``compare-stretch
    --json`` file.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        perf.reset()
        with perf.timed("experiment." + fn.__name__):
            result = fn(*args, **kwargs)
        if isinstance(result, dict):
            result["perf"] = perf.snapshot()
        return result
    return wrapper

def _mean(samples: Sequence[float]) -> Optional[float]:
    """Mean of a sample list, or ``None`` for an empty one.

    Stretch/cost series can legitimately come back empty (every send
    undeliverable under faults, zero eligible pairs at tiny scale);
    ``None`` is the explicit empty-series marker the formatters render
    as ``n/a`` instead of the old ``sum()/len()`` ZeroDivisionError.
    """
    return sum(samples) / len(samples) if samples else None


def _send_random(net, n_packets: int) -> List:
    """Route ``n_packets`` between random host pairs; the results."""
    return [net.send(*net.random_host_pair()) for _ in range(n_packets)]


def _stretches(results) -> List[float]:
    """The stretch samples of a result list: delivered packets whose
    endpoints are not on the same router."""
    return [r.stretch for r in results if r.delivered and r.optimal_hops > 0]


#: Scaled-down router counts: what every figure runs at.  The paper's
#: Rocketfuel sizes are the head-to-head's ``full_scale=True``.
FAST_PROFILES = {
    "AS1221": 106,
    "AS1239": 201,
    "AS3257": 80,
    "AS3967": 67,
}


def _isp(profile: str, seed: int, full_scale: bool = False):
    n_routers = (ROCKETFUEL_PROFILES[profile]["routers"] if full_scale
                 else FAST_PROFILES[profile])
    return synthetic_isp(n_routers=n_routers, seed=seed, name=profile)


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
        topo = _isp(profile, seed)
        rofl = IntraDomainNetwork(topo, seed=seed)
        cmu = CmuEthernetNetwork(topo, seed=seed)
        rofl_series: List[int] = []
        cmu_series: List[int] = []
        joined = 0
        for target in sorted(host_counts):
            rofl.join_random_hosts(target - joined)
            cmu.join_random_hosts(target - joined)
            joined = target
            rofl_series.append(rofl.stats.total_messages("join"))
            cmu_series.append(cmu.stats.total_messages("join"))
        ratios = [c / r for r, c in zip(rofl_series, cmu_series) if r]
        out["profiles"][profile] = {
            "rofl_cumulative": rofl_series,
            "cmu_cumulative": cmu_series,
            "cmu_over_rofl": ratios,
            "diameter": topo.diameter(),
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
        topo = _isp(profile, seed)
        net = IntraDomainNetwork(topo, seed=seed)
        net.join_random_hosts(n_hosts)
        costs = net.stats.operation_costs("join")
        out[profile] = {
            "cdf": cdf_points(costs),
            "median": percentile(costs, 0.5),
            "p95": percentile(costs, 0.95),
            "mean": sum(costs) / len(costs),
            "diameter": topo.diameter(),
            "per_diameter": (sum(costs) / len(costs)) / topo.diameter(),
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
        topo = _isp(profile, seed)
        net = IntraDomainNetwork(topo, seed=seed)
        latencies = [net.join_host(net.next_planned_host()).latency_ms
                     for _ in range(n_hosts)]
        out[profile] = {
            "cdf": cdf_points(latencies),
            "median_ms": percentile(latencies, 0.5),
            "p95_ms": percentile(latencies, 0.95),
            "mean_ms": sum(latencies) / len(latencies),
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
    series: List[Tuple[int, float]] = []
    for cache in cache_sizes:
        topo = _isp(profile, seed)
        net = IntraDomainNetwork(topo, cache_entries=cache, seed=seed)
        net.join_random_hosts(n_hosts)
        stretches = _stretches(_send_random(net, n_packets))
        series.append((cache, _mean(stretches)))
    return {"profile": profile, "series": series,
            "tcam_entries": TCAM_ENTRIES}


# ---------------------------------------------------------------------------
# Fig 6b — load balance vs OSPF
# ---------------------------------------------------------------------------

@_with_perf
def fig6b_load_balance(profile: str = "AS3967", n_hosts: int = 500,
                       n_packets: int = 1500, seed: int = 0) -> Dict:
    topo = _isp(profile, seed)
    net = IntraDomainNetwork(topo, seed=seed)
    net.join_random_hosts(n_hosts)
    net.stats.reset_load()
    ospf = OspfHostRouting(topo)
    for _ in range(n_packets):
        a, b = net.random_host_pair()
        net.send(a, b)
        ospf.send_routers(net.hosts[a].router, net.hosts[b].router)
    rofl_load = net.stats.load_series()
    ospf_load = ospf.load_series()
    rofl_total = sum(rofl_load.values()) or 1
    ospf_total = sum(ospf_load.values()) or 1
    # Routers ranked by OSPF load (the paper's x-axis).
    ranked = sorted(topo.routers, key=lambda r: ospf_load.get(r, 0),
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
    topo = _isp(profile, seed)
    net = IntraDomainNetwork(topo, seed=seed)
    cmu = CmuEthernetNetwork(topo, seed=seed)
    series = []
    joined = 0
    for target in sorted(host_counts):
        net.join_random_hosts(target - joined)
        cmu.join_random_hosts(target - joined)
        joined = target
        rofl_mem = net.memory_entries_per_router(include_cache=False)
        cmu_mem = cmu.memory_entries_per_router()
        rofl_avg = sum(rofl_mem.values()) / len(rofl_mem)
        cmu_avg = sum(cmu_mem.values()) / len(cmu_mem)
        series.append({"ids": target, "rofl_avg_entries": rofl_avg,
                       "cmu_avg_entries": cmu_avg,
                       "cmu_over_rofl": cmu_avg / max(rofl_avg, 1e-9)})
    return {"profile": profile, "series": series}


# ---------------------------------------------------------------------------
# Fig 7 — partition repair overhead vs IDs per PoP
#
# The recovery experiments (7/7b/7c) are thin Scenario instances over the
# repro.workload engine: the scenario declares the population and the
# fault, the driver runs it, and the driver's fault log carries the
# repair measurements back out.  Result-dict shapes are unchanged from
# the hand-rolled originals.
# ---------------------------------------------------------------------------

def _recovery_scenario(name: str, seed: int, warmup_hosts: int,
                       faults: List["FaultSpec"],
                       duration: float = 1.0,
                       phases: Optional[List] = None) -> "Scenario":
    from repro.workload.scenario import NetworkSpec, Scenario
    return Scenario(name=name, seed=seed, duration=duration,
                    warmup_hosts=warmup_hosts, sample_interval=duration,
                    network=NetworkSpec(kind="intra"),
                    phases=list(phases or []), faults=faults)


@_with_perf
def fig7_partition_repair(profile: str = "AS3967",
                          ids_per_pop: Sequence[int] = (1, 4, 16, 64),
                          seed: int = 0) -> Dict:
    from repro.workload.driver import run_scenario
    from repro.workload.scenario import FaultSpec

    series = []
    for per_pop in ids_per_pop:
        topo = _isp(profile, seed)
        net = IntraDomainNetwork(topo, seed=seed)
        n_pops = len(topo.pops)
        rng = derive_rng(seed, "fig7", per_pop)
        pop = rng.choice(sorted(topo.pops))
        scenario = _recovery_scenario(
            "fig7-partition", seed, per_pop * n_pops,
            [FaultSpec(kind="pop_partition", at=0.5, params={"pop": pop})])
        result = run_scenario(scenario, network=net)
        report = next(f for f in result.fault_log
                      if f["kind"] == "pop_partition")
        # A rejoin baseline: what rejoining the PoP's IDs would cost.
        join_costs = net.stats.operation_costs("join")
        avg_join = sum(join_costs) / len(join_costs) if join_costs else 1.0
        series.append({
            "ids_per_pop": per_pop,
            "ids_in_pop": report["ids_in_pop"],
            "repair_messages": report["repair_messages"],
            "rejoin_baseline": report["ids_in_pop"] * avg_join,
        })
    return {"profile": profile, "series": series}


# ---------------------------------------------------------------------------
# §6.2 (text) — host-failure overhead vs join overhead
# ---------------------------------------------------------------------------

@_with_perf
def fig7b_host_failure(profile: str = "AS3967", n_hosts: int = 500,
                       n_failures: int = 100, seed: int = 0) -> Dict:
    from repro.workload.driver import run_scenario
    from repro.workload.scenario import FaultSpec

    topo = _isp(profile, seed)
    net = IntraDomainNetwork(topo, seed=seed)
    scenario = _recovery_scenario(
        "fig7b-host-failure", seed, n_hosts,
        [FaultSpec(kind="host_crash", at=0.5,
                   params={"count": n_failures})])
    run_scenario(scenario, network=net)
    join_costs = net.stats.operation_costs("join")
    failure_costs = net.stats.operation_costs("host_failure")
    net.check_ring()
    return {
        "profile": profile,
        "avg_join": sum(join_costs) / len(join_costs),
        "avg_failure": sum(failure_costs) / len(failure_costs),
        "failure_over_join": (sum(failure_costs) / len(failure_costs))
                             / (sum(join_costs) / len(join_costs)),
    }


# ---------------------------------------------------------------------------
# §6.2 (text) / Fig 7c — router-failure recovery under live traffic
# ---------------------------------------------------------------------------

@_with_perf
def fig7c_router_recovery(profile: str = "AS3967", n_hosts: int = 300,
                          n_failures: int = 3, probe_rate: float = 40.0,
                          seed: int = 0) -> Dict:
    """Crash routers one at a time under open-loop probe traffic and
    measure per-crash repair cost plus the delivery rate the survivors
    sustain while the ring heals."""
    from repro.workload.driver import run_scenario
    from repro.workload.scenario import FaultSpec, Phase, TrafficSpec

    topo = _isp(profile, seed)
    net = IntraDomainNetwork(topo, seed=seed)
    duration = float(n_failures + 1)
    scenario = _recovery_scenario(
        "fig7c-router-recovery", seed, n_hosts,
        [FaultSpec(kind="router_crash", at=float(i + 1) - 0.5,
                   params={"count": 1}) for i in range(n_failures)],
        duration=duration,
        phases=[Phase(name="probe", start=0.0, end=duration,
                      traffic=TrafficSpec(rate=probe_rate))])
    result = run_scenario(scenario, network=net)
    net.check_ring()
    crashes = [f for f in result.fault_log if f["kind"] == "router_crash"]
    join_costs = net.stats.operation_costs("join")
    avg_join = sum(join_costs) / len(join_costs) if join_costs else 1.0
    repair = [c["repair_messages"] for c in crashes]
    avg_repair = sum(repair) / len(repair) if repair else 0.0
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
    for strategy in (JoinStrategy.EPHEMERAL, JoinStrategy.SINGLE_HOMED,
                     JoinStrategy.MULTIHOMED, JoinStrategy.PEERING):
        asg = synthetic_as_graph(n_ases=n_ases, seed=seed)
        net = InterDomainNetwork(asg, n_fingers=n_fingers, seed=seed,
                                 strategy=strategy)
        receipts = net.join_random_hosts(n_hosts)
        costs = [r.messages for r in receipts]
        window = max(1, len(costs) // 5)
        mean_fingers = sum(r.fingers for r in receipts) / len(receipts)
        out["strategies"][strategy.value] = {
            "moving_avg_tail": sum(costs[-window:]) / window,
            "mean": sum(costs) / len(costs),
            "mean_fingers": mean_fingers,
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
        asg = synthetic_as_graph(n_ases=n_ases, seed=seed)
        net = InterDomainNetwork(asg, n_fingers=fingers, seed=seed,
                                 strategy=JoinStrategy.MULTIHOMED)
        net.join_random_hosts(n_hosts)
        stretches = _stretches(_send_random(net, n_packets))
        out["fingers"][fingers] = {
            "cdf": cdf_points(stretches),
            "mean": _mean(stretches),
        }
    # BGP-policy baseline: policy path over shortest path.
    asg = synthetic_as_graph(n_ases=n_ases, seed=seed)
    net = InterDomainNetwork(asg, n_fingers=0, seed=seed)
    rng = derive_rng(seed, "fig8b-bgp")
    bearers = [asn for asn in asg.ases() if asg.hosts(asn) > 0]
    bgp_stretches = []
    for _ in range(n_packets):
        a, b = rng.sample(bearers, 2)
        s = net.bgp.policy_stretch(a, b)
        if s is not None:
            bgp_stretches.append(s)
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
        asg = synthetic_as_graph(n_ases=n_ases, seed=seed)
        net = InterDomainNetwork(asg, n_fingers=n_fingers, seed=seed,
                                 cache_entries=cache,
                                 strategy=JoinStrategy.MULTIHOMED)
        net.join_random_hosts(n_hosts)
        stretches = _stretches(_send_random(net, n_packets))
        mbits = cache * net.space.bits / 1e6
        series.append({"cache_entries": cache, "cache_mbits_per_as": mbits,
                       "mean_stretch": _mean(stretches)})
    return {"series": series}


# ---------------------------------------------------------------------------
# §6.3 failures — stub-AS failure impact
# ---------------------------------------------------------------------------

@_with_perf
def fig8d_stub_failure(n_ases: int = 80, n_hosts: int = 400,
                       n_failures: int = 5, n_probe_pairs: int = 400,
                       seed: int = 0) -> Dict:
    asg = synthetic_as_graph(n_ases=n_ases, seed=seed)
    net = InterDomainNetwork(asg, n_fingers=8, seed=seed)
    net.join_random_hosts(n_hosts)
    rng = derive_rng(seed, "fig8d")

    # Which host-pair paths does a to-be-failed stub carry?  The paper's
    # 99.998%-unaffected claim rests on stubs carrying no transit: only
    # paths *terminating* in the stub can break, and at Internet scale
    # that is a vanishing fraction of pairs.
    pairs = [net.random_host_pair() for _ in range(n_probe_pairs)]
    paths = {}
    for a, b in pairs:
        paths[(a, b)] = net.send(a, b).path

    results = []
    stubs = [s for s in asg.stubs() if len(net.ases[s].hosted) > 0]
    rng.shuffle(stubs)
    for stub in stubs[:n_failures]:
        ids = len(net.ases[stub].hosted)
        transit_affected = sum(1 for p in paths.values() if stub in p[1:-1])
        endpoint_affected = sum(
            1 for (a, b), p in paths.items()
            if (net.hosts.get(a) is not None and net.hosts[a].home_as == stub)
            or (net.hosts.get(b) is not None and net.hosts[b].home_as == stub))
        messages = net.fail_as(stub)
        net.check_rings()
        # Survivors must still reach each other.
        delivered = 0
        probes = 0
        for _ in range(50):
            try:
                a, b = net.random_host_pair()
            except ValueError:
                break
            probes += 1
            delivered += net.send(a, b).delivered
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
        asg = synthetic_as_graph(n_ases=n_ases, seed=seed)
        net = InterDomainNetwork(asg, n_fingers=n_fingers, seed=seed,
                                 strategy=JoinStrategy.PEERING,
                                 peering_mode=mode)
        receipts = net.join_random_hosts(n_hosts)
        costs = [r.messages for r in receipts]
        results = _send_random(net, n_packets)
        stretches = _stretches(results)
        delivered = sum(result.delivered for result in results)
        out[mode] = {
            "mean_join": sum(costs) / len(costs),
            "mean_stretch": sum(stretches) / max(1, len(stretches)),
            "delivery_rate": delivered / n_packets,
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
    from repro.obs import (ProbeSet, RingBufferSink, Tracer, explain_packets,
                           trace)

    sink = RingBufferSink(capacity=None)
    tracer = Tracer(sink)
    probes = ProbeSet.for_network(net, tracer=tracer)
    results = []
    with trace.tracing(tracer):
        for a, b in pairs:
            results.append(net.send(a, b))
        probes.tick(0.0)
    probes.detach()

    bound = net.stretch_bound
    stretches = _stretches(results)
    row: Dict = {
        "sent": len(results),
        "delivered": sum(r.delivered for r in results),
        "mean": _mean(stretches),
        "p99": percentile(stretches, 0.99) if stretches else None,
        "worst": max(stretches) if stretches else None,
        "stretch_bound": bound if bound != float("inf") else None,
        "bound_violations": sum(s > bound + 1e-9 for s in stretches),
        "messages": {k: v for k, v in sorted(net.stats.messages.items())},
        "probe_violations": probes.summary(),
    }
    memory = net.state_entries()
    row["memory"] = {"mean": _mean(list(memory.values())),
                     "max": max(memory.values())}

    # Per-decision attribution (protocols that emit packet spans only).
    expls = explain_packets(sink.records())
    row["trace_spans"] = len(expls)
    attribution: Dict[str, Dict[str, float]] = {}
    tail_attribution: Dict[str, float] = {}
    mismatches = 0
    if expls and len(expls) == len(results):
        tail_floor = row["p99"] if row["p99"] is not None else float("inf")
        for expl, result in zip(expls, results):
            total = expl.total_stretch(result.optimal_hops)
            if result.delivered and result.optimal_hops > 0 and \
                    not math.isclose(total, result.stretch,
                                     rel_tol=1e-9, abs_tol=1e-12):
                mismatches += 1
            in_tail = (result.delivered and result.optimal_hops > 0
                       and result.stretch >= tail_floor)
            for seg in expl.segments:
                share = seg.attribution(result.optimal_hops)
                cell = attribution.setdefault(
                    seg.rule, {"hops": 0, "stretch": 0.0})
                cell["hops"] += seg.n_hops
                cell["stretch"] += share
                if in_tail:
                    tail_attribution[seg.rule] = (
                        tail_attribution.get(seg.rule, 0.0) + share)
    row["attribution"] = {rule: attribution[rule]
                          for rule in sorted(attribution)}
    row["tail_attribution"] = {rule: tail_attribution[rule]
                               for rule in sorted(tail_attribution)}
    row["attribution_mismatches"] = mismatches
    return row


@_with_perf
def headtohead_stretch(profile: str = "AS3967", n_hosts: int = 200,
                       n_packets: int = 400, n_ases: int = 60,
                       inter_hosts: int = 150, inter_packets: int = 200,
                       seed: int = 0, full_scale: bool = False,
                       landmark_factor: float = 1.0,
                       all_pairs_hosts: int = 40) -> Dict:
    """ROFL vs Disco (vs CMU-ETHERNET / OSPF) stretch tail, obs-judged.

    The evaluation axis the source paper could not reach (its baselines
    have no stretch story): all four flat-label baselines run over the
    *same* ISP topology with byte-identical host populations (same seed
    → same ``HostPlan`` tape) and the *same* packet pair list, so every
    difference in the stretch columns is protocol, not workload.  Per-
    decision attribution comes from ``obs.explain`` and is verified to
    sum exactly to each packet's stretch; Disco additionally runs an
    exhaustive all-pairs sweep under the stretch-bound probe — zero
    violations is the CI gate.

    The interdomain section compares ROFL's fig8b configuration with
    Disco run over the flattened AS graph.  Caveat recorded in the
    result: ROFL's stretch denominator is the *BGP policy* path (the
    paper's convention), Disco's is the shortest AS path, so the two
    columns answer slightly different questions and are reported side
    by side rather than as a ratio.
    """
    from repro.compact import DiscoNetwork
    from repro.topology.asgraph import as_router_topology

    topo = _isp(profile, seed, full_scale)
    nets = {
        "rofl": IntraDomainNetwork(topo, seed=seed),
        "disco": DiscoNetwork(topo, seed=seed,
                              landmark_factor=landmark_factor),
        "cmu": CmuEthernetNetwork(topo, seed=seed),
        "ospf": OspfHostRouting(topo, seed=seed),
    }
    for net in nets.values():
        net.join_random_hosts(n_hosts)
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
    out["disco_all_pairs"] = _disco_all_pairs(nets["disco"],
                                              names[:all_pairs_hosts])

    # Interdomain: ROFL fig8b configuration vs Disco over the AS graph.
    asg = synthetic_as_graph(n_ases=n_ases, seed=seed)
    inter = InterDomainNetwork(asg, n_fingers=16, seed=seed,
                               strategy=JoinStrategy.MULTIHOMED)
    inter.join_random_hosts(inter_hosts)
    inter_pairs = [inter.random_host_pair() for _ in range(inter_packets)]
    inter_row = _measure_headtohead(inter, inter_pairs)
    inter_row["denominator"] = "bgp-policy-path"

    astopo = as_router_topology(asg, name="as{}".format(n_ases))
    ordered_ases = sorted(asg.ases(), key=repr)
    disco_inter = DiscoNetwork(
        astopo, seed=seed, landmark_factor=landmark_factor,
        attachment_weights=[float(asg.hosts(asn)) for asn in ordered_ases])
    disco_inter.join_random_hosts(inter_hosts)
    disco_pairs = [disco_inter.random_host_pair()
                   for _ in range(inter_packets)]
    disco_row = _measure_headtohead(disco_inter, disco_pairs)
    disco_row["denominator"] = "shortest-as-path"
    disco_row["landmarks"] = disco_inter.plan.n_landmarks
    disco_row["cache"] = disco_inter.cache_stats()
    out["inter"] = {"rofl": inter_row, "disco": disco_row}
    return out


def _disco_all_pairs(net, names) -> Dict:
    """Route every ordered pair in ``names`` with the stretch-bound probe
    live (NullSink tracer: probe sees every record, nothing retained)."""
    from repro.obs import NullSink, ProbeSet, Tracer, trace

    tracer = Tracer(NullSink())
    probes = ProbeSet.for_network(net, tracer=tracer)
    worst = 0.0
    routed = 0
    undelivered = 0
    with trace.tracing(tracer):
        for a in names:
            for b in names:
                if a == b:
                    continue
                result = net.send(a, b)
                routed += 1
                if not result.delivered:
                    undelivered += 1
                elif result.optimal_hops > 0:
                    worst = max(worst, result.stretch)
        probes.tick(0.0)
    probes.detach()
    return {"pairs": routed, "undelivered": undelivered,
            "max_stretch": worst, "bound": net.stretch_bound,
            "violations": probes.summary()}
