"""Everything a workload is fed, made here from ``--seed``.

The program under test receives only these generated inputs: a network
seed (which fixes the host plan and the random host pairs), a scenario
dict, a request tape.  Topologies are not varied — they are part of the
fixed size of a workload, like the host count — so two seeds differ in
who joins where and who talks to whom, not in the graph.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Sequence, Tuple

#: Every windowed phase is cut into this many windows.
WINDOWS = 20

#: Sizes at scale 1.0, i.e. at the ``run_seconds`` of BENCHMARK.json.
N_ASES = 100
N_ROUTERS = 67
TOPOLOGY_SEED = 0
ISP_NAME = "AS3967"
SIZES: Dict[str, Dict[str, float]] = {
    "inter_5k": {"hosts": 5000, "sends": 40000},
    "intra_5k": {"hosts": 5000, "sends": 30000},
    "churn_intra": {"warmup": 3000, "duration": 30.0},
    "churn_inter": {"warmup": 1500, "duration": 40.0},
    "serve_session": {"hosts": 2000, "requests": 15000},
}

#: Share of each op on the serve tape.  No ``leave``: a graceful leave
#: makes a later join fail now and then ("JoinError: predecessor lookup
#: failed", 3 of 9000 joins over seeds 0-3 with 5 % leaves), and a
#: benchmark workload must not contain operations that fail.
SERVE_MIX = (("send", 0.75), ("join", 0.10), ("ping", 0.10), ("info", 0.05))


def derive_seed(seed: int, *scope: str) -> int:
    """A 31-bit seed for one consumer, independent of every other scope."""
    text = repr((int(seed),) + scope).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


def windowed(count: float, scale: float) -> int:
    """``count`` scaled, as a per-window size (at least 1)."""
    return max(1, int(round(count * scale / WINDOWS)))


def scaled(count: float, scale: float) -> int:
    return max(2, int(round(count * scale)))


def connected_victims(routers: Sequence[str],
                      links: Sequence[Tuple[str, str]],
                      seed: int) -> Tuple[List[List[str]], List[str]]:
    """Three links to cut and one router to crash, drawn from ``seed`` among
    those whose loss leaves every other router reachable.

    The scenario's own fault injectors draw victims blindly; two seeds in
    ten then cut a PoP off and lose 7-14 % of the packets sent meanwhile.
    That is the protocol behaving as designed, but a benchmark workload
    must consist of operations that succeed.
    """
    import networkx

    rng = random.Random(derive_seed(seed, "churn", "intra", "faults"))
    graph = networkx.Graph(list(links))
    graph.add_nodes_from(routers)

    def connected(down_links: Sequence[Tuple[str, str]],
                  down_router: Optional[str] = None) -> bool:
        rest = graph.copy()
        rest.remove_edges_from(down_links)
        if down_router is not None:
            rest.remove_node(down_router)
        return networkx.is_connected(rest)

    cut: List[Tuple[str, str]] = []
    for link in rng.sample(sorted(links), len(links)):
        if len(cut) < 3 and connected(cut + [link]):
            cut.append(link)
    crash = next(router for router in rng.sample(sorted(routers),
                                                 len(routers))
                 if connected((), router))
    return [list(link) for link in cut], [crash]


def churn_scenario(kind: str, seed: int, scale: float,
                   victims: Optional[Tuple[List, List]] = None) -> Dict:
    """The scenario dict of one churn workload.

    ``warmup_hosts`` is 0 because the benchmark joins the warm-up
    population itself (timed, as the workload's join phase) and hands the
    names to the driver; times shrink with ``scale``, rates do not.
    ``victims`` (intra only) is the result of :func:`connected_victims`.
    """
    duration = SIZES["churn_" + kind]["duration"] * scale
    at = lambda t: round(t * scale, 6)  # noqa: E731
    common = {
        "seed": derive_seed(seed, "churn", kind, "scenario"),
        "duration": duration,
        "warmup_hosts": 0,
        "sample_interval": max(duration / 12.0, 0.05),
    }
    if kind == "intra":
        return dict(common, name="bench-churn-intra", network={
            "kind": "intra", "n_routers": N_ROUTERS, "name": ISP_NAME,
            "cache_entries": 256,
        }, phases=[{
            "name": "steady", "start": 0.0, "end": duration,
            # No session lifetimes: a host that departs (gracefully or by
            # crashing) makes a later join or packet fail now and then -
            # 9 failed operations over seeds 0-11 either way - and a
            # benchmark workload must not contain operations that fail.
            "churn": {"arrival_rate": 40.0},
            "traffic": {"rate": 300.0,
                        "popularity": {"kind": "zipf", "exponent": 0.9}},
        }], faults=[
            {"kind": "link_cut", "at": at(10.0), "links": victims[0],
             "restore_after": at(7.0)},
            {"kind": "router_crash", "at": at(20.0), "routers": victims[1]},
        ])
    return dict(common, name="bench-churn-inter", network={
        "kind": "inter", "n_ases": N_ASES, "name": "bench-inter",
        "n_fingers": 8,
    }, phases=[{
        "name": "grow", "start": 0.0, "end": duration,
        "churn": {"arrival_rate": 25.0},
        "traffic": {"rate": 300.0,
                    "popularity": {"kind": "zipf", "exponent": 0.8}},
    }], faults=[
        {"kind": "as_depeer", "at": at(15.0), "stub_only": True,
         "restore_after": at(10.0)},
    ])


def serve_tape(seed: int, requests: int) -> List[str]:
    """The closed-loop request tape: one op name per request."""
    rng = random.Random(derive_seed(seed, "serve", "tape"))
    ops = [op for op, _ in SERVE_MIX]
    shares = [share for _, share in SERVE_MIX]
    return rng.choices(ops, weights=shares, k=requests)
