"""Layer probes: small timed loops over one shared layer each.

They run in the traced child after the workload's phases (and after the
boundary wrappers are removed), on the identifiers and topology of the
network the workload left behind, so the numbers belong to the same key
distribution and graph as the end-to-end metrics beside them.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

clock = time.perf_counter

#: Lookups per probe at scale 1.0.
LOOKUPS = 100000
#: Write-then-read pairs in the alternating ring-index probe (each pays a
#: column sync, so far fewer than the pure lookups).
ALTERNATIONS = 5000
NOOP_EVENTS = 200000


def _pairs(rng: random.Random, values: List, count: int) -> List:
    return [(rng.choice(values), rng.choice(values)) for _ in range(count)]


def ringmap(net, scale: float) -> Dict[str, float]:
    """``util.ringmap``: both index classes over the network's own keys."""
    from repro.util.ringmap import ColumnarRingIndex, SortedRingMap

    space = net.space
    keys = [flat_id.value for flat_id in _identifiers(net)]
    rng = random.Random(len(keys))
    lookups = _pairs(rng, keys, max(1000, int(LOOKUPS * scale)))
    fresh = [(key + 1) & space.mask for key in
             rng.sample(keys, min(len(keys), max(100, int(ALTERNATIONS * scale))))]
    out = {}

    index = ColumnarRingIndex(space)
    start = clock()
    for key in keys:
        index.set(key, key)
    index.key_values()  # the one deferred column sync
    out["util.ringmap.columnar.bulk_set_sync_s"] = clock() - start

    start = clock()
    for current, dest in lookups:
        index.closest_not_past_value(current, dest)
    out["util.ringmap.columnar.lookup_us"] = \
        (clock() - start) / len(lookups) * 1e6

    start = clock()
    for key in fresh:
        index.set(key, key)
        index.closest_not_past_value(key, keys[0])
    out["util.ringmap.columnar.alternate_us"] = \
        (clock() - start) / len(fresh) * 1e6

    ring = SortedRingMap(space)
    flat_ids = [space.make(key) for key in keys]
    start = clock()
    for flat_id in flat_ids:
        ring.insert(flat_id, flat_id)
    out["util.ringmap.sorted.insert_us"] = \
        (clock() - start) / len(flat_ids) * 1e6

    start = clock()
    for current, dest in lookups:
        ring.closest_not_past_value(current, dest)
    out["util.ringmap.sorted.lookup_us"] = \
        (clock() - start) / len(lookups) * 1e6
    return out


def idspace(net, scale: float) -> Dict[str, float]:
    """``idspace``: hashing a name onto the ring, and one greedy-progress
    comparison in the int domain."""
    space = net.space
    keys = [flat_id.value for flat_id in _identifiers(net)]
    rng = random.Random(len(keys) + 1)
    count = max(1000, int(LOOKUPS * scale))
    names = ["host-{}".format(i).encode("utf-8") for i in range(count)]
    triples = [(rng.choice(keys), rng.choice(keys), rng.choice(keys))
               for _ in range(count)]
    out = {}

    start = clock()
    for name in names:
        space.hash_of(name)
    out["idspace.hash_of_us"] = (clock() - start) / count * 1e6

    start = clock()
    for current, candidate, dest in triples:
        space.progress_i(current, candidate, dest)
    out["idspace.progress_i_us"] = (clock() - start) / count * 1e6
    return out


def spf(net, scale: float) -> Dict[str, float]:
    """``linkstate.spf``: a cold shortest-path tree per router, then warm
    lookups.  Interdomain networks have no router graph: both read 0."""
    lsmap = getattr(net, "lsmap", None)
    if lsmap is None:
        return {"linkstate.spf.cold_tree_ms": 0.0,
                "linkstate.spf.warm_lookup_us": 0.0}
    from repro.linkstate.spf import PathCache

    routers = sorted(lsmap.live_routers())
    cache = PathCache(lsmap)
    start = clock()
    for router in routers:
        cache.hop_dist(router, routers[0])
    cold = (clock() - start) / len(routers) * 1e3

    pairs = _pairs(random.Random(len(routers)), routers,
                   max(1000, int(LOOKUPS * scale)))
    start = clock()
    for src, dst in pairs:
        cache.hop_dist(src, dst)
    warm = (clock() - start) / len(pairs) * 1e6
    return {"linkstate.spf.cold_tree_ms": cold,
            "linkstate.spf.warm_lookup_us": warm}


def engine(scale: float) -> Dict[str, float]:
    """``sim.engine``: schedule then run no-op events."""
    from repro.sim.engine import EventLoop

    count = max(1000, int(NOOP_EVENTS * scale))
    loop = EventLoop()
    noop = lambda: None  # noqa: E731
    start = clock()
    for i in range(count):
        loop.schedule(i * 1e-3, noop)
    loop.run()
    return {"sim.engine.noop_events_per_s": count / (clock() - start)}


def run_all(net, scale: float) -> Dict[str, float]:
    out = {}
    out.update(ringmap(net, scale))
    out.update(idspace(net, scale))
    out.update(spf(net, scale))
    out.update(engine(scale))
    return out


def _identifiers(net) -> List:
    """Every joined identifier of either network kind."""
    index = getattr(net, "vn_index", None)
    if index is None:
        index = net.id_owner_index
    return sorted(index)
