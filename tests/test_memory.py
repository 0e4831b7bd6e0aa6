"""Memory budgets, stated beside the call budgets (DESIGN.md §5, §10).

The paper reports routing state as memory per router (Fig 6c) and sizes a
router's pointer cache in entries (Fig 6a); these pin what the simulation
spends on it, per resident host and per cached pointer, on the shapes the
call budgets use, after 2 000 sends.  ``tracemalloc`` counts bytes
allocated through Python's allocators, so the numbers are deterministic
for one interpreter build; a warm-up build keeps import-time allocations
out of the window, and the full collection before it empties the free
lists, so every object the window allocates is counted.
"""

import functools
import gc
import os
import tempfile
import tracemalloc

import pytest

from repro import build_network, snapshot
from repro.snapshot import state_hash

#: Bytes per host a ``state_hash`` call may leave allocated once it returns.
#: ~1 130 (intra) / ~1 210 (inter) while the walk's ``__getstate__`` gave
#: every per-ID record a ``__dict__`` that outlived it; ~140 / ~155 since
#: the records are slotted.
LEFT_BY_A_HASH = 250


@functools.lru_cache(maxsize=None)
def _footprint(kind, **sizing):
    """One build of a shape and 2 000 sends, measured in the order the
    two tests below read it: bytes resident, then a ``state_hash``'s peak
    and what it leaves allocated, then a ``snapshot.save``'s peak."""
    build_network(kind, 0, **dict(sizing, hosts=5))
    gc.collect()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.snap")
        tracemalloc.start()
        try:
            net = build_network(kind, 0, **sizing)
            for _ in range(2_000):
                net.send(*net.random_host_pair())
            gc.collect()
            resident = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            state_hash(net)
            walk = tracemalloc.get_traced_memory()[1] - resident
            gc.collect()
            hashed = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            snapshot.save(net, path)
            save = tracemalloc.get_traced_memory()[1] - hashed
        finally:
            tracemalloc.stop()
    hosts = sizing["hosts"]
    return (resident / hosts, (hashed - resident) / hosts, walk / hosts,
            save / hosts)


@pytest.mark.parametrize("kind, sizing, resident_budget", [
    # Measured 7 413 / 8 943 B per host with slotted records (8 227 / 9 853
    # before), intra 6 836 since the flat router caches of snapshot schema
    # 6, 6 793 / 8 438 since schema 8 stores no role in a pointer (and no
    # target AS beside its route), and 6 879 / 8 686 since schema 9's
    # pointers are named tuples (a tuple is 8 B larger than a slotted
    # object); each budget is the latest plus 5 %.
    ("intra", {"hosts": 500}, 7_133),
    ("inter", {"n_ases": 60, "hosts": 600}, 8_860),
])
def test_bytes_per_host(kind, sizing, resident_budget):
    resident, left, _, _ = _footprint(kind, **sizing)
    assert left <= LEFT_BY_A_HASH, left
    assert resident <= resident_budget, resident


@pytest.mark.parametrize("kind, sizing, hash_budget, save_budget", [
    # Peak bytes per host above resident while the call runs: a hash walk
    # 4 581 / 6 257 and a save 8 418 / 9 984 at snapshot schema 8, when
    # the walk gave each record's ``__dict__`` twin a memo entry and the
    # pickler memoised each record's ``(None, {slots})`` state; 4 167 /
    # 3 999 and 4 027 / 6 593 at schema 9; the save 4 027 / 5 885 since
    # it deflates each pickle frame into the file as it is written, in
    # place of holding the whole pickle and its compressed copy (the
    # intradomain peak is the hash walk's).  Each budget is the latest
    # measurement plus 5 %.
    ("intra", {"hosts": 500}, 4_376, 4_229),
    ("inter", {"n_ases": 60, "hosts": 600}, 4_199, 6_180),
])
def test_transient_bytes_per_host(kind, sizing, hash_budget, save_budget):
    """What one ``state_hash`` and one ``snapshot.save`` allocate at their
    peak, on the shapes above."""
    _, _, walk, save = _footprint(kind, **sizing)
    assert walk <= hash_budget, walk
    assert save <= save_budget, save


@pytest.mark.parametrize("hosts, entry_budget", [
    # Measured 214 / 188 B since snapshot schema 6 (the ID int and one
    # interned route per entry: more entries share more routes); 278 at
    # both sizes while every entry was a ``Pointer`` with its own tuple.
    # Each budget is the measurement plus 5 %.
    (500, 224),
    (2_000, 197),
])
def test_bytes_per_cached_pointer(hosts, entry_budget):
    """What one router-cache entry costs: the bytes freed when every
    router's cache is cleared, per entry cleared."""
    build_network("intra", 0, hosts=5)
    gc.collect()
    tracemalloc.start()
    try:
        net = build_network("intra", 0, hosts=hosts)
        for _ in range(2_000):
            net.send(*net.random_host_pair())
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        entries = sum(len(router.cache) for router in net.routers.values())
        for router in net.routers.values():
            router.cache.clear()
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert entries > 4 * hosts
    assert freed / entries <= entry_budget, freed / entries
