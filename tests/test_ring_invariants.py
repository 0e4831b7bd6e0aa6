"""Property-style (seeded random) tests for the circular-namespace core.

Covers the invariants the hot-path optimizations rely on:

* ``distance_cw`` anti-symmetry and composition around the ring,
  wrap-around and degenerate (``a == b``) inputs included;
* every int-domain fast path (``*_i`` on :class:`RingSpace`) agrees with
  its FlatId original on random inputs;
* the linear-scan ``RingSpace.closest_not_past`` and the bisect-based
  ``SortedRingMap.closest_not_past_value`` answer identically on
  randomized candidate sets;
* the routers' incremental candidate indexes agree with the brute-force
  reference scans under join/failure churn.

No external property-testing dependency is used — plain ``random`` with
fixed seeds keeps the suite deterministic.
"""

import random

from repro.idspace.identifier import RingSpace
from repro.util.ringmap import SortedRingMap

BITS = 16  # small namespace → wrap-around cases are common, not rare
SPACE = RingSpace(bits=BITS)
SIZE = SPACE.size


def rand_ids(rng, n):
    return [SPACE.make(rng.randrange(SIZE)) for _ in range(n)]


# ---------------------------------------------------------------------------
# distance / interval conventions
# ---------------------------------------------------------------------------

def test_distance_cw_antisymmetry():
    rng = random.Random(0xD157)
    for _ in range(500):
        a, b = rand_ids(rng, 2)
        d_ab = SPACE.distance_cw(a, b)
        d_ba = SPACE.distance_cw(b, a)
        if a == b:
            assert d_ab == d_ba == 0
        else:
            # Going the other way around closes the circle.
            assert d_ab + d_ba == SIZE
        assert 0 <= d_ab < SIZE


def test_distance_cw_triangle_identity():
    rng = random.Random(0xD158)
    for _ in range(500):
        a, b, c = rand_ids(rng, 3)
        # Clockwise distances compose modulo the ring size.
        assert (SPACE.distance_cw(a, b) + SPACE.distance_cw(b, c)) % SIZE \
            == SPACE.distance_cw(a, c)


# ---------------------------------------------------------------------------
# int fast paths ≡ FlatId originals
# ---------------------------------------------------------------------------

def test_int_fast_paths_match_flatid_originals():
    rng = random.Random(0x1D5)
    for _ in range(500):
        x, a, b, c = rand_ids(rng, 4)
        assert SPACE.distance_cw_i(a.value, b.value) == SPACE.distance_cw(a, b)
        assert SPACE.progress_i(a.value, b.value, c.value) \
            == SPACE.progress(a, b, c)


# ---------------------------------------------------------------------------
# linear scan vs bisect (satellite: greedy-hop dedup cross-check)
# ---------------------------------------------------------------------------

def test_linear_scan_vs_ringmap_bisect():
    rng = random.Random(0xB15EC7)
    for trial in range(100):
        n = rng.randrange(1, 40)
        keys = list({SPACE.make(rng.randrange(SIZE)) for _ in range(n)})
        ring = SortedRingMap(SPACE)
        for key in keys:
            ring.insert(key, str(key.value))
        for _ in range(20):
            current, dest = rand_ids(rng, 2)
            linear = SPACE.closest_not_past(current, dest, keys)
            bisected = ring.closest_not_past_value(current.value, dest.value)
            assert bisected == (None if linear is None else linear.value), (
                trial, current.value, dest.value)


def test_ringmap_queries_accept_ints_and_flatids():
    rng = random.Random(0xACCE)
    ring = SortedRingMap(SPACE)
    keys = rand_ids(rng, 20)
    for key in keys:
        ring.insert(key, key.value)
    probe = rand_ids(rng, 50)
    for p in probe:
        assert ring.successor(p) == ring.successor(p.value)
        assert ring.predecessor(p) == ring.predecessor(p.value)
        assert (p in ring) == (p.value in ring)


# ---------------------------------------------------------------------------
# incremental router indexes ≡ reference scans under churn
# ---------------------------------------------------------------------------

def _assert_matches(index_match, scan_match, dest):
    if scan_match is None:
        assert index_match is None, dest
        return
    assert index_match is not None, dest
    assert index_match.distance == scan_match.distance
    assert (index_match.resident_vn is None) \
        == (scan_match.resident_vn is None)


def test_intra_incremental_index_matches_scan_under_churn():
    from repro.intra.network import IntraDomainNetwork
    from repro.topology.isp import synthetic_isp

    rng = random.Random(0x17A)
    topo = synthetic_isp(n_routers=30, seed=3)
    # No pointer caches: best_match is then the VN-only index query.
    net = IntraDomainNetwork(topo, cache_entries=0, seed=3)
    net.join_random_hosts(80)

    def crosscheck():
        space = net.space
        for router in net.routers.values():
            for _ in range(5):
                dest = space.make(rng.randrange(space.size))
                for include_ephemeral in (True, False):
                    _assert_matches(
                        router.best_match(dest, include_ephemeral),
                        router.vn_best_match_scan(dest, include_ephemeral),
                        dest.value)

    crosscheck()
    # Churn: host leaves, moves and failures dirty individual VNs.
    hosts = [h for h in net.hosts]
    rng.shuffle(hosts)
    net.leave_host(hosts[0])
    net.fail_host(hosts[1])
    some_router = net.routers[next(iter(net.routers))]
    crosscheck()
    assert some_router is not None


def test_inter_incremental_index_matches_bruteforce():
    from repro.inter.network import InterDomainNetwork
    from repro.topology.asgraph import synthetic_as_graph

    rng = random.Random(0x1E7)
    asg = synthetic_as_graph(n_ases=40, seed=2)
    net = InterDomainNetwork(asg, n_fingers=4, seed=2)
    net.join_random_hosts(60)

    def brute_best_key(node, dest):
        """Closest key (VN id or pointer target) to dest, by scan."""
        best_dist = None
        for vn in node.hosted.values():
            dists = [net.space.distance_cw(vn.id, dest)]
            for ptr in [*vn.succ_by_level.values(), *vn.fingers]:
                dists.append(net.space.distance_cw(ptr.dest_id, dest))
            for dist in dists:
                if best_dist is None or dist < best_dist:
                    best_dist = dist
        return best_dist

    for node in net.ases.values():
        if not node.hosted:
            continue
        for _ in range(10):
            dest = net.space.make(rng.randrange(net.space.size))
            match = node.best_match(net, dest)   # zero-capacity AS caches
            expect = brute_best_key(node, dest)
            assert match is not None
            assert match.distance == expect
