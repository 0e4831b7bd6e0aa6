"""Link-state substrate: live map, SPF cache, flooding model."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linkstate.lsdb import EventKind, LinkStateMap, TopologyEvent
from repro.linkstate.protocol import (FloodModel, OspfTimers,
                                      flood_latency_ms, flood_message_cost)
from repro.linkstate.spf import PathCache
from repro.topology.isp import synthetic_isp


@pytest.fixture()
def lsmap():
    return LinkStateMap(synthetic_isp(n_routers=30, seed=1))


class TestLiveMap:
    def test_initially_everything_up(self, lsmap):
        assert len(lsmap.live_routers()) == 30
        assert len(lsmap.components()) == 1

    def test_link_failure_and_restore(self, lsmap):
        a, b = next(iter(lsmap.links()))
        lsmap.fail_link(a, b)
        assert not lsmap.is_link_up(a, b)
        lsmap.restore_link(a, b)
        assert lsmap.is_link_up(a, b)

    def test_router_failure_takes_links_down(self, lsmap):
        router = lsmap.live_routers()[0]
        neighbors = list(lsmap.adjacency[router])
        lsmap.fail_router(router)
        assert not lsmap.is_router_up(router)
        for nbr in neighbors:
            assert not lsmap.is_link_up(router, nbr)
        lsmap.restore_router(router)
        for nbr in neighbors:
            assert lsmap.is_link_up(router, nbr)

    def test_independent_link_failure_survives_router_restore(self, lsmap):
        router = lsmap.live_routers()[0]
        nbr = next(iter(lsmap.adjacency[router]))
        lsmap.fail_link(router, nbr)
        lsmap.fail_router(router)
        lsmap.restore_router(router)
        assert not lsmap.is_link_up(router, nbr)

    def test_a_pair_that_is_no_link_is_refused_untouched(self, lsmap):
        """``fail_link`` used to accept any pair: it joined the hashed
        failed set, bumped ``generation`` and evicted every SPF tree."""
        events = []
        lsmap.subscribe(events.append)
        a = lsmap.live_routers()[0]
        stranger = next(r for r in lsmap.live_routers()
                        if r != a and r not in lsmap.adjacency[a])
        before = (lsmap.generation, set(lsmap._failed_links))
        for op in (lsmap.fail_link, lsmap.restore_link):
            for pair in ((a, stranger), (a, "no-such-router"),
                         ("no-such-router", a), ("nor", "this")):
                with pytest.raises(KeyError, match="unknown link"):
                    op(*pair)
        assert (lsmap.generation, lsmap._failed_links) == before
        assert events == []

    def test_generation_increments(self, lsmap):
        g0 = lsmap.generation
        a, b = next(iter(lsmap.links()))
        lsmap.fail_link(a, b)
        assert lsmap.generation == g0 + 1
        lsmap.fail_link(a, b)  # idempotent: no new event
        assert lsmap.generation == g0 + 1

    def test_subscribers_notified(self, lsmap):
        events = []
        lsmap.subscribe(events.append)
        router = lsmap.live_routers()[3]
        lsmap.fail_router(router)
        assert events == [TopologyEvent(EventKind.ROUTER_DOWN, router=router)]

    def test_pop_failure(self, lsmap):
        downed = lsmap.fail_pop(0)
        assert downed and all(not lsmap.is_router_up(r) for r in downed)
        lsmap.restore_pop(0)
        assert all(lsmap.is_router_up(r) for r in downed)

    def test_path_is_live(self, lsmap):
        paths = PathCache(lsmap)
        routers = lsmap.live_routers()
        path = paths.hop_path(routers[0], routers[-1])
        assert lsmap.path_is_live(path)
        lsmap.fail_link(path[0], path[1])
        assert not lsmap.path_is_live(path)
        assert not lsmap.path_is_live([])

    def test_path_is_live_one_pass_agrees_with_the_two_pass_definition(self):
        """Every router up *and* every consecutive pair an edge, over
        random walks and random jumps (tuples, as pointers store them) on
        a map with failed links and routers."""
        import random
        lsmap = LinkStateMap(synthetic_isp(n_routers=30, seed=1))
        rng = random.Random(5)
        everyone = sorted(lsmap.topology.routers)
        for a, b in rng.sample(sorted(lsmap.topology.links()), 6):
            lsmap.fail_link(a, b)
        for router in rng.sample(everyone, 3):
            lsmap.fail_router(router)
        graph = lsmap.topology.adjacency
        verdicts = set()
        for _ in range(600):
            path = [rng.choice(everyone)]
            for _ in range(rng.randrange(5)):
                path.append(rng.choice(sorted(graph[path[-1]]))
                            if rng.random() < 0.9 else rng.choice(everyone))
            expected = (all(lsmap.is_router_up(r) for r in path)
                        and all(lsmap.is_link_up(a, b)
                                for a, b in zip(path, path[1:])))
            assert lsmap.path_is_live(tuple(path)) == expected, path
            verdicts.add((len(path) > 1, expected))
        assert len(verdicts) == 4    # single/multi-hop, live and dead
        assert not lsmap.path_is_live(())


class TestPathCache:
    def test_hop_path_endpoints(self, lsmap):
        paths = PathCache(lsmap)
        a, b = lsmap.live_routers()[0], lsmap.live_routers()[-1]
        path = paths.hop_path(a, b)
        assert path[0] == a and path[-1] == b
        assert paths.hop_dist(a, b) == len(path) - 1
        assert paths.hop_dist(a, a) == 0

    def test_cache_invalidated_by_failures(self, lsmap):
        paths = PathCache(lsmap)
        a, b = lsmap.live_routers()[0], lsmap.live_routers()[-1]
        before = paths.hop_path(a, b)
        mid = before[len(before) // 2]
        if mid not in (a, b):
            lsmap.fail_router(mid)
            after = paths.hop_path(a, b)
            assert after is None or mid not in after

    def test_unreachable_returns_none(self, lsmap):
        paths = PathCache(lsmap)
        a = lsmap.live_routers()[0]
        b = lsmap.live_routers()[1]
        lsmap.fail_router(b)
        assert paths.hop_path(a, b) is None
        assert paths.latency_ms(a, b) is None

    def test_latency_consistency(self, lsmap):
        paths = PathCache(lsmap)
        a, b = lsmap.live_routers()[0], lsmap.live_routers()[10]
        direct = paths.latency_ms(a, b)
        assert direct > 0
        # Any explicit path is at least as slow as the optimum.
        hop = paths.hop_path(a, b)
        assert paths.path_latency_ms(hop) >= direct - 1e-9


class TestFloodModel:
    def test_flood_cost_scales_with_links(self, lsmap):
        cost = flood_message_cost(lsmap)
        assert cost == 2 * len(list(lsmap.links()))
        origin = lsmap.live_routers()[0]
        assert flood_message_cost(lsmap, origin) < cost

    def test_flood_latency_positive_and_bounded(self, lsmap):
        origin = lsmap.live_routers()[0]
        latency = flood_latency_ms(lsmap, origin)
        assert latency > 0

    def test_recovery_time_includes_detection(self, lsmap):
        model = FloodModel(lsmap, timers=OspfTimers(fast_detect_ms=300.0))
        origin = lsmap.live_routers()[0]
        assert model.recovery_time_ms(origin) > 300.0

    def test_a_recovery_query_leaves_the_network_as_it_was(self):
        """Without a ``paths`` argument the query once built a
        ``PathCache`` that subscribed to the live map for good: the map
        held one more subscriber, and the state hash moved."""
        from repro import build_network
        from repro.snapshot import state_hash
        net = build_network("intra", 0, hosts=40, n_routers=24)
        before = (len(net.lsmap._subscribers), state_hash(net))
        origin = net.lsmap.live_routers()[0]
        model = FloodModel(net.lsmap)
        assert model.recovery_time_ms(origin) \
            == model.recovery_time_ms(origin, net.paths)
        assert (len(net.lsmap._subscribers), state_hash(net)) == before


class TestSelectiveInvalidation:
    """Failure events evict only SPF trees touching the failed element."""

    def test_link_down_keeps_untouched_trees(self, lsmap):
        paths = PathCache(lsmap)
        routers = lsmap.live_routers()
        for src in routers[:6]:
            paths.hop_path(src, routers[-1])
        assert len(paths._hop_paths) == 6
        a, b = next(iter(lsmap.links()))
        lsmap.fail_link(a, b)
        # Every surviving tree must be exact: recompute and compare.
        survivors = dict(paths._hop_paths)
        assert all(a not in tree or b not in tree
                   for tree in survivors.values())
        for src, tree in survivors.items():
            fresh = PathCache(lsmap)
            for dst in routers:
                assert paths.hop_dist(src, dst) == fresh.hop_dist(src, dst)

    def test_router_down_evicts_only_touching_trees(self, lsmap):
        paths = PathCache(lsmap)
        routers = lsmap.live_routers()
        for src in routers:
            paths.hop_path(src, src)
        victim = routers[0]
        lsmap.fail_router(victim)
        assert victim not in paths._hop_paths
        # A fully connected graph reaches everywhere, so all trees touched
        # the victim and everything is evicted — but queries still work.
        for src in routers[1:4]:
            fresh = PathCache(lsmap)
            for dst in routers[1:4]:
                assert paths.hop_dist(src, dst) == fresh.hop_dist(src, dst)

    def test_restore_clears_everything(self, lsmap):
        paths = PathCache(lsmap)
        routers = lsmap.live_routers()
        a, b = next(iter(lsmap.links()))
        lsmap.fail_link(a, b)
        for src in routers[:4]:
            paths.hop_path(src, routers[-1])
        lsmap.restore_link(a, b)
        assert paths._hop_paths == {}
        # Post-restore paths may use the restored link again.
        assert paths.hop_dist(a, b) == 1

    def test_latency_cache_also_selective(self, lsmap):
        paths = PathCache(lsmap)
        routers = lsmap.live_routers()
        for src in routers[:5]:
            paths.latency_ms(src, routers[-1])
        a, b = next(iter(lsmap.links()))
        lsmap.fail_link(a, b)
        for src, dists in paths._latency_dist.items():
            fresh = PathCache(lsmap)
            assert paths.latency_ms(src, routers[-1]) \
                == fresh.latency_ms(src, routers[-1])

    def test_generation_fallback_still_works(self, lsmap):
        # A cache that never saw the events (constructed fresh, then the
        # generation diverges artificially) falls back to a full clear.
        paths = PathCache(lsmap)
        routers = lsmap.live_routers()
        paths.hop_path(routers[0], routers[-1])
        paths._generation = -999
        assert paths.hop_path(routers[0], routers[-1]) is not None
        assert paths._generation == lsmap.generation


# ---------------------------------------------------------------------------
# networkx as the oracle.  Until snapshot schema 3 the three graph holders
# were ``nx.Graph``s; ``repro.topology.graph`` replaced them with plain
# adjacency dicts and four functions, and every seeded output depends on
# those returning what networkx returned *in the order it returned it*.
# ---------------------------------------------------------------------------

class _NxLiveMap:
    """The parent commit's ``LinkStateMap`` mutators, verbatim, over a
    mirrored ``nx.Graph``."""

    def __init__(self, static):
        self.static, self.live = static, static.copy()
        self.failed_routers, self.failed_links = set(), set()

    def fail_link(self, a, b):
        self.failed_links.add(frozenset((a, b)))
        if self.live.has_edge(a, b):
            self.live.remove_edge(a, b)

    def restore_link(self, a, b):
        if frozenset((a, b)) not in self.failed_links:
            return
        self.failed_links.discard(frozenset((a, b)))
        if a not in self.failed_routers and b not in self.failed_routers:
            self.live.add_edge(a, b, **self.static.edges[a, b])

    def fail_router(self, router):
        self.failed_routers.add(router)
        if router in self.live:
            self.live.remove_node(router)

    def restore_router(self, router):
        if router not in self.failed_routers:
            return
        self.failed_routers.discard(router)
        self.live.add_node(router, **self.static.nodes[router])
        for nbr in self.static.neighbors(router):
            if (nbr in self.live
                    and frozenset((router, nbr)) not in self.failed_links):
                self.live.add_edge(router, nbr,
                                   **self.static.edges[router, nbr])


@st.composite
def _attributed_topologies(draw):
    """A connected router graph and its ``nx.Graph`` mirror, built by the
    same calls: routers in one drawn order, links in another (a spanning
    tree first), latencies from a few values so that paths tie."""
    from repro.topology.graph import RouterTopology
    names = ["r{}".format(i) for i in range(draw(st.integers(2, 9)))]
    topo, mirror = RouterTopology("drawn"), nx.Graph()
    for i, name in enumerate(draw(st.permutations(names))):
        topo.add_router(name, pop=i % 3, role="edge")
        mirror.add_node(name, pop=i % 3, role="edge")
    pairs = [(name, names[draw(st.integers(0, i - 1))])
             for i, name in enumerate(names) if i]
    pairs += draw(st.lists(st.tuples(st.sampled_from(names),
                                     st.sampled_from(names)), max_size=12))
    for a, b in draw(st.permutations(pairs)):
        if a != b:
            latency = draw(st.sampled_from((0.5, 1.0, 1.0, 1.5, 2.25)))
            if draw(st.booleans()):
                a, b = b, a
            topo.add_link(a, b, latency_ms=latency)
            mirror.add_edge(a, b, latency_ms=latency)
    return topo, mirror


def _same_everywhere(lsmap, live):
    """Order is checked, not just content: dicts compare as item lists."""
    from repro.topology.graph import bfs_paths, dijkstra_lengths
    assert lsmap.live_routers() == list(live.nodes)
    assert list(lsmap.links()) == list(live.edges())
    assert lsmap.components() == [set(c) for c in nx.connected_components(live)]
    for src in live:
        assert list(bfs_paths(lsmap.adjacency, src).items()) == list(
            nx.single_source_shortest_path(live, src).items())
        assert list(dijkstra_lengths(lsmap.adjacency, src).items()) == list(
            nx.single_source_dijkstra_path_length(
                live, src, weight="latency_ms").items())


class TestNetworkxIsTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(drawn=_attributed_topologies(), data=st.data())
    def test_a_live_map_under_any_fault_tape(self, drawn, data):
        topo, mirror = drawn
        assert list(topo.links()) == list(mirror.edges())
        assert topo.routers == list(mirror.nodes)
        assert topo.diameter() == nx.diameter(mirror)
        lsmap, oracle = LinkStateMap(topo), _NxLiveMap(mirror)
        _same_everywhere(lsmap, oracle.live)
        links, routers = sorted(topo.links()), sorted(topo.routers)
        for _ in range(data.draw(st.integers(1, 12))):
            op = data.draw(st.sampled_from(
                ("fail_link", "restore_link", "fail_router", "restore_router")))
            victim = (data.draw(st.sampled_from(links)) if "link" in op
                      else (data.draw(st.sampled_from(routers)),))
            if op.endswith("link") and data.draw(st.booleans()):
                victim = victim[::-1]
            getattr(lsmap, op)(*victim)
            getattr(oracle, op)(*victim)
            _same_everywhere(lsmap, oracle.live)
            assert lsmap.reachable(routers[0], routers[-1]) == (
                routers[0] in oracle.live and routers[-1] in oracle.live
                and nx.has_path(oracle.live, routers[0], routers[-1]))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_topological_order_and_cycle_check(self, data):
        from repro.topology.graph import topological_order
        nodes = data.draw(st.permutations(range(data.draw(st.integers(1, 9)))))
        edges = data.draw(st.lists(st.tuples(
            st.sampled_from(nodes), st.sampled_from(nodes)),
            max_size=16, unique=True))
        if data.draw(st.booleans()):       # mostly DAGs, some with a cycle
            edges = [(a, b) for a, b in edges if a < b]
        successors = {node: [] for node in nodes}
        dag = nx.DiGraph()
        dag.add_nodes_from(nodes)
        for a, b in edges:
            successors[a].append(b)
            dag.add_edge(a, b)
        if nx.is_directed_acyclic_graph(dag):
            assert topological_order(successors) == list(
                nx.topological_sort(dag))
        else:
            with pytest.raises(ValueError, match="cycle"):
                topological_order(successors)
