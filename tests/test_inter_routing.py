"""Interdomain data routing: delivery, isolation, caches, bloom peering."""

import collections
import contextlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_network
from repro.idspace.identifier import FlatId
from repro.inter import routing
from repro.inter.canon import InterJoinError
from repro.inter.network import InterDomainNetwork
from repro.inter.pointers import ASPointer, InterVirtualNode
from repro.inter.policy import JoinStrategy
from repro.obs import trace
from repro.topology.asgraph import ASGraph, synthetic_as_graph
from repro.util import perf

from tests import routing_reference
from tests.conftest import twin_examples
from tests.test_intra_forwarding import _Lines, _pick, _Twins as _IntraTwins


class TestDelivery:
    def test_many_pairs_deliver(self, inter_net_readonly):
        net = inter_net_readonly
        for _ in range(80):
            a, b = net.random_host_pair()
            result = net.send(a, b)
            assert result.delivered

    def test_path_endpoints(self, inter_net_readonly):
        net = inter_net_readonly
        a, b = net.random_host_pair()
        result = net.send(a, b)
        assert result.path[0] == net.hosts[a].home_as
        assert result.path[-1] == net.hosts[b].home_as

    def test_path_hops_are_real_adjacencies(self, inter_net_readonly):
        net = inter_net_readonly
        a, b = net.random_host_pair()
        result = net.send(a, b)
        for x, y in zip(result.path, result.path[1:]):
            assert net.policy.step_type(x, y) is not None

    def test_same_as_delivery(self, inter_net_factory):
        net = inter_net_factory(n_hosts=0)
        h1 = net.next_planned_host()
        h2 = net.next_planned_host()
        while h2.attach_at != h1.attach_at:
            h2 = net.next_planned_host()
        net.join_host(h1)
        net.join_host(h2)
        result = net.send(h1.name, h2.name)
        assert result.delivered and result.hops == 0

    def test_nonexistent_id_fails(self, inter_net_readonly):
        net = inter_net_readonly
        missing = FlatId(0x1234_5678_9ABC)
        assert missing not in net.id_owner_index
        result = net.send_to_id(net.asg.ases()[0], missing)
        assert not result.delivered


class TestIsolation:
    def test_isolation_holds_on_every_delivered_path(self, inter_net_readonly):
        """The paper: "we verified there were no cases in any of our
        experiments when the isolation property was broken"."""
        net = inter_net_readonly
        for _ in range(150):
            a, b = net.random_host_pair()
            result = net.send(a, b)
            if result.delivered:
                assert net.check_isolation(net.hosts[a].home_as,
                                           net.hosts[b].home_as, result.path)

    def test_intra_as_traffic_stays_internal(self, inter_net_factory):
        """"As a corollary, traffic internal to an AS stays internal."""
        net = inter_net_factory(n_hosts=0, seed=21)
        h1 = net.next_planned_host()
        h2 = net.next_planned_host()
        while h2.attach_at != h1.attach_at:
            h2 = net.next_planned_host()
        net.join_host(h1)
        net.join_host(h2)
        result = net.send(h1.name, h2.name)
        assert result.delivered
        assert set(result.path) == {h1.attach_at}


class TestStretch:
    def test_stretch_vs_bgp_reasonable(self, inter_net_readonly):
        net = inter_net_readonly
        stretches = []
        for _ in range(120):
            a, b = net.random_host_pair()
            result = net.send(a, b)
            if result.delivered and result.optimal_hops > 0:
                stretches.append(result.stretch)
        mean = sum(stretches) / len(stretches)
        assert 1.0 <= mean < 5.0  # the paper's regime is ~2-3

    def test_fingers_reduce_stretch(self):
        def mean_stretch(n_fingers, seed=15):
            graph = synthetic_as_graph(n_ases=60, seed=seed)
            net = InterDomainNetwork(graph, n_fingers=n_fingers, seed=seed)
            net.join_random_hosts(120)
            vals = []
            for _ in range(150):
                a, b = net.random_host_pair()
                r = net.send(a, b)
                if r.delivered and r.optimal_hops > 0:
                    vals.append(r.stretch)
            return sum(vals) / len(vals)
        assert mean_stretch(16) < mean_stretch(0)


class TestCaches:
    def test_caches_enabled_reduce_or_keep_stretch(self):
        def run(cache):
            graph = synthetic_as_graph(n_ases=60, seed=16)
            net = InterDomainNetwork(graph, n_fingers=4, seed=16,
                                     cache_entries=cache)
            net.join_random_hosts(120)
            vals = []
            for _ in range(150):
                a, b = net.random_host_pair()
                r = net.send(a, b)
                if r.delivered and r.optimal_hops > 0:
                    vals.append(r.stretch)
            return sum(vals) / len(vals)
        assert run(2048) <= run(0) + 0.05

    def test_cache_guarded_by_bloom_isolation(self, inter_net_factory):
        """A cached pointer must not be used when the destination is
        below the caching AS (Section 4.1's isolation guard)."""
        net = inter_net_factory(n_hosts=60, cache_entries=512, seed=17)
        # Find a transit AS with cache entries and a destination below it.
        for asn, node in net.ases.items():
            subtree = net.policy.subtree(asn)
            below = [vn for vn in net.hosts.values()
                     if vn.home_as in subtree and vn.home_as != asn]
            if len(node.cache) and below:
                assert below[0].id in node.subtree_bloom
                hits = node.cache.hits
                match = node.best_match(net, below[0].id)
                assert match is None or match.pointer is None \
                    or match.pointer.kind != "cache"
                assert node.cache.hits == hits   # barred before the probe
                break
        else:
            pytest.fail("no caching AS with a destination below it")


class TestBloomPeering:
    def test_bloom_mode_delivers(self, inter_net_factory):
        net = inter_net_factory(n_hosts=100, peering_mode="bloom",
                                strategy=JoinStrategy.PEERING, seed=18,
                                n_fingers=4)
        delivered = 0
        for _ in range(60):
            a, b = net.random_host_pair()
            delivered += net.send(a, b).delivered
        assert delivered == 60

    def test_bloom_mode_joins_cost_less_than_virtual_as(self):
        g1 = synthetic_as_graph(n_ases=60, seed=19)
        vas = InterDomainNetwork(g1, n_fingers=4, seed=19,
                                 strategy=JoinStrategy.PEERING,
                                 peering_mode="virtual_as")
        vas.join_random_hosts(80)
        g2 = synthetic_as_graph(n_ases=60, seed=19)
        blm = InterDomainNetwork(g2, n_fingers=4, seed=19,
                                 strategy=JoinStrategy.PEERING,
                                 peering_mode="bloom")
        blm.join_random_hosts(80)
        assert (sum(blm.stats.operation_costs("join"))
                < sum(vas.stats.operation_costs("join")))

    def test_invalid_mode_rejected(self, as_graph):
        with pytest.raises(ValueError):
            InterDomainNetwork(as_graph, peering_mode="nope")


class TestScopedRouting:
    def test_scoped_lookup_stays_in_subtree(self, inter_net_readonly):
        net = inter_net_readonly
        # Pick a tier-2 level with a populated ring.
        for level, ring in net.rings.items():
            if isinstance(level, str) and level.startswith("T2") and len(ring) > 3:
                probe = FlatId(ring.keys()[1].value + 1)
                outcome = routing.route(net, ring[ring.keys()[0]].home_as,
                                        probe, mode="lookup", scope=level,
                                        category="test", use_cache=False)
                if outcome.delivered:
                    subtree = net.policy.subtree(level)
                    assert all(asn in subtree for asn in outcome.as_path)
                break


def test_repair_at_as_zero_starts_from_as_zero():
    """``validate_pointer(..., from_as=0)`` re-routes from AS 0: an AS
    number is a name, and 0 is as good a name as any (``from_as or
    owner`` once re-routed from the pointer's owner instead, and the walk
    then took the route's second AS — AS 0 itself — as its next hop)."""
    asg = ASGraph()
    for asn in range(6):
        asg.add_as(asn, tier=1 if asn < 3 else 3)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        asg.add_peering(a, b)
    for customer, provider in ((3, 1), (3, 2), (4, 0), (4, 2), (5, 3)):
        asg.add_customer_provider(customer, provider)
    asg.validate()
    net = InterDomainNetwork(asg, seed=0)
    target = net.space.make(12345)
    net.id_owner_index[target] = InterVirtualNode(target, 5)
    net.fail_as(1)
    pointer = ASPointer(target, 5, (4, 0, 1, 3, 5))
    for at in (0, 2):
        repaired = net.validate_pointer(net.ases[at], pointer, from_as=at)
        assert repaired.as_route[0] == at and repaired.as_route[-1] == 5


# ---------------------------------------------------------------------------
# The fused engine against the old one, kept verbatim in
# tests/routing_reference.py: twin networks from one seed, one driven by
# each, compared after every operation.
# ---------------------------------------------------------------------------

class _Twins(_IntraTwins):
    """The intradomain twins (``new`` runs the engine under ``src/``,
    ``old`` the reference) over interdomain networks: per-AS caches are
    compared."""

    ENGINES = {"new": contextlib.nullcontext,
               "old": routing_reference.installed}
    ERRORS = (KeyError, ValueError, InterJoinError)

    @staticmethod
    def nodes(net):
        return net.ases

    def __init__(self, seed, cache_entries, strategy, traced, n_ases=30,
                 n_hosts=30):
        self.tracers = {side: trace.Tracer(_Lines()) if traced else None
                        for side in self.ENGINES}
        self.nets = {}
        self.both(lambda net: [net.join_next() for _ in range(n_hosts)],
                  build=lambda: InterDomainNetwork(
                      synthetic_as_graph(n_ases=n_ases, seed=seed),
                      n_fingers=4, seed=seed, cache_entries=cache_entries,
                      strategy=strategy))


def _apply(net, op):
    """One drawn operation; the indices pick from what the network holds
    now, so the same draw means the same thing on both twins."""
    kind, i, j = op
    if kind == "join":
        return net.join_next()
    if kind == "fail_as":
        return net.fail_as(_pick([s for s in net.asg.stubs()
                                  if net.as_is_up(s) and net.ases[s].hosted], i))
    if kind == "restore_as":
        return net.restore_as(_pick(net._failed, i))
    host = _pick(net.hosts, i)
    if kind == "send":
        return net.send(host, _pick(net.hosts, j))
    vn = net.hosts[host]
    if kind == "data":
        live = [asn for asn in net.ases if net.as_is_up(asn)]
        return routing.route(net, _pick(live, j), vn.id)
    # A scoped predecessor lookup, as a join runs one, at one of the levels
    # the ID joined: at, just before and just after it.
    level = vn.joined_levels[j % len(vn.joined_levels)]
    return routing.route(net, vn.home_as, FlatId(vn.id.value + j % 3 - 1),
                         mode="lookup", scope=level, category="test")


_TRAFFIC = st.tuples(st.sampled_from(["send", "data", "lookup", "join"]),
                     st.integers(0, 999), st.integers(0, 999))
_CHURN = st.tuples(st.sampled_from(["fail_as", "restore_as"]),
                   st.integers(0, 999), st.integers(0, 999))


class TestReferenceEngine:
    @pytest.mark.parametrize("cache_entries", [0, 64])
    @settings(max_examples=twin_examples(), deadline=None)
    @given(seed=st.integers(0, 2 ** 16), traced=st.booleans(),
           strategy=st.sampled_from([JoinStrategy.MULTIHOMED,
                                    JoinStrategy.PEERING]),
           tape=st.lists(st.one_of(_TRAFFIC, _TRAFFIC, _TRAFFIC, _CHURN),
                         min_size=6, max_size=20))
    def test_any_tape_agrees_with_the_reference(self, cache_entries, seed,
                                                traced, strategy, tape):
        twins = _Twins(seed, cache_entries, strategy, traced)
        for op in tape:
            twins.both(lambda net: _apply(net, op))

    def test_rare_branches_agree_with_the_reference(self):
        """The branches a random tape seldom reaches, each set up by hand
        on both twins: NACK teardown (an ID gone from its AS without a
        word), a route repaired around a failed transit AS, one torn down
        when its destination AS fails under the packet, a zero-hop
        pointer, and an AS with no state a lookup may use — besides what
        sending to every ID from afar reaches: shortcuts, the import-rule
        filter, the bloom guard, cache hits and rejects.  (There is no
        ``cache.miss``: an empty cache is never probed.)  Traced, so the
        trace can say which branches ran; the tapes above run both ways."""
        twins = _Twins(5, 64, JoinStrategy.PEERING, True, n_hosts=60)
        net = twins.nets["new"]

        # Every ID once from every AS tier, as data and as a lookup.
        def from_afar(net):
            return [routing.route(net, far, vn.id) if far else routing.route(
                net, vn.home_as, vn.id, mode="lookup",
                scope=vn.joined_levels[-1], category="test")
                for vn in sorted(net.hosts.values(), key=lambda vn: vn.id)
                for far in ("T1-0", "T2-0", "S-0", "S-9", None)]
        twins.both(from_afar)

        # A scoped lookup aimed at an ID that is no member of the scope's
        # ring: its co-hosted neighbour's zero-hop successor pointer is
        # taken instead, and leads nowhere new.
        def zero_hop(net):
            for node in net.ases.values():
                for vn in node.hosted.values():
                    for level, ptr in vn.succ_by_level.items():
                        target = node.hosted.get(ptr.dest_id)
                        if ptr.n_hops or target is None \
                                or level == target.home_as:
                            continue
                        scope = target.joined_levels.pop()
                        try:
                            return routing.route(
                                net, node.asn, FlatId(target.id.value + 1),
                                mode="lookup", scope=scope, category="test")
                        finally:
                            target.joined_levels.append(scope)
        assert twins.both(zero_hop)["result"].reason == "no progress available"

        def no_state(net):
            bare = next(a for a, n in sorted(net.ases.items(), key=str)
                        if not n.hosted)
            return routing.route(net, bare, FlatId(1), mode="lookup",
                                 scope=bare, category="test")
        assert twins.both(no_state)["result"].reason == "no routing state"

        # NACK: an ID leaves its AS without a word; whoever follows a
        # pointer there is NACKed and the pointer's owner tears it down.
        def silently_gone(net):
            for owner in sorted(net.hosts.values(), key=lambda vn: vn.id):
                for ptr in owner.candidate_pointers():
                    target = net.id_owner_index.get(ptr.dest_id)
                    if ptr.n_hops >= 2 and target is not None:
                        home = net.ases[target.home_as]
                        home.unhost(target.id)
                        try:
                            return routing.route(net, owner.home_as, target.id)
                        finally:
                            home.host(target)
        twins.both(silently_gone)

        # A transit AS fails: pointers routed across it are re-routed at
        # the decision and repaired mid-route (a static policy path may
        # cross it again).
        crossed = collections.Counter(
            asn for vn in net.hosts.values() for ptr in vn.candidate_pointers()
            for asn in ptr.as_route[1:-1])
        transit = min(crossed, key=lambda asn: (-crossed[asn], str(asn)))
        twins.both(lambda net: net.fail_as(transit))
        across = sorted((str(vn.home_as), ptr.dest_id)
                        for vn in net.hosts.values()
                        for ptr in vn.candidate_pointers()
                        if transit in ptr.as_route[1:-1])
        twins.both(lambda net: [routing.route(net, start, target)
                                for start, target in across[:12]])

        # ... and the destination AS fails right after that re-route: the
        # route breaks under the packet and is torn down.
        def dest_fails_under_packet(net, start, target):
            validate, fired = type(net).validate_pointer, []

            def hook(node, pointer, from_as=None):
                valid = validate(net, node, pointer, from_as)
                if not fired and from_as is None and valid is not None \
                        and valid is not pointer:
                    fired.append(net.fail_as(valid.dest_as))
                return valid
            net.validate_pointer = hook
            try:
                return routing.route(net, start, target)
            finally:
                del net.validate_pointer
        for start, target in across[:12]:
            twins.both(lambda net: dest_fails_under_packet(net, start, target))

        kinds = twins.kinds()
        assert kinds >= {
            ("nack", "teardown"), ("repair", True), ("repair", False),
            ("shortcut", None), ("cache.bloom-guard", None),
            ("cache.reject", None), ("cache.hit", None),
            ("decision", "local-adopt"), ("decision", "cache"),
            ("decision", "external-successor"), ("decision", "finger")}, kinds
        assert any(kind == "policy.filter" for kind, _ in kinds), kinds
        assert ("cache.miss", None) not in kinds


def test_an_as_hop_costs_at_most_eight_python_calls():
    """The interdomain forwarding layer's stated budget (ROADMAP aim 1),
    as a count: Python-level calls per AS hop over a fixed batch of sends
    — every call under ``send``, per-packet overhead included, with the
    BGP tables behind the stretch denominator built beforehand (as the
    benchmark does).  Deterministic for the seed and clock-free.  19.2 on
    this shape at ``8528c03`` (``RoflAS.best_match`` → ``_pick_pointer`` →
    ``shortcut_allowed`` → ``_cache_match`` per AS, ``validate_pointer`` per
    decision, ``as_is_up`` / ``step_type`` / ``hosts_id`` per hop); 5.1
    with one fused ``RoflAS.best_match`` per AS crossed.  It fails the day
    someone re-wraps the kernel."""
    net = build_network("inter", 0, n_ases=60, hosts=600)
    net.bgp.warm()
    pairs = [net.random_host_pair() for _ in range(500)]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    hops = perf.value("inter.fwd.hops")
    sys.setprofile(count)
    try:
        for src, dst in pairs:
            net.send(src, dst)
    finally:
        sys.setprofile(None)
    hops = perf.value("inter.fwd.hops") - hops
    assert hops > 2000
    assert calls / hops <= 8, calls / hops
