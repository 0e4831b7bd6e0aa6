"""Greedy forwarding (Algorithm 2): delivery, stretch, caches, lookups."""

import contextlib
import json
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import build_network, snapshot
from repro.idspace.identifier import FlatId
from repro.intra import forwarding, ring
from repro.intra.network import IntraDomainNetwork
from repro.intra.ring import JoinError
from repro.obs import trace
from repro.topology.isp import TCAM_ENTRIES, synthetic_isp
from repro.util import perf

from tests import forwarding_reference
from tests.conftest import twin_examples


class TestDelivery:
    def test_all_pairs_deliver(self, intra_net_readonly):
        net = intra_net_readonly
        names = sorted(net.hosts)[:12]
        for a in names[:6]:
            for b in names[6:]:
                result = net.send(a, b)
                assert result.delivered
                assert result.hops >= 0
                assert result.path[0] == net.hosts[a].router
                assert result.path[-1] == net.hosts[b].router

    def test_path_follows_live_links(self, intra_net_readonly):
        net = intra_net_readonly
        a, b = net.random_host_pair()
        result = net.send(a, b)
        for x, y in zip(result.path, result.path[1:]):
            assert net.lsmap.is_link_up(x, y)

    def test_same_router_delivery_is_free(self, intra_net_factory):
        net = intra_net_factory(n_hosts=0)
        router = net.topology.edge_routers()[0]
        h1 = net.next_planned_host()
        h2 = net.next_planned_host()
        net.join_host(h1, via_router=router)
        net.join_host(h2, via_router=router)
        result = net.send(h1.name, h2.name)
        assert result.delivered and result.hops == 0

    def test_send_to_self_id(self, intra_net_readonly):
        net = intra_net_readonly
        name = sorted(net.hosts)[0]
        vn = net.hosts[name]
        result = net.send_to_id(vn.router, vn.id)
        assert result.delivered and result.hops == 0

    def test_nonexistent_id_fails_cleanly(self, intra_net_readonly):
        net = intra_net_readonly
        missing = FlatId(0xDEAD_BEEF_0000_1111)
        assert missing not in net.vn_index
        result = net.send_to_id(net.topology.routers[0], missing)
        assert not result.delivered

    def test_stretch_at_least_one(self, intra_net_readonly):
        net = intra_net_readonly
        for _ in range(30):
            a, b = net.random_host_pair()
            result = net.send(a, b)
            if result.optimal_hops > 0:
                assert result.stretch >= 1.0 - 1e-9


class TestLookupMode:
    def test_lookup_finds_global_predecessor(self, intra_net_readonly):
        net = intra_net_readonly
        members = sorted(net.ring_members(), key=lambda v: v.id)
        target = FlatId(members[5].id.value + 1)
        if target in net.vn_index:
            target = FlatId(target.value + 1)
        outcome = forwarding.route(net, net.topology.routers[0], target,
                                   mode="lookup", category="test")
        assert outcome.delivered
        # Oracle check: the answer is the true ring predecessor.
        expected = max((vn for vn in members if vn.id < target),
                       default=members[-1], key=lambda v: v.id)
        assert outcome.final_vn.id == expected.id

    def test_lookup_from_every_fifth_router_agrees(self, intra_net_readonly):
        net = intra_net_readonly
        target = FlatId(0x7777_7777)
        answers = set()
        for router in net.topology.routers[::5]:
            outcome = forwarding.route(net, router, target, mode="lookup",
                                       category="test")
            assert outcome.delivered
            answers.add(outcome.final_vn.id)
        assert len(answers) == 1

    def test_invalid_mode_rejected(self, intra_net_readonly):
        with pytest.raises(ValueError):
            forwarding.route(intra_net_readonly,
                             intra_net_readonly.topology.routers[0],
                             FlatId(1), mode="bogus")


class TestCaches:
    def test_caches_cut_stretch(self):
        topo = synthetic_isp(n_routers=60, seed=11)
        cold = IntraDomainNetwork(topo, cache_entries=0, seed=11)
        warm = IntraDomainNetwork(synthetic_isp(n_routers=60, seed=11),
                                  cache_entries=4096, seed=11)
        cold.join_random_hosts(150)
        warm.join_random_hosts(150)
        def avg_stretch(net):
            vals = []
            for _ in range(120):
                a, b = net.random_host_pair()
                r = net.send(a, b)
                if r.delivered and r.optimal_hops > 0:
                    vals.append(r.stretch)
            return sum(vals) / len(vals)
        assert avg_stretch(warm) < avg_stretch(cold)

    def test_cache_hits_recorded(self, intra_net_readonly):
        net = intra_net_readonly
        for _ in range(20):
            a, b = net.random_host_pair()
            net.send(a, b)
        assert net.cache_stats()["hits"] > 0

    def test_zero_cache_network_still_delivers(self, intra_net_factory):
        net = intra_net_factory(n_hosts=60, cache_entries=0)
        for _ in range(25):
            a, b = net.random_host_pair()
            assert net.send(a, b).delivered


class TestAccounting:
    def test_data_messages_charged(self, intra_net_factory):
        net = intra_net_factory(n_hosts=20)
        before = net.stats.total_messages("data")
        a, b = net.random_host_pair()
        result = net.send(a, b)
        assert net.stats.total_messages("data") - before == result.hops

    def test_pointer_hops_reported(self, intra_net_readonly):
        net = intra_net_readonly
        a, b = net.random_host_pair()
        result = net.send(a, b)
        if result.hops > 0:
            assert result.pointer_hops >= 1


class TestStaleZeroHopPointers:
    """Invariant (b) is lazy: a successor-group entry deeper than the
    departure repair reaches goes stale, and the walk that picks it must
    tear it down or re-route it — also when it is a *zero-hop* pointer,
    whose holder shares a router with where the ID used to live."""

    @pytest.mark.parametrize("departure", ["leave_host", "fail_host"])
    def test_departures_do_not_poison_later_walks(self, departure):
        """ROADMAP item 1's recipe at seed 0 (22 failed joins and 12
        undelivered sends with ``leave_host``, 12 and 7 with ``fail_host``,
        before the walk asked whether a zero-hop target is resident)."""
        net = build_network("intra", 0, n_routers=67, hosts=1500,
                            cache_entries=0)
        rng = random.Random(0)
        for _ in range(3000):
            draw = rng.random()
            if draw < 0.45:
                assert net.join_next() is not None
            elif draw < 0.65:
                getattr(net, departure)(rng.choice(net.hosts.names))
            else:
                assert net.send(*rng.sample(net.hosts.names, 2)).delivered
        net.check_ring()

    def test_a_moved_host_is_rerouted_not_adopted(self):
        net = IntraDomainNetwork(synthetic_isp(n_routers=14, seed=5),
                                 cache_entries=0, seed=5)
        net.join_random_hosts(24)
        members = sorted(net.ring_members(), key=lambda vn: vn.id)
        at = next(i for i, vn in enumerate(members) if vn.host_name)
        mover, holder = members[at], members[at - 2]
        # Co-resident with the holder of a deep (second-slot) entry for it.
        net.move_host(mover.host_name, holder.router)
        ring.refresh_ring_pointers(net)
        stale = holder.successors[1]
        assert stale.dest_id == mover.id and stale.path == (holder.router,)
        # A graceful move tells the predecessor only: the holder's entry
        # still says "resident right here".
        elsewhere = next(r for r in sorted(net.routers) if r != holder.router)
        net.move_host(mover.host_name, elsewhere)
        assert holder.successors[1] is stale

        tracer = trace.Tracer()
        with trace.tracing(tracer):
            outcome = forwarding.route(net, holder.router, mover.id)
        assert outcome.delivered and outcome.path[-1] == elsewhere
        nacks = [r.data for r in tracer.sink.records() if r.kind == "nack"]
        assert nacks == [{"router": holder.router, "action": "reroute",
                          "target": mover.id.to_hex()}]
        assert holder.successors[1].path[-1] == elsewhere
        net.check_ring()


# ---------------------------------------------------------------------------
# The fused engine against the parent's, kept verbatim in
# tests/forwarding_reference.py: twin networks from one seed, one driven by
# each, compared after every operation.
# ---------------------------------------------------------------------------

class _Lines:
    """A trace sink keeping each record as its ``JsonlSink`` line, plus the
    order its data fields were given in (which sorted JSON hides)."""

    def __init__(self):
        self.lines = []

    def write(self, record):
        self.lines.append((json.dumps(record.to_dict(), sort_keys=True,
                                      separators=(",", ":")),
                           tuple(record.data)))

    def close(self):
        pass


class _Twins:
    """Two networks built alike; ``new`` runs the engine under ``src/``,
    ``old`` the reference.  :meth:`both` applies one operation to each and
    requires everything observable to agree."""

    ENGINES = {"new": contextlib.nullcontext,
               "old": forwarding_reference.installed}
    #: What an operation may raise on both twins alike.
    ERRORS = (KeyError, ValueError, JoinError)

    @staticmethod
    def nodes(net):
        """The nodes whose pointer caches are compared."""
        return net.routers

    def __init__(self, seed, cache_entries, traced, n_routers=10, n_hosts=12):
        self.tracers = {side: trace.Tracer(_Lines()) if traced else None
                        for side in self.ENGINES}
        self.nets = {}
        self.both(lambda net: None, build=lambda: IntraDomainNetwork(
            synthetic_isp(n_routers=n_routers, seed=seed),
            cache_entries=cache_entries, seed=seed, ephemeral_fraction=0.25))
        for _ in range(n_hosts):
            self.both(lambda net: net.join_next())

    def _one(self, side, op, build):
        tracer = self.tracers[side]
        perf.reset()
        with self.ENGINES[side](), \
                trace.tracing(tracer) if tracer else contextlib.nullcontext():
            if build is not None:
                self.nets[side] = build()
            net = self.nets[side]
            try:
                result = op(net)
            except self.ERRORS as exc:
                result = repr(exc)
        return {
            "result": result,       # every outcome / PathResult field
            "counters": perf.snapshot()["counters"],
            "caches": {name: (r.cache.hits, r.cache.misses, r.cache.evictions,
                              list(r.cache._lru))
                       for name, r in self.nodes(net).items()},
            "trace": list(tracer.sink.lines) if tracer else None,
            "state_hash": snapshot.state_hash(net),
        }

    def both(self, op, build=None):
        new, old = self._one("new", op, build), self._one("old", op, build)
        for key in new:
            assert new[key] == old[key], key
        return new

    def kinds(self):
        """``(kind, action / rule / repaired)`` of every record traced so
        far — which branches of the walk have run."""
        records = [json.loads(line) for line, _ in self.tracers["new"].sink.lines]
        return {(r["kind"], r["data"].get("action", r["data"].get(
            "rule", r["data"].get("repaired")))) for r in records}


def _pick(items, index):
    items = sorted(items)
    if not items:
        # Drawn on a population the tape has emptied (every live link
        # cut, say): nothing is touched, and ``_Twins._one`` records the
        # same no-op on both sides.
        raise KeyError("nothing left to pick from")
    return items[index % len(items)]


def _apply(net, op):
    """One drawn operation; the indices pick from what the network holds
    now, so the same draw means the same thing on both twins."""
    kind, i, j = op
    if kind == "join":
        return net.join_next()
    if kind == "fail_link":
        return net.fail_link(*_pick(net.lsmap.links(), i))
    if kind == "fail_router":
        return net.fail_router(_pick(net.lsmap.live_routers(), i))
    host, router = _pick(net.hosts, i), _pick(net.routers, j)
    if kind == "send":
        return net.send(host, _pick(net.hosts, j))
    if kind == "data":
        return forwarding.route(net, router, net.hosts[host].id)
    if kind == "lookup":
        # At, just before and just after a live ID.
        target = FlatId(net.hosts[host].id.value + j % 3 - 1)
        return forwarding.route(net, router, target, mode="lookup",
                                category="test")
    if kind == "move":
        return net.move_host(host, router).rejoin_messages
    return getattr(net, kind)(host)     # fail_host / leave_host


_TRAFFIC = st.tuples(st.sampled_from(["send", "data", "lookup", "join"]),
                     st.integers(0, 999), st.integers(0, 999))
_CHURN = st.tuples(st.sampled_from(["fail_link", "fail_router", "fail_host",
                                    "leave_host", "move"]),
                   st.integers(0, 999), st.integers(0, 999))


@pytest.fixture()
def cut_under_packet(monkeypatch):
    """Arm with ``"link"`` or ``"router"``: the next source route a packet
    commits to loses its last link (or its hosting router) right after it
    validated — the only way a route breaks *under* a packet when one
    ``route()`` call is one instant of simulated time."""
    armed = []
    validate = IntraDomainNetwork.validate_pointer

    def cutting(net, router, pointer, from_router=None):
        valid = validate(net, router, pointer, from_router)
        if armed and valid is not None and valid.n_hops >= 2:
            if armed.pop() == "link":
                net.lsmap.fail_link(*valid.path[-2:])
            else:
                net.lsmap.fail_router(valid.path[-1])
        return valid

    monkeypatch.setattr(IntraDomainNetwork, "validate_pointer", cutting)
    return armed


class TestReferenceEngine:
    @pytest.mark.parametrize("cache_entries", [0, 8, 256, TCAM_ENTRIES])
    @settings(max_examples=twin_examples(), deadline=None)
    @given(seed=st.integers(0, 2 ** 16), traced=st.booleans(),
           tape=st.lists(st.one_of(_TRAFFIC, _TRAFFIC, _TRAFFIC, _CHURN),
                         min_size=10, max_size=30))
    # Three routers down leave this 10-router ISP four live links; the
    # fifth cut draws on none (a ZeroDivisionError in ``_pick`` once).
    @example(seed=1426, traced=True,
             tape=[("fail_router", i, 0) for i in (1, 2, 3)]
             + [("fail_link", 0, 0)] * 5 + [("send", 0, 1)])
    def test_any_tape_agrees_with_the_reference(self, cache_entries, seed,
                                                traced, tape):
        twins = _Twins(seed, cache_entries, traced)
        for op in tape:
            twins.both(lambda net: _apply(net, op))

    @pytest.mark.parametrize("traced", [False, True])
    def test_rare_branches_agree_with_the_reference(self, traced,
                                                    cut_under_packet):
        """The branches a random tape seldom reaches, each set up by hand
        on both twins: NACK-teardown and NACK-reroute (stale cached
        pointers after a leave and a move), a route breaking under the
        packet (repaired, then torn down), a zero-hop pointer, and a
        router with no state a lookup may use."""
        twins = _Twins(5, 256, traced, n_routers=14, n_hosts=24)
        net = twins.nets["new"]

        def cached_afar():
            return sorted(h for h, vn in net.hosts.items()
                          if not vn.ephemeral and len(vn.cached_at) > 1)[0]

        # Every ID once from afar, as data and as a lookup: ephemeral
        # targets, local adoption, shortcuts.
        walks = []
        for vn in sorted(net.hosts.values(), key=lambda vn: vn.id):
            far = sorted(net.routers, key=lambda r: (r == vn.router, r))[0]
            walks.append((twins.both(lambda net: forwarding.route(
                net, far, vn.id))["result"].hops, far, vn.id))
            twins.both(lambda net: forwarding.route(
                net, far, vn.id, mode="lookup", category="test"))

        # A graceful leave floods no invalidation: the cached pointer
        # still leads to the old hosting router, which NACKs (teardown).
        gone = cached_afar()
        left = net.hosts[gone]
        twins.both(lambda net: net.leave_host(gone))
        for holder in sorted(left.cached_at - {left.router}):
            twins.both(lambda net: forwarding.route(net, holder, left.id))
        # A move re-homes the ID: the old router NACKs whoever still
        # follows a cached route there, and the owner re-routes.
        mover = cached_afar()
        moved = net.hosts[mover]
        holders = sorted(moved.cached_at - {moved.router})
        elsewhere = next(r for r in sorted(net.routers)
                         if r != moved.router and r not in holders)
        twins.both(lambda net: net.move_host(mover, elsewhere).rejoin_messages)
        for holder in holders:
            twins.both(lambda net: forwarding.route(net, holder, moved.id))

        # A resident ID that holds no ring position (made ephemeral for
        # the one walk) may not answer a lookup; its neighbour's zero-hop
        # successor pointer to it is taken instead, and leads nowhere new.
        def zero_hop(net):
            for router in net.routers.values():
                for vn in router.vn_table.values():
                    first = vn.primary_successor()
                    if not vn.ephemeral and first is not None \
                            and first.n_hops == 0:
                        target = net.vn_index[first.dest_id]
                        target.ephemeral = True
                        try:
                            return forwarding.route(
                                net, router.name, FlatId(target.id.value + 1),
                                mode="lookup", category="test")
                        finally:
                            target.ephemeral = False
        assert twins.both(zero_hop)["result"].reason == "no progress available"

        def no_state(net):
            router = next(r for _, r in sorted(net.routers.items())
                          if len(r.vn_table) == 1)
            vn = router.default_vn
            held, vn.successors, vn.ephemeral = vn.successors, [], True
            router.mark_dirty(vn)
            router.cache.clear()
            try:
                return forwarding.route(net, router.name, FlatId(1),
                                        mode="lookup", category="test")
            finally:
                vn.successors, vn.ephemeral = held, False
                router.mark_dirty(vn)
        assert twins.both(no_state)["result"].reason == "no routing state"

        # The route breaks under the packet on the two longest walks:
        # repaired mid-route, then (the hosting router itself gone) torn
        # down.
        walks.sort(reverse=True)
        for cut, (_, far, target) in zip(("link", "router"), walks):
            def route_with_cut(net):
                cut_under_packet[:] = [cut]
                try:
                    return forwarding.route(net, far, target)
                finally:
                    del cut_under_packet[:]
            twins.both(route_with_cut)

        if traced:
            assert twins.kinds() >= {
                ("nack", "teardown"), ("nack", "reroute"), ("repair", True),
                ("repair", False), ("shortcut", None), ("cache.miss", None),
                ("cache.reject", None), ("cache.hit", None),
                ("decision", "local-adopt"), ("decision", "successor"),
                ("decision", "cache"), ("decision", "ephemeral")}


def test_a_hop_costs_at_most_eight_python_calls():
    """The forwarding layer's stated budget (ROADMAP aim 1), as a count:
    Python-level calls per physical hop over a fixed batch of sends — every
    call under ``send``, per-packet overhead included.  Deterministic for
    the seed and clock-free.  28.1 until PR 19 fused Algorithm 2 into one
    ``RoflRouter.best_match`` per router crossed; 5.7 since, 5.6 once the
    live map became an attribute (PR 22).  It fails the day someone
    re-wraps the kernel."""
    net = build_network("intra", 0, n_routers=40, hosts=600)
    pairs = [net.random_host_pair() for _ in range(500)]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    hops = perf.value("fwd.hops")
    sys.setprofile(count)
    try:
        for src, dst in pairs:
            net.send(src, dst)
    finally:
        sys.setprofile(None)
    hops = perf.value("fwd.hops") - hops
    assert hops > 2000
    assert calls / hops <= 8, calls / hops
