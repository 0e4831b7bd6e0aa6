"""Stateful property testing of the intradomain ring.

Hypothesis drives arbitrary interleavings of joins, graceful leaves,
host failures, moves, link flaps and packet sends against one network,
checking after every step that

* the live members form a single consistent successor ring,
* every joined, reachable host is routable from anywhere,
* the network's host bookkeeping matches the routers' resident state.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.intra.network import IntraDomainNetwork
from repro.topology.isp import synthetic_isp


class RingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        topo = synthetic_isp(n_routers=24, seed=99)
        self.net = IntraDomainNetwork(topo, seed=99)
        self.flapped_link = None

    # -- rules -----------------------------------------------------------------

    @rule()
    def join_one(self):
        if self.net.n_hosts < 60:
            self.net.join_host(self.net.next_planned_host())

    @precondition(lambda self: self.net.n_hosts > 2)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6))
    def fail_one(self, pick):
        names = sorted(self.net.hosts)
        self.net.fail_host(names[pick % len(names)])

    @precondition(lambda self: self.net.n_hosts > 2)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6))
    def leave_one(self, pick):
        names = sorted(self.net.hosts)
        self.net.leave_host(names[pick % len(names)])

    @precondition(lambda self: self.net.n_hosts > 2)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6),
          where=st.integers(min_value=0, max_value=10 ** 6))
    def move_one(self, pick, where):
        names = sorted(self.net.hosts)
        mover = names[pick % len(names)]
        routers = self.net.topology.edge_routers()
        target = routers[where % len(routers)]
        if target != self.net.hosts[mover].router \
                and self.net.lsmap.is_router_up(target):
            self.net.move_host(mover, target)

    @precondition(lambda self: self.net.n_hosts >= 2)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6))
    def send_one(self, pick):
        names = sorted(self.net.hosts)
        a = names[pick % len(names)]
        b = names[(pick // 7 + 1) % len(names)]
        if a != b:
            assert self.net.send(a, b).delivered

    @precondition(lambda self: True)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6))
    def flap_link(self, pick):
        if self.flapped_link is not None:
            self.net.restore_link(*self.flapped_link)
            self.flapped_link = None
            return
        edges = sorted(self.net.lsmap.links())
        a, b = edges[pick % len(edges)]
        self.net.fail_link(a, b)
        if len(self.net.lsmap.components()) > 1:
            self.net.restore_link(a, b)  # keep the machine connected
        else:
            self.flapped_link = (a, b)

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def ring_is_consistent(self):
        self.net.check_ring()

    @invariant()
    def bookkeeping_matches_router_state(self):
        for name, vn in self.net.hosts.items():
            router = self.net.routers[vn.router]
            assert router.hosts_id(vn.id)
            assert self.net.vn_index.get(vn.id) is vn

    @invariant()
    def primary_successors_are_live(self):
        # Deep group entries may go stale between repairs (the lazy
        # invariant-(b) teardown cleans them on use), but the primary
        # successor — what the ring's correctness rests on — must always
        # name a live identifier.
        for vn in self.net.ring_members():
            primary = vn.primary_successor()
            if primary is not None:
                assert primary.dest_id in self.net.vn_index


TestRingMachine = RingMachine.TestCase
TestRingMachine.settings = settings(max_examples=25,
                                    stateful_step_count=30,
                                    deadline=None)
