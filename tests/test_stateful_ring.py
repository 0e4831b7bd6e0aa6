"""Stateful property testing of the intradomain ring: Hypothesis draws
``benchmarks/ring_sweep.py``'s ``intra`` operations plus host moves, and
the row's check runs after every step.  :func:`tape_machine` builds the
one machine for either ROFL kind."""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from tests.conftest import profile_examples
from tests.test_ring_sweep import ring_sweep


def tape_machine(kind, extra=()):
    """A drawn seed builds ``KINDS[kind]``'s network and joins its hosts;
    each step is one ``step()`` call on an operation of its mix + ``extra``
    (``step`` picks the victim and asserts delivery)."""
    row = ring_sweep.KINDS[kind]

    class TapeMachine(RuleBasedStateMachine):
        @initialize(seed=st.integers(min_value=0, max_value=2 ** 16))
        def build(self, seed):
            self.net, self.down = row.build(seed), []
            self.net.join_random_hosts(row.hosts)

        @rule(op=st.sampled_from(row.mix + extra),
              rng=st.randoms(use_true_random=False))
        def step(self, op, rng):
            ring_sweep.step(self.net, rng, op, self.down)

        @invariant()
        def check(self):
            row.check(self.net)

    return TapeMachine


TestRingMachine = tape_machine("intra", ("move_host",)).TestCase
TestRingMachine.settings = settings(max_examples=profile_examples(25),
                                    stateful_step_count=30,
                                    deadline=None)
