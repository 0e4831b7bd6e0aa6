"""Stateful property testing of the interdomain hierarchy: the one tape
machine of ``tests/test_stateful_ring.py`` over ``ring_sweep.py``'s
``inter`` row (one join strategy per drawn seed)."""

from hypothesis import settings

from tests.conftest import profile_examples
from tests.test_stateful_ring import tape_machine

TestInternetMachine = tape_machine("inter").TestCase
TestInternetMachine.settings = settings(max_examples=profile_examples(12),
                                        stateful_step_count=30,
                                        deadline=None)
