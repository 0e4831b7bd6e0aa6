"""The pre-PR-17 scenario-driver membership scan and Zipf pick, verbatim —
never edit (or tidy) them.

Until PR 17 ``WorkloadDriver.live_hosts()`` re-checked every live name
against ``net.hosts`` on every packet, and ``ZipfPopularity.pick`` copied
the population and let ``random.choices`` re-accumulate a normalised
weight vector kept per population size.  Both are now O(log n) per event
(membership reconciled at fault/departure sites, one growing prefix
column of raw weights); these are the answers the replacements must
agree with — same list after every event, same element and same RNG
state after every pick (``tests/test_workload_driver.py``,
``tests/test_workload_processes.py``).  The bodies below are the parent
commit's, dedented; ``self`` in the two membership functions is anything
with ``net``, ``_live`` and ``_live_set``.
"""

import random
from typing import Dict, List, Sequence

from repro.util.rng import zipf_weights
from repro.workload.processes import SpecError


def live_hosts(self) -> List[str]:
    """Join-ordered live hosts, pruned of crash/fault casualties."""
    hosts = self.net.hosts
    if len(self._live_set) != len(self._live) or any(
            name not in hosts for name in self._live):
        self._live = [name for name in self._live if name in hosts]
        self._live_set = set(self._live)
    return self._live


def note_join(self, host_name: str) -> None:
    if host_name not in self._live_set:
        self._live.append(host_name)
        self._live_set.add(host_name)


class ZipfPopularity:
    """Zipf destination popularity over an ordered live population.

    Rank is join order (oldest host = rank 1), matching the observation
    that long-lived members accumulate the most inbound traffic.  Weight
    vectors are cached per population size — churn changes the size by
    one at a time, so the cache stays small across a run.
    """

    def __init__(self, exponent: float = 1.0):
        if exponent < 0:
            raise SpecError("zipf exponent must be non-negative")
        self.exponent = exponent
        self._weights_cache: Dict[int, List[float]] = {}

    def _weights(self, n: int) -> List[float]:
        weights = self._weights_cache.get(n)
        if weights is None:
            weights = self._weights_cache[n] = zipf_weights(n, self.exponent)
        return weights

    def pick(self, rng: random.Random, population: Sequence[str]) -> str:
        if not population:
            raise ValueError("empty population")
        weights = self._weights(len(population))
        return rng.choices(list(population), weights=weights, k=1)[0]
