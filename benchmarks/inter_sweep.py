#!/usr/bin/env python3
"""Interdomain ring-repair tripwire: random stub-failure tapes on one AS
graph, a ring check after every operation, and one state hash per seed.

    python3 benchmarks/inter_sweep.py --seeds 0-59

Per seed ``s``: 40 ASes (``synthetic_as_graph(n_ases=40, seed=s)``), six
fingers, a 64-entry pointer cache, one join strategy for every host
(``list(JoinStrategy)[s % 4]``: mixing strategies breaks rings on its own,
ROADMAP item 2) and the ``bloom`` peering mode on every other block of four
seeds; 80 joins, then 40 operations drawn by ``random.Random(s).choice``
from stub failures, restores, joins and batches of sends, each followed by
``check_rings()``.  At the end no join lookup may have disagreed with the
ring registry.  Prints ``seed state_hash[:16]`` per seed; on any exception
prints the seed's last operations and exits 1.  Standard library only;
about 0.2 s per seed on a 2-core x86 VM.  ``tests/golden_inter_sweep.json``
pins seeds 0-15, so a change that moves any interdomain ring state shows
here.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import traceback
from typing import Hashable, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.inter.network import InterDomainNetwork  # noqa: E402
from repro.inter.policy import JoinStrategy  # noqa: E402
from repro.snapshot.store import state_hash  # noqa: E402
from repro.topology.asgraph import synthetic_as_graph  # noqa: E402

ASES, FINGERS, CACHE, HOSTS, OPS, SENDS = 40, 6, 64, 80, 40, 20
CHOICES = ["fail", "fail", "restore", "join", "join", "send"]


def build(seed: int) -> InterDomainNetwork:
    net = InterDomainNetwork(
        synthetic_as_graph(n_ases=ASES, seed=seed), seed=seed,
        n_fingers=FINGERS, cache_entries=CACHE,
        strategy=list(JoinStrategy)[seed % 4],
        peering_mode="bloom" if seed // 4 % 2 else "virtual_as")
    net.join_random_hosts(HOSTS)
    return net


def step(net: InterDomainNetwork, rng: random.Random, op: str,
         failed: List[Hashable]) -> str:
    """Apply one operation; returns what it did, for the failure log."""
    if op == "fail":
        stubs = [asn for asn in sorted(net.asg.stubs(), key=str)
                 if net.as_is_up(asn) and net.ases[asn].hosted]
        if not stubs:
            return "fail (no live stub hosts IDs)"
        asn = rng.choice(stubs)
        messages = net.fail_as(asn)
        failed.append(asn)
        return "fail {} ({} msgs)".format(asn, messages)
    if op == "restore":
        if not failed:
            return "restore (none failed)"
        asn = failed.pop(rng.randrange(len(failed)))
        net.restore_as(asn)
        return "restore {}".format(asn)
    if op == "join":
        return "join {}".format(net.join_next())
    delivered = 0
    for _ in range(SENDS):
        a, b = net.random_host_pair()
        delivered += net.send(a, b).delivered
    return "send {}/{}".format(delivered, SENDS)


def run_seed(seed: int, log: List[str]) -> str:
    """One seed's tape; returns the final state hash."""
    net = build(seed)
    net.check_rings()
    rng = random.Random(seed)
    failed: List[Hashable] = []
    for i in range(OPS):
        op = rng.choice(CHOICES)
        log.append("{:2d} {}".format(i, op))    # named first: it may raise
        log[-1] = "{:2d} {}".format(i, step(net, rng, op, failed))
        net.check_rings()
    assert net.lookup_mismatches == 0, \
        "{} join lookups disagreed with the ring registry".format(
            net.lookup_mismatches)
    return state_hash(net)


def parse_seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-59"),
                        help="inclusive range A-B (default 0-59)")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        log: List[str] = []
        try:
            digest = run_seed(seed, log)
        except Exception:
            print("seed {} failed after:".format(seed))
            for line in log[-8:]:
                print("  " + line)
            traceback.print_exc(file=sys.stdout)
            return 1
        print(seed, digest[:16], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
