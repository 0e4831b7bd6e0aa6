#!/usr/bin/env python3
"""Ring-repair tripwire: seeded fault tapes on both ROFL kinds, a ring
check after every operation, one state hash per kind and seed.

    python3 benchmarks/ring_sweep.py --seeds 0-59

``KINDS`` has one row per kind: builder, hosts joined first, tape length,
mix of operations and end-of-tape check.  Each operation is a ``Network``
contract call followed by ``net.check()``, drawn by
``random.Random(seed).choice`` from the mix, so the mix's order and
multiplicity fix every draw.  ``intra``: a 40-router ISP, 30 % ephemeral
hosts, 150 joins, 80 operations.  ``inter``: a 40-AS graph, six fingers,
64-entry caches, one join strategy per seed (``list(JoinStrategy)[seed %
4]``: mixing strategies breaks rings on its own, ROADMAP item 2),
``bloom`` peering on every other block of four seeds, 80 joins, 40
operations, and at the end no join lookup may have disagreed with the
ring registry.

Prints ``kind seed state_hash[:16]``; on any exception prints the seed's
last operations and exits 1.  Standard library only; about 0.35 s per seed
(both kinds) on a 2-core x86 VM.  ``tests/golden_ring_sweep.json`` pins
``intra`` seeds 0-31 and ``tests/golden_inter_sweep.json`` ``inter``
seeds 0-15, so a repair change that moves any ring state shows here.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import traceback
from typing import Callable, List, NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.inter.network import InterDomainNetwork  # noqa: E402
from repro.inter.policy import JoinStrategy  # noqa: E402
from repro.intra.network import IntraDomainNetwork  # noqa: E402
from repro.snapshot.store import state_hash  # noqa: E402
from repro.topology.asgraph import synthetic_as_graph  # noqa: E402
from repro.topology.isp import synthetic_isp  # noqa: E402

SENDS, MIN_LIVE = 20, 12


def step(net, rng: random.Random, op: str, down: List[tuple]) -> str:
    """Draw the victim of one ``Network`` call and make it; returns what it
    did, for the failure log.  ``down`` holds a restore call and its
    arguments for each cut link and failed AS."""
    if op == "restore":
        if not down:
            return "restore (none down)"
        call, *args = down.pop(rng.randrange(len(down)))
        call(*args)
        return "{} {}".format(call.__name__, args)
    if op == "send":
        delivered = sum(net.send(*net.random_host_pair()).delivered
                        for _ in range(SENDS))
        return "send {}/{}".format(delivered, SENDS)
    args: tuple = ()
    if op == "fail_link":
        args = rng.choice(sorted(net.lsmap.links()))
        down.append((net.restore_link, *args))
    elif op == "fail_as":
        stubs = [asn for asn in sorted(net.asg.stubs(), key=str)
                 if net.as_is_up(asn) and net.ases[asn].hosted]
        if not stubs:
            return "fail_as (no live stub hosts IDs)"
        args = (rng.choice(stubs),)
        down.append((net.restore_as, *args))
    elif op == "fail_router":
        live = sorted(net.lsmap.live_routers())
        if len(live) <= MIN_LIVE:
            return "fail_router (too few live)"
        args = (rng.choice(live),)
    elif op == "partition_pop":
        args = (rng.choice(sorted(net.topology.pops)),)
    elif op in ("fail_host", "leave_host"):
        if not net.hosts:
            return op + " (no hosts)"
        args = (rng.choice(sorted(net.hosts)),)
    return "{} {} -> {}".format(op, args, getattr(net, op)(*args))


def no_lookup_mismatch(net):
    assert net.lookup_mismatches == 0, \
        "{} join lookups disagreed with the ring registry".format(
            net.lookup_mismatches)


class Kind(NamedTuple):
    build: Callable[[int], object]
    hosts: int
    ops: int
    mix: Tuple[str, ...]
    end: Callable = lambda net: None


KINDS = {
    "intra": Kind(
        lambda seed: IntraDomainNetwork(
            synthetic_isp(n_routers=40, seed=seed), seed=seed,
            ephemeral_fraction=0.3),
        hosts=150, ops=80,
        mix=("fail_link", "fail_link", "fail_link", "restore",
             "fail_router", "fail_router", "partition_pop", "fail_host",
             "leave_host", "join_next", "join_next", "send")),
    "inter": Kind(
        lambda seed: InterDomainNetwork(
            synthetic_as_graph(n_ases=40, seed=seed), seed=seed,
            n_fingers=6, cache_entries=64,
            strategy=list(JoinStrategy)[seed % 4],
            peering_mode="bloom" if seed // 4 % 2 else "virtual_as"),
        hosts=80, ops=40,
        mix=("fail_as", "fail_as", "restore", "join_next", "join_next",
             "send"),
        end=no_lookup_mismatch),
}


def run_seed(kind: str, seed: int, log: List[str]) -> str:
    """One kind's tape at one seed; returns the final state hash."""
    row = KINDS[kind]
    net = row.build(seed)
    net.join_random_hosts(row.hosts)
    net.check()
    rng = random.Random(seed)
    down: List[tuple] = []
    for i in range(row.ops):
        op = rng.choice(row.mix)
        log.append("{:2d} {}".format(i, op))    # named first: it may raise
        log[-1] = "{:2d} {}".format(i, step(net, rng, op, down))
        net.check()
    row.end(net)
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
        for kind in KINDS:
            log: List[str] = []
            try:
                digest = run_seed(kind, seed, log)
            except Exception:
                print("{} seed {} failed after:".format(kind, seed))
                for line in log[-8:]:
                    print("  " + line)
                traceback.print_exc(file=sys.stdout)
                return 1
            print(kind, seed, digest[:16], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
