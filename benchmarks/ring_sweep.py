#!/usr/bin/env python3
"""Ring-repair tripwire: seeded fault tapes on both ROFL kinds, the
kind's check after every operation, one state hash per kind and seed.

    python3 benchmarks/ring_sweep.py --seeds 0-59

``KINDS`` has one row per kind: builder, hosts joined first, tape length,
mix of operations, the check run after every operation and the sends
that must arrive.  Each operation is a ``Network`` contract call whose
victim :func:`step` picks, drawn by ``random.Random(seed).choice`` from
the mix, so the mix's order and multiplicity fix every draw (``step``'s
``move_host`` is drawn by ``tests/test_stateful_ring.py``'s machine
alone).  ``intra``: a 40-router ISP, 30 % ephemeral hosts, 150 joins, 80
operations.  ``inter``: a 40-AS graph, six fingers, 64-entry caches, one
join strategy per seed (``list(JoinStrategy)[seed % 4]``: mixing
strategies breaks rings on its own, ROADMAP item 16), ``bloom`` peering
on every other block of four seeds, 80 joins, 40 operations.

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
        delivered = 0
        for _ in range(SENDS):
            a, b = net.random_host_pair()
            arrived = net.send(a, b).delivered
            assert arrived or not KINDS[net.kind].arrives(net, a, b), \
                "send {} -> {} was not delivered".format(a, b)
            delivered += arrived
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
    elif op in ("fail_host", "leave_host", "move_host"):
        if not net.hosts:
            return op + " (no hosts)"
        args = (rng.choice(sorted(net.hosts)),)
        if op == "move_host":       # to another edge router of its component
            home = net.hosts[args[0]].router
            targets = [r for r in net.topology.edge_routers()
                       if r != home and net.lsmap.reachable(home, r)]
            if not targets:
                return op + " (no other edge router in its component)"
            args += (rng.choice(targets),)
    return "{} {} -> {}".format(op, args, getattr(net, op)(*args))


def check_intra(net) -> None:
    """``net.check()``; the host table, router residency and ``vn_index``
    agree; every ring member's primary successor names a live ID (deeper
    entries may go stale until a walk tears them down)."""
    net.check()
    for name, vn in net.hosts.items():
        assert net.routers[vn.router].hosts_id(vn.id), name
        assert net.vn_index.get(vn.id) is vn, name
    for vn in net.ring_members():
        primary = vn.primary_successor()
        assert primary is None or primary.dest_id in net.vn_index, vn


def check_inter(net) -> None:
    """``net.check()`` (each member's successor); no join lookup disagreed
    with the ring registry; and the mirror of the successor check: at
    every level of two or more members, the closest ``pred_by_level``
    target at levels inside it, counting members of its ring only, is
    the member's ring predecessor."""
    net.check()
    assert net.lookup_mismatches == 0, \
        "{} join lookups disagreed with the ring registry".format(
            net.lookup_mismatches)
    mask = net.space.mask
    for level, ring in net.rings.items():
        members, vns = ring.key_values(), ring.payloads()
        inside = {None: True}       # pred_by_level key -> lies inside level
        for i, own in enumerate(members if len(members) > 1 else ()):
            preds = []
            for lvl, ptr in vns[own].pred_by_level.items():
                if lvl not in inside:
                    inside[lvl] = net.policy.level_contained_in(lvl, level)
                if inside[lvl] and ptr.dest_id.value in vns:
                    preds.append(ptr.dest_id)
            closest = min(preds, key=lambda dest: (own - dest.value) & mask,
                          default=None)
            assert closest == vns[members[i - 1]].id, \
                "level {}: {} predecessor {} != {}".format(
                    level, vns[own].id, closest, vns[members[i - 1]].id)


def intra_arrives(net, a: str, b: str) -> bool:
    """Between stable hosts on routers of one live component."""
    src, dst = net.hosts[a], net.hosts[b]
    return not (src.ephemeral or dst.ephemeral) \
        and net.lsmap.reachable(src.router, dst.router)


def inter_arrives(net, a: str, b: str) -> bool:
    """Always, but to an ephemeral ID under ``bloom`` peering, which
    reaches only its home's and the root's rings (ROADMAP item 4(d))."""
    return net.peering_mode != "bloom" or net.hosts[b].strategy != "ephemeral"


class Kind(NamedTuple):
    build: Callable[[int], object]
    hosts: int
    ops: int
    mix: Tuple[str, ...]
    check: Callable
    arrives: Callable


KINDS = {
    "intra": Kind(
        lambda seed: IntraDomainNetwork(
            synthetic_isp(n_routers=40, seed=seed), seed=seed,
            ephemeral_fraction=0.3),
        hosts=150, ops=80,
        mix=("fail_link", "fail_link", "fail_link", "restore",
             "fail_router", "fail_router", "partition_pop", "fail_host",
             "leave_host", "join_next", "join_next", "send"),
        check=check_intra, arrives=intra_arrives),
    "inter": Kind(
        lambda seed: InterDomainNetwork(
            synthetic_as_graph(n_ases=40, seed=seed), seed=seed,
            n_fingers=6, cache_entries=64,
            strategy=list(JoinStrategy)[seed % 4],
            peering_mode="bloom" if seed // 4 % 2 else "virtual_as"),
        hosts=80, ops=40,
        mix=("fail_as", "fail_as", "restore", "join_next", "join_next",
             "send"),
        check=check_inter, arrives=inter_arrives),
}


def run_seed(kind: str, seed: int, log: List[str]) -> str:
    """One kind's tape at one seed; returns the final state hash."""
    row = KINDS[kind]
    net = row.build(seed)
    net.join_random_hosts(row.hosts)
    row.check(net)
    rng = random.Random(seed)
    down: List[tuple] = []
    for i in range(row.ops):
        op = rng.choice(row.mix)
        log.append("{:2d} {}".format(i, op))    # named first: it may raise
        log[-1] = "{:2d} {}".format(i, step(net, rng, op, down))
        row.check(net)
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
