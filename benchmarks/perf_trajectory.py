#!/usr/bin/env python
"""Population sweep past 10k hosts → ``BENCH_scaling.json`` (git-ignored).

The one thing the repo benchmark (``bench/``, fixed at 5 000 hosts) does
not do: run interdomain and intradomain ROFL over *growing* populations
(500 → 10 000 hosts; ``--extended`` adds 25 000 interdomain) and record
per population the join and send throughput, peak RSS and the full
perf-registry dump (:mod:`repro.util.perf`, timers included).
``benchmarks/trace_overhead.py`` re-runs the quick sweep against the
output and ``repro report --bench`` renders it; being wall-clock numbers
of one box at one commit, it is never committed.

Usage::

    PYTHONPATH=src python benchmarks/perf_trajectory.py          # full sweep
    PYTHONPATH=src python benchmarks/perf_trajectory.py --quick  # CI smoke
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import build_network                             # noqa: E402
from repro.util import perf                                 # noqa: E402

POPULATIONS = (500, 1000, 2500, 5000, 10000)

#: kind → its section of the output, and its ``build_network`` keywords.
SECTIONS = {"inter": "interdomain", "intra": "intradomain"}
NETWORKS = {"inter": dict(n_ases=100, n_fingers=8),
            "intra": dict(n_routers=67, name="AS3967")}

#: Keys every row must carry (checked by CI and by this script itself).
REQUIRED_ROW_KEYS = ("hosts", "join_seconds", "joins_per_sec",
                     "send_seconds", "sends_per_sec", "perf")


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _throughput_row(n_hosts: int, join_fn, send_fn, n_sends: int,
                    settle_fn, warm_fn=None) -> dict:
    """Time a join phase then a send phase and return one bench row.

    ``settle_fn`` runs *inside* the join timing — deferred index
    maintenance caused by the joins is charged to the join phase, not to
    the first packets sent afterwards.  ``warm_fn`` runs *between* the
    phases, outside both timings: it is for measurement-oracle work (the
    BGP baseline tables behind the stretch denominator) that belongs to
    neither protocol phase; its cost still shows up in the perf dump
    under ``bench.oracle_warm``.
    """
    perf.reset()
    # Each phase starts garbage-free: a major collection of the previous
    # phase's garbage landing inside the short send window would distort
    # the throughput numbers.
    gc.collect()
    t0 = time.perf_counter()
    join_fn(n_hosts)
    settle_fn()
    join_seconds = time.perf_counter() - t0
    if warm_fn is not None:
        with perf.timed("bench.oracle_warm"):
            warm_fn()
    gc.collect()
    t0 = time.perf_counter()
    send_fn(n_sends)
    send_seconds = time.perf_counter() - t0
    return {
        "hosts": n_hosts,
        "join_seconds": round(join_seconds, 3),
        "joins_per_sec": round(n_hosts / join_seconds, 1),
        "send_seconds": round(send_seconds, 3),
        "sends_per_sec": round(n_sends / send_seconds, 1),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "perf": perf.snapshot(),
    }


def sweep(kind: str, populations, n_sends: int = 2000, seed: int = 0):
    """Yield one row per population, each on a fresh ``kind`` network (the
    100-AS internet or the 67-router ISP); ≥ 99 % of sends must deliver."""
    for n_hosts in populations:
        net = build_network(kind, seed, **NETWORKS[kind])

        def send_many(count):
            delivered = 0
            for _ in range(count):
                delivered += net.send(*net.random_host_pair()).delivered
            if delivered < count * 0.99:
                raise AssertionError("{} delivery degraded: {}/{}".format(
                    SECTIONS[kind], delivered, count))

        row = _throughput_row(
            n_hosts, net.join_random_hosts, send_many, n_sends,
            settle_fn=net.flush_indexes,
            warm_fn=net.bgp.warm if kind == "inter" else None)
        print("  {} {hosts:>6} hosts: {joins_per_sec:>7.1f} joins/s  "
              "{sends_per_sec:>7.1f} sends/s  rss {peak_rss_mb:.0f} MiB"
              .format(kind, **row))
        yield row


def validate(data: dict) -> None:
    """Raise ``ValueError`` unless both sections of ``data`` have rows and
    every row has the required keys."""
    for section in SECTIONS.values():
        if not data.get(section):
            raise ValueError("section {!r} is empty".format(section))
        for row in data[section]:
            missing = [key for key in REQUIRED_ROW_KEYS if key not in row]
            if missing:
                raise ValueError("{} row lacks {}".format(section, missing))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small populations for CI smoke runs")
    parser.add_argument("--extended", action="store_true",
                        help="opt-in 25k-host interdomain sweep")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "BENCH_scaling.json"),
        help="output path (default: repo-root BENCH_scaling.json)")
    args = parser.parse_args(argv)
    data = {"generated_unix": int(time.time()), "quick": bool(args.quick)}
    for kind, section in SECTIONS.items():
        extra = (25000,) if args.extended and kind == "inter" else ()
        pops = (100, 300) if args.quick else POPULATIONS + extra
        print("{} sweep (populations {}):".format(section, pops))
        data[section] = list(sweep(kind, pops))
    data["peak_rss_mb"] = round(peak_rss_mb(), 1)
    validate(data)
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote", os.path.normpath(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
