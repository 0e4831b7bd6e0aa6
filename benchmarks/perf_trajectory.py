#!/usr/bin/env python
"""Scaling sweep past 10k hosts → ``BENCH_scaling.json``.

Runs the interdomain and intradomain simulators over growing host
populations (default top end: 10,000 interdomain hosts), recording for
each population the join and send throughput (ops/sec), wall-clock
seconds, peak RSS, and the full hot-path perf-counter dump
(:mod:`repro.util.perf`).  The JSON this writes is the repo's
machine-checkable performance trajectory: CI runs ``--quick`` and fails
if the required keys are missing, and successive PRs can diff the
full-scale numbers.

Usage::

    PYTHONPATH=src python benchmarks/perf_trajectory.py          # full sweep
    PYTHONPATH=src python benchmarks/perf_trajectory.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.inter.network import InterDomainNetwork          # noqa: E402
from repro.inter.policy import JoinStrategy                 # noqa: E402
from repro.intra.network import IntraDomainNetwork          # noqa: E402
from repro.topology.asgraph import synthetic_as_graph       # noqa: E402
from repro.topology.isp import synthetic_isp                # noqa: E402
from repro.util import perf                                 # noqa: E402

INTER_POPULATIONS = (500, 1000, 2500, 5000, 10000)
INTRA_POPULATIONS = (500, 1000, 2500, 5000, 10000)
QUICK_POPULATIONS = (100, 300)
#: Opt-in (``--extended``) top end for the interdomain sweep.
EXTENDED_INTER_POPULATIONS = INTER_POPULATIONS + (25000,)

#: (scenario, arrival-rate multiplier) points for the workload sweep —
#: the same builtin churn scenario driven harder and harder.
WORKLOAD_SWEEP = (1.0, 2.0, 4.0, 8.0)
QUICK_WORKLOAD_SWEEP = (1.0, 2.0)

#: Keys every BENCH_scaling.json must carry (checked by CI and by this
#: script itself after writing).
REQUIRED_TOP_KEYS = ("generated_unix", "quick", "peak_rss_mb",
                     "interdomain", "intradomain", "workload")
REQUIRED_ROW_KEYS = ("hosts", "join_seconds", "joins_per_sec",
                     "send_seconds", "sends_per_sec", "perf")
REQUIRED_WORKLOAD_ROW_KEYS = ("scenario", "rate_multiplier", "events_run",
                              "events_per_sec", "wall_seconds",
                              "delivery_rate", "min_window_delivery_rate",
                              "final_live_hosts")


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _throughput_row(n_hosts: int, join_fn, send_fn, n_sends: int,
                    settle_fn=None, warm_fn=None) -> dict:
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
    if settle_fn is not None:
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


def _snap_path(snapshot_dir, section: str, n_hosts: int, seed: int):
    if snapshot_dir is None:
        return None
    return os.path.join(snapshot_dir,
                        "{}-{}h-s{}.snap".format(section, n_hosts, seed))


def _finish_snapshot_row(row: dict, net, snap_path, warm: bool,
                         section: str, construct_seconds: float = 0.0
                         ) -> None:
    """Cold runs save a snapshot (stamping their build time into the
    header meta); warm runs annotate the row with the load-vs-build
    speedup read back from that meta.

    ``build_seconds`` is everything a warm start avoids: topology +
    network construction (outside the join timing) plus the join phase.
    """
    if snap_path is None:
        return
    from repro import snapshot
    if not warm:
        build = round(construct_seconds + row["join_seconds"], 3)
        snapshot.save(net, snap_path,
                      meta={"build_seconds": build,
                            "section": section, "hosts": row["hosts"]})
        row["warm_start"] = False
        return
    cold = snapshot.describe(snap_path)["meta"].get("build_seconds")
    row["warm_start"] = True
    row["snapshot_load_seconds"] = row["join_seconds"]
    row["cold_build_seconds"] = cold
    if cold and row["join_seconds"]:
        row["snapshot_speedup"] = round(cold / row["join_seconds"], 2)


def _warm_join_fn(holder: dict, snap_path: str):
    """A join-phase stand-in that loads the snapshot instead of building:
    the row's join timing becomes the warm-start cost, and the load is
    also visible in the perf dump as ``bench.snapshot_load``."""
    def load(_n_hosts):
        from repro import snapshot
        with perf.timed("bench.snapshot_load"):
            holder["net"] = snapshot.load(snap_path)
    return load


def sweep_inter(populations, n_ases: int = 100, n_sends: int = 2000,
                seed: int = 0, snapshot_dir=None) -> list:
    rows = []
    for n_hosts in populations:
        snap_path = _snap_path(snapshot_dir, "inter", n_hosts, seed)
        warm = snap_path is not None and os.path.exists(snap_path)
        holder = {}
        construct_seconds = 0.0
        if warm:
            join_fn, settle_fn = _warm_join_fn(holder, snap_path), None
        else:
            t0 = time.perf_counter()
            asg = synthetic_as_graph(n_ases=n_ases, seed=seed)
            holder["net"] = InterDomainNetwork(
                asg, n_fingers=8, seed=seed,
                strategy=JoinStrategy.MULTIHOMED)
            construct_seconds = time.perf_counter() - t0
            join_fn = holder["net"].join_random_hosts
            settle_fn = holder["net"].flush_indexes

        def send_many(count):
            net = holder["net"]
            delivered = 0
            for _ in range(count):
                a, b = net.random_host_pair()
                delivered += net.send(a, b).delivered
            if delivered < count * 0.99:
                raise AssertionError(
                    "interdomain delivery degraded: {}/{}".format(
                        delivered, count))

        row = _throughput_row(n_hosts, join_fn, send_many, n_sends,
                              settle_fn=settle_fn,
                              warm_fn=lambda: holder["net"].bgp.warm())
        _finish_snapshot_row(row, holder["net"], snap_path, warm, "inter",
                             construct_seconds)
        rows.append(row)
        print("  inter {:>6} hosts: {:>7.1f} joins/s  {:>7.1f} sends/s  "
              "rss {:.0f} MiB{}".format(
                  n_hosts, row["joins_per_sec"], row["sends_per_sec"],
                  row["peak_rss_mb"],
                  "  [warm {:.2f}s = {:.1f}x]".format(
                      row["snapshot_load_seconds"],
                      row.get("snapshot_speedup", 0)) if warm else ""))
    return rows


def sweep_intra(populations, n_routers: int = 67, n_sends: int = 2000,
                seed: int = 0, snapshot_dir=None) -> list:
    rows = []
    for n_hosts in populations:
        snap_path = _snap_path(snapshot_dir, "intra", n_hosts, seed)
        warm = snap_path is not None and os.path.exists(snap_path)
        holder = {}
        construct_seconds = 0.0
        if warm:
            join_fn, settle_fn = _warm_join_fn(holder, snap_path), None
        else:
            t0 = time.perf_counter()
            topo = synthetic_isp(n_routers=n_routers, seed=seed,
                                 name="AS3967")
            holder["net"] = IntraDomainNetwork(topo, seed=seed)
            construct_seconds = time.perf_counter() - t0
            join_fn = holder["net"].join_random_hosts
            settle_fn = holder["net"].flush_indexes

        def send_many(count):
            net = holder["net"]
            delivered = 0
            for _ in range(count):
                a, b = net.random_host_pair()
                delivered += net.send(a, b).delivered
            if delivered < count * 0.99:
                raise AssertionError(
                    "intradomain delivery degraded: {}/{}".format(
                        delivered, count))

        row = _throughput_row(n_hosts, join_fn, send_many, n_sends,
                              settle_fn=settle_fn)
        _finish_snapshot_row(row, holder["net"], snap_path, warm, "intra",
                             construct_seconds)
        rows.append(row)
        print("  intra {:>6} hosts: {:>7.1f} joins/s  {:>7.1f} sends/s  "
              "rss {:.0f} MiB{}".format(
                  n_hosts, row["joins_per_sec"], row["sends_per_sec"],
                  row["peak_rss_mb"],
                  "  [warm {:.2f}s = {:.1f}x]".format(
                      row["snapshot_load_seconds"],
                      row.get("snapshot_speedup", 0)) if warm else ""))
    return rows


def sweep_workload(multipliers, scenario_name: str = "steady-churn",
                   seed: int = 0) -> list:
    """Drive the builtin churn scenario at increasing arrival rates and
    record event throughput plus steady-churn delivery rate."""
    from repro.workload import builtin_scenario, run_scenario

    rows = []
    for mult in multipliers:
        scenario = builtin_scenario(scenario_name, seed=seed)
        for phase in scenario.phases:
            if phase.churn is not None:
                phase.churn.arrival_rate *= mult
            if phase.traffic is not None:
                phase.traffic.rate *= mult
        result = run_scenario(scenario)
        summary = result.summary
        row = {
            "scenario": scenario_name,
            "rate_multiplier": mult,
            "events_run": result.totals["events_run"],
            "events_per_sec": round(result.events_per_sec, 1),
            "wall_seconds": round(result.wall_seconds, 3),
            "delivery_rate": summary["delivery_rate"],
            "min_window_delivery_rate": summary["min_window_delivery_rate"],
            "joins": result.totals["joins"],
            "departures": result.totals["departures"],
            "final_live_hosts": result.totals["final_live_hosts"],
            "peak_rss_mb": round(peak_rss_mb(), 1),
        }
        rows.append(row)
        print("  workload x{:<4} {:>7} events: {:>8.1f} events/s  "
              "delivery {}  hosts {}".format(
                  mult, row["events_run"], row["events_per_sec"],
                  "-" if row["delivery_rate"] is None
                  else "{:.3f}".format(row["delivery_rate"]),
                  row["final_live_hosts"]))
    return rows


def write_bench_metrics(path: str, inter_rows: list, intra_rows: list,
                        workload_rows: list) -> int:
    """Re-emit the sweep as a window-metrics JSONL stream (one window
    per bench row) through :class:`repro.obs.metrics.MetricsExporter`,
    so ``repro report --metrics`` can render the trajectory alongside a
    live run's stream.  Each row's perf dump is folded cumulatively into
    a scratch registry; the exporter's per-window deltas then recover
    exactly that row's counters and timer activity.  Wall-clock fields
    stay in (``deterministic=False``) — bench rows are wall-clock
    measurements by nature."""
    from repro.obs.metrics import MetricsExporter
    from repro.util.perf import PerfRegistry

    registry = PerfRegistry()
    t = 0
    with MetricsExporter(registry, path, deterministic=False,
                         source="perf_trajectory") as exporter:
        for section, rows in (("interdomain", inter_rows),
                              ("intradomain", intra_rows)):
            for row in rows:
                snap = row.get("perf", {})
                for name, value in snap.get("counters", {}).items():
                    registry.counter(name, value)
                for name, timer in snap.get("timers", {}).items():
                    cell = registry.timers.setdefault(name, [0, 0.0, 0.0])
                    cell[0] += timer["calls"]
                    cell[1] += timer["seconds"]
                    cell[2] = max(cell[2], timer.get("max", 0.0))
                for name, value in snap.get("gauges", {}).items():
                    registry.gauge(name, value)
                t += 1
                exporter.emit_window(float(t), extra={
                    "section": section,
                    "hosts": row["hosts"],
                    "joins_per_sec": row["joins_per_sec"],
                    "sends_per_sec": row["sends_per_sec"],
                })
        for row in workload_rows:
            t += 1
            exporter.emit_window(float(t), extra={
                "section": "workload",
                "scenario": row["scenario"],
                "rate_multiplier": row["rate_multiplier"],
                "events_per_sec": row["events_per_sec"],
            })
        return exporter.windows_emitted


def validate(data: dict) -> None:
    """Raise ``ValueError`` unless ``data`` has the required shape."""
    for key in REQUIRED_TOP_KEYS:
        if key not in data:
            raise ValueError("BENCH_scaling.json missing key {!r}".format(key))
    for section in ("interdomain", "intradomain"):
        rows = data[section]
        if not rows:
            raise ValueError("section {!r} is empty".format(section))
        for row in rows:
            for key in REQUIRED_ROW_KEYS:
                if key not in row:
                    raise ValueError("row in {!r} missing key {!r}".format(
                        section, key))
    if not data["workload"]:
        raise ValueError("section 'workload' is empty")
    for row in data["workload"]:
        for key in REQUIRED_WORKLOAD_ROW_KEYS:
            if key not in row:
                raise ValueError(
                    "row in 'workload' missing key {!r}".format(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small populations for CI smoke runs")
    parser.add_argument("--extended", action="store_true",
                        help="opt-in 25k-host interdomain sweep")
    parser.add_argument("--out", default=None,
                        help="output path (default: repo-root "
                             "BENCH_scaling.json)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="also emit the sweep as a window-metrics "
                             "JSONL stream (one window per bench row, "
                             "renderable by 'repro report --metrics')")
    parser.add_argument("--snapshot-dir", default=None, metavar="DIR",
                        help="warm-start cache: first run saves a "
                             "snapshot per population, later runs load "
                             "it instead of rebuilding and record the "
                             "speedup in each row")
    args = parser.parse_args(argv)
    if args.snapshot_dir is not None:
        os.makedirs(args.snapshot_dir, exist_ok=True)

    inter_pops = (QUICK_POPULATIONS if args.quick
                  else EXTENDED_INTER_POPULATIONS if args.extended
                  else INTER_POPULATIONS)
    intra_pops = QUICK_POPULATIONS if args.quick else INTRA_POPULATIONS
    out_path = args.out or os.path.join(os.path.dirname(__file__), "..",
                                        "BENCH_scaling.json")

    workload_mults = (QUICK_WORKLOAD_SWEEP if args.quick
                      else WORKLOAD_SWEEP)

    print("interdomain sweep (populations {}):".format(inter_pops))
    inter_rows = sweep_inter(inter_pops, snapshot_dir=args.snapshot_dir)
    print("intradomain sweep (populations {}):".format(intra_pops))
    intra_rows = sweep_intra(intra_pops, snapshot_dir=args.snapshot_dir)
    print("workload sweep (rate multipliers {}):".format(workload_mults))
    workload_rows = sweep_workload(workload_mults)

    data = {
        "generated_unix": int(time.time()),
        "quick": bool(args.quick),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "interdomain": inter_rows,
        "intradomain": intra_rows,
        "workload": workload_rows,
    }
    validate(data)
    with open(out_path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote {} (peak RSS {:.0f} MiB)".format(
        os.path.normpath(out_path), data["peak_rss_mb"]))
    if args.metrics_out is not None:
        windows = write_bench_metrics(args.metrics_out, inter_rows,
                                      intra_rows, workload_rows)
        print("wrote {} ({} windows)".format(args.metrics_out, windows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
