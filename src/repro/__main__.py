"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``figures [--full] [--only PREFIX]`` — regenerate the paper's
  evaluation figures (same as ``examples/reproduce_paper.py``).
* ``workload <scenario.json|builtin> [--seed N] [--json PATH]`` — run a
  declarative churn/traffic/fault scenario (``--list`` names builtins).
  ``--trace-out out.jsonl`` records a causal packet trace; ``--probes``
  runs live invariant probes; ``--metrics-out m.jsonl`` streams one
  JSONL line of perf-registry deltas per ``--metrics-window`` of
  virtual time (deterministic: same seed, byte-identical stream).
* ``trace`` — route packets under the ``repro.obs`` tracer and render
  each decision tree with per-hop stretch attribution; ``--scenario``
  replays a workload window instead.
* ``serve [--kind intra|inter] [--hosts N] [--snapshot PATH] [--tcp PORT]``
  — build (or warm-load) a network once and answer line-delimited JSON
  requests against it (``repro.serve``; ``--requests FILE`` scripts a
  session for tests and CI).
* ``snapshot {save,info,verify} PATH`` — checkpoint/restore of complete
  network state with canonical state hashing (``repro.snapshot``).
* ``compare-stretch [--profile ISP] [--hosts N] [--json PATH]`` — run
  the ROFL-vs-Disco (vs CMU-ETHERNET / OSPF) stretch head-to-head with
  the stretch-bound probe live; exits nonzero on any bound breach,
  probe violation, or attribution mismatch (the CI gate).
* ``report [--metrics m.jsonl] [--perf result.json] [--bench
  BENCH_scaling.json] [--compare compare_stretch.json] [--out
  report.html]`` — render telemetry artifacts into one self-contained
  HTML or markdown document (``repro.obs.report``).
* ``quickstart`` — a 30-second end-to-end tour of the intradomain system.
* ``info`` — package, paper, and inventory summary.

``--help`` lists every subcommand; an unknown subcommand exits with
status 2 and a usage message on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.harness import experiments as E
    from repro.harness import report as R
    from repro.topology.isp import TCAM_ENTRIES

    k = 3 if args.full else 1
    plan = {
        "fig5a": (lambda: E.fig5a_intra_join_overhead(
            host_counts=(10, 100, 1000 * k)), R.format_fig5a),
        "fig5b": (lambda: E.fig5b_join_overhead_cdf(n_hosts=500 * k),
                  R.format_fig5b),
        "fig5c": (lambda: E.fig5c_join_latency_cdf(n_hosts=300 * k),
                  R.format_fig5c),
        "fig6a": (lambda: E.fig6a_stretch_vs_cache(
            cache_sizes=(0, 64, 1024, TCAM_ENTRIES),
            n_hosts=800 * k, n_packets=400 * k), R.format_fig6a),
        "fig6b": (lambda: E.fig6b_load_balance(n_hosts=500 * k,
                                               n_packets=2000 * k),
                  R.format_fig6b),
        "fig6c": (lambda: E.fig6c_memory(host_counts=(10, 100, 1000 * k)),
                  R.format_fig6c),
        "fig7": (lambda: E.fig7_partition_repair(), R.format_fig7),
        "fig7b": (lambda: E.fig7b_host_failure(n_hosts=500 * k),
                  R.format_fig7b),
        "fig7c": (lambda: E.fig7c_router_recovery(n_hosts=300 * k,
                                                  n_failures=3 * k),
                  R.format_fig7c),
        "fig8a": (lambda: E.fig8a_inter_join(n_hosts=400 * k),
                  R.format_fig8a),
        "fig8b": (lambda: E.fig8b_inter_stretch(n_hosts=300 * k,
                                                n_packets=300 * k),
                  R.format_fig8b),
        "fig8c": (lambda: E.fig8c_inter_cache_stretch(n_hosts=300 * k,
                                                      n_packets=300 * k),
                  R.format_fig8c),
        "fig8d": (lambda: E.fig8d_stub_failure(n_hosts=400 * k),
                  R.format_fig8d),
        "fig8e": (lambda: E.fig8e_bloom_peering(n_hosts=300 * k,
                                                n_packets=300 * k),
                  R.format_fig8e),
        "headtohead": (lambda: E.headtohead_stretch(n_hosts=150 * k,
                                                    n_packets=300 * k),
                       R.format_headtohead),
    }
    selected = {name: entry for name, entry in plan.items()
                if args.only is None or name.startswith(args.only)}
    if not selected:
        print("no figure matches {!r}; choices: {}".format(
            args.only, ", ".join(plan)), file=sys.stderr)
        return 2
    tracer = None
    if args.trace_out is not None:
        from repro.obs import trace as obs_trace
        tracer = obs_trace.install(obs_trace.Tracer(
            sink=obs_trace.JsonlSink(args.trace_out),
            sample=args.trace_sample))
    start = time.time()
    try:
        for name, (build, render) in selected.items():
            step = time.time()
            print(render(build()))
            print("[{} took {:.1f}s]\n".format(name, time.time() - step))
    finally:
        if tracer is not None:
            from repro.obs import trace as obs_trace
            obs_trace.uninstall()
            tracer.close()
            print("trace: {} records -> {}".format(tracer.records_emitted,
                                                   args.trace_out),
                  file=sys.stderr)
    print("done in {:.1f}s".format(time.time() - start))
    return 0


def _cmd_quickstart(_args: argparse.Namespace) -> int:
    from repro import quick_intradomain

    net = quick_intradomain(n_routers=60, n_hosts=200, seed=1)
    net.check_ring()
    costs = net.stats.operation_costs("join")
    print("{} hosts joined; ring consistent; avg join {:.1f} msgs "
          "(diameter {})".format(net.n_hosts, sum(costs) / len(costs),
                                 net.topology.diameter()))
    delivered, stretches = 0, []
    for _ in range(200):
        a, b = net.random_host_pair()
        result = net.send(a, b)
        delivered += result.delivered
        if result.delivered and result.optimal_hops > 0:
            stretches.append(result.stretch)
    print("routed 200 packets: {} delivered, mean stretch {:.2f}".format(
        delivered, sum(stretches) / len(stretches)))
    report = net.partition_pop(0)
    print("PoP partition cycle: {} IDs, {} repair messages, ring "
          "reconverged".format(report.ids_in_pop, report.total_messages))
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workload import (BUILTIN_SCENARIOS, Scenario, ScenarioError,
                                builtin_scenario, run_scenario)

    if args.list:
        for name in sorted(BUILTIN_SCENARIOS):
            scenario = builtin_scenario(name)
            print("{:<16} {:>5.0f}s  {}/{}  phases={} faults={}".format(
                name, scenario.duration, scenario.network.kind,
                scenario.network.n_routers if scenario.network.kind == "intra"
                else scenario.network.n_ases,
                len(scenario.phases), len(scenario.faults)))
        return 0
    if args.scenario is None:
        print("workload: need a scenario (builtin name or JSON file); "
              "--list shows builtins", file=sys.stderr)
        return 2

    try:
        if args.scenario in BUILTIN_SCENARIOS:
            scenario = builtin_scenario(args.scenario, seed=args.seed)
        elif os.path.exists(args.scenario):
            scenario = Scenario.load(args.scenario)
            if args.seed != 0:
                scenario.seed = args.seed
        else:
            raise ScenarioError(
                "no such builtin or file: {!r} (builtins: {})".format(
                    args.scenario, ", ".join(sorted(BUILTIN_SCENARIOS))))
    except ScenarioError as exc:
        print("workload: {}".format(exc), file=sys.stderr)
        return 2

    tracer = None
    if args.trace_out is not None or args.probes:
        from repro.obs import trace as obs_trace
        sink = (obs_trace.JsonlSink(args.trace_out)
                if args.trace_out is not None else obs_trace.NullSink())
        tracer = obs_trace.Tracer(sink=sink, sample=args.trace_sample)
        obs_trace.install(tracer)
    try:
        result = run_scenario(scenario, tracer=tracer, probes=args.probes,
                              metrics_out=args.metrics_out,
                              metrics_window=args.metrics_window)
    finally:
        if tracer is not None:
            from repro.obs import trace as obs_trace
            obs_trace.uninstall()
            tracer.close()
            if args.trace_out is not None:
                print("trace: {} records ({} spans, {} sampled out) -> {}"
                      .format(tracer.records_emitted, tracer.spans_started,
                              tracer.spans_dropped, args.trace_out),
                      file=sys.stderr)
    if result.violations:
        print("probes: {} violation(s)".format(len(result.violations)),
              file=sys.stderr)
    if args.metrics_out is not None:
        print("metrics: {} window(s) -> {}".format(
            result.totals["metrics_windows"], args.metrics_out),
            file=sys.stderr)

    if args.json is not None:
        payload = json.dumps(result.deterministic_view(), indent=2,
                             sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
            print("wrote {}".format(args.json))
        return 0

    print("scenario {!r} (seed {}): {} virtual time units, {} events "
          "({:.0f} events/sec wall)".format(
              scenario.name, scenario.seed, scenario.duration,
              result.totals["events_run"], result.events_per_sec))
    print("{:>8} {:>6} {:>6} {:>9} {:>8} {:>10} {:>7}".format(
        "t", "hosts", "sent", "delivery", "stretch", "ctrl msgs", "state"))
    for row in result.samples:
        print("{:>8.1f} {:>6} {:>6} {:>9} {:>8} {:>10} {:>7}".format(
            row["t"], row["live_hosts"], row["sent"],
            "-" if row["delivery_rate"] is None
            else "{:.3f}".format(row["delivery_rate"]),
            "-" if row["mean_stretch"] is None
            else "{:.2f}".format(row["mean_stretch"]),
            row["control_messages"], row["state_entries"]))
    for record in result.fault_log:
        print("fault @{:>6.1f}: {}".format(
            record["at"], {k: v for k, v in record.items() if k != "at"}))
    summary = result.summary
    print("joins {} (+{} warmup), departures {}, delivery {}, "
          "min-window delivery {}".format(
              result.totals["joins"], result.totals["warmup_hosts"],
              result.totals["departures"],
              "-" if summary["delivery_rate"] is None
              else "{:.4f}".format(summary["delivery_rate"]),
              "-" if summary["min_window_delivery_rate"] is None
              else "{:.4f}".format(summary["min_window_delivery_rate"])))
    if "stretch" in summary:
        print("stretch mean {:.2f} p95 {:.2f}; control messages {}".format(
            summary["stretch"]["mean"], summary["stretch"]["p95"],
            summary["control_messages"]))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Route packets under the tracer and explain each decision tree."""
    from repro.obs import explain
    from repro.obs import trace as obs_trace
    from repro.obs.probes import ProbeSet

    tracer = obs_trace.Tracer(sink=obs_trace.RingBufferSink(capacity=None),
                              sample=args.trace_sample)

    if args.scenario is not None:
        # Replay a scenario window with tracing + probes on, then explain
        # the last packets it routed.
        from repro.workload import (BUILTIN_SCENARIOS, Scenario,
                                    ScenarioError, builtin_scenario,
                                    run_scenario)
        try:
            if args.scenario in BUILTIN_SCENARIOS:
                scenario = builtin_scenario(args.scenario, seed=args.seed)
            elif os.path.exists(args.scenario):
                scenario = Scenario.load(args.scenario)
                if args.seed != 0:
                    scenario.seed = args.seed
            else:
                raise ScenarioError(
                    "no such builtin or file: {!r}".format(args.scenario))
        except ScenarioError as exc:
            print("trace: {}".format(exc), file=sys.stderr)
            return 2
        with obs_trace.tracing(tracer):
            result = run_scenario(scenario, tracer=tracer, probes=True)
        records = tracer.sink.records()
        packets = explain.explain_packets(records)
        print("scenario {!r}: {} trace records, {} packet spans, "
              "{} probe violation(s)".format(
                  scenario.name, len(records), len(packets),
                  len(result.violations)))
        for violation in result.violations:
            print("  violation[{}] @{:.1f}: {}".format(
                violation["probe"], violation["t"], violation["detail"]))
        for packet in packets[-args.packets:]:
            print()
            print(packet.render())
        if args.trace_out is not None:
            obs_trace.dump_jsonl(records, args.trace_out)
            print("\nwrote {} records to {}".format(len(records),
                                                    args.trace_out))
        return 0

    # Standalone: build a small network, route packets, explain each.
    if args.inter:
        from repro.inter.network import InterDomainNetwork
        from repro.topology.asgraph import synthetic_as_graph
        net = InterDomainNetwork(synthetic_as_graph(n_ases=args.ases,
                                                    seed=args.seed),
                                 seed=args.seed, cache_entries=256)
    else:
        from repro.intra.network import IntraDomainNetwork
        from repro.topology.isp import synthetic_isp
        net = IntraDomainNetwork(synthetic_isp(n_routers=args.routers,
                                               seed=args.seed),
                                 seed=args.seed)
    net.join_random_hosts(args.hosts)
    results = []
    with obs_trace.tracing(tracer):
        probes = ProbeSet.for_network(net, tracer=tracer)
        for _ in range(args.packets):
            a, b = net.random_host_pair()
            results.append((a, b, net.send(a, b)))
        probes.tick(0.0)

    records = tracer.sink.records()
    packets = explain.explain_packets(records)
    for (a, b, result), packet in zip(results, packets):
        print("{} -> {}:".format(a, b))
        print(packet.render(result.optimal_hops))
        attributed = packet.total_stretch(result.optimal_hops)
        print("  attribution: {} segment(s) summing to stretch {:.3f} "
              "(PathResult.stretch {:.3f})".format(
                  len(packet.segments), attributed, result.stretch))
        print()
    if probes.violations:
        print("probes: {} violation(s)".format(len(probes.violations)))
        for violation in probes.summary():
            print("  {}".format(violation))
    else:
        print("probes: ring/SPF/isolation invariants clean")
    if args.trace_out is not None:
        obs_trace.dump_jsonl(records, args.trace_out)
        print("wrote {} records to {}".format(len(records), args.trace_out))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ReproServer, build_network

    if args.snapshot is not None:
        from repro import snapshot
        net = snapshot.load(args.snapshot, verify=args.verify)
        print("serve: loaded {} ({})".format(
            args.snapshot, snapshot.describe(args.snapshot)["counts"]),
            file=sys.stderr)
    else:
        net = build_network(kind=args.kind, seed=args.seed,
                            n_routers=args.routers, n_ases=args.ases,
                            hosts=args.hosts,
                            cache_entries=args.cache_entries)
        print("serve: built {} network (seed {}, {} hosts)".format(
            args.kind, args.seed, args.hosts), file=sys.stderr)
    server = ReproServer(net)

    if args.requests is not None:
        with open(args.requests) as fh:
            answered = server.serve_lines(fh, sys.stdout)
        print("serve: answered {} scripted request(s)".format(answered),
              file=sys.stderr)
        return 0
    if args.tcp is not None:
        def ready(port: int) -> None:
            print("serve: listening on {}:{}".format(args.host, port),
                  file=sys.stderr)
        server.serve_tcp(host=args.host, port=args.tcp, ready=ready,
                         timeout=args.tcp_timeout)
        return 0
    print("serve: reading JSON requests from stdin "
          "(one per line; op 'shutdown' exits)", file=sys.stderr)
    server.serve_stdio()
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro import snapshot

    if args.action == "save":
        from repro.serve import build_network
        net = build_network(kind=args.kind, seed=args.seed,
                            n_routers=args.routers, n_ases=args.ases,
                            hosts=args.hosts,
                            cache_entries=args.cache_entries)
        digest = snapshot.save(net, args.path, meta={"source": "cli"})
        print("saved {} ({} hosts) state_hash={}".format(
            args.path, len(net.hosts), digest[:16]))
        return 0
    if args.action == "info":
        header = snapshot.describe(args.path)
        for key in ("kind", "schema", "state_hash"):
            print("{:<12} {}".format(key, header[key]))
        for name, count in sorted(header["counts"].items()):
            print("{:<12} {}".format(name, count))
        if header["meta"]:
            print("{:<12} {}".format("meta", json.dumps(header["meta"],
                                                        sort_keys=True)))
        return 0
    # verify: load, recompute the canonical hash, sweep invariant probes.
    net = snapshot.load(args.path, verify=True)
    violations = snapshot.validate_network(net)
    if violations:
        print("verify: hash OK but {} invariant violation(s):".format(
            len(violations)), file=sys.stderr)
        for violation in violations:
            print("  {}".format(violation), file=sys.stderr)
        return 1
    print("verify: {} OK (hash matches, invariants clean, {} hosts)".format(
        args.path, len(net.hosts)))
    return 0


def _cmd_compare_stretch(args: argparse.Namespace) -> int:
    """ROFL vs Disco (vs CMU/OSPF) head-to-head; nonzero exit on any
    stretch-bound breach, probe violation, or attribution mismatch."""
    from repro.harness.experiments import headtohead_stretch
    from repro.harness.report import format_headtohead

    result = headtohead_stretch(
        profile=args.profile, n_hosts=args.hosts, n_packets=args.packets,
        n_ases=args.ases, inter_hosts=args.inter_hosts,
        inter_packets=args.inter_packets, seed=args.seed,
        full_scale=args.full, landmark_factor=args.landmark_factor,
        all_pairs_hosts=args.all_pairs_hosts)
    print(format_headtohead(result))

    if args.json is not None:
        payload = json.dumps(result, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
            print("wrote {}".format(args.json))

    failures = []
    for scope in ("intra", "inter"):
        for label, row in result[scope].items():
            where = "{}/{}".format(scope, label)
            if row["bound_violations"]:
                failures.append("{}: {} stretch-bound violation(s)".format(
                    where, row["bound_violations"]))
            if row["probe_violations"]:
                failures.append("{}: {} probe violation(s)".format(
                    where, len(row["probe_violations"])))
            if row["attribution_mismatches"]:
                failures.append("{}: {} attribution mismatch(es)".format(
                    where, row["attribution_mismatches"]))
    sweep = result["disco_all_pairs"]
    if sweep["undelivered"]:
        failures.append("all-pairs: {} undelivered".format(
            sweep["undelivered"]))
    if sweep["violations"]:
        failures.append("all-pairs: {} probe violation(s)".format(
            len(sweep["violations"])))
    if failures:
        for failure in failures:
            print("compare-stretch: FAIL {}".format(failure),
                  file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import generate_report

    if (args.metrics is None and args.perf is None and args.bench is None
            and args.compare is None):
        print("report: nothing to render; pass --metrics, --perf, --bench, "
              "and/or --compare", file=sys.stderr)
        return 2
    fmt = "html" if args.out.endswith(".html") else "markdown"
    try:
        document = generate_report(args.title, metrics_path=args.metrics,
                                   perf_path=args.perf,
                                   bench_path=args.bench,
                                   compare_path=args.compare, fmt=fmt)
    except (OSError, json.JSONDecodeError) as exc:
        print("report: {}".format(exc), file=sys.stderr)
        return 2
    if args.out == "-":
        print(document, end="")
    else:
        with open(args.out, "w") as fh:
            fh.write(document)
        print("wrote {} ({} bytes, {})".format(args.out, len(document), fmt))
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    import repro
    print("repro {} — ROFL: Routing on Flat Labels (SIGCOMM 2006)".format(
        repro.__version__))
    print("Caesar, Condie, Kannan, Lakshminarayanan, Stoica, Shenker.")
    print()
    print("Subsystems: idspace, util, sim, topology, linkstate, intra,")
    print("            inter, baselines, compact, services, harness")
    print("Docs: README.md (overview), DESIGN.md (inventory),")
    print("      EXPERIMENTS.md (paper-vs-measured)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate evaluation figures")
    figures.add_argument("--full", action="store_true",
                         help="larger (slower) workloads")
    figures.add_argument("--only", default=None,
                         help="run only figures whose id starts with this")
    figures.add_argument("--trace-out", default=None, metavar="PATH",
                         help="record a JSONL packet trace while figures run")
    figures.add_argument("--trace-sample", type=float, default=1.0,
                         metavar="F", help="fraction of packet spans to keep")
    figures.set_defaults(func=_cmd_figures)

    workload = sub.add_parser(
        "workload",
        help="run a declarative churn/traffic/fault scenario")
    workload.add_argument("scenario", nargs="?", default=None,
                          help="builtin scenario name or path to a "
                               "scenario JSON file")
    workload.add_argument("--seed", type=int, default=0,
                          help="override the scenario seed")
    workload.add_argument("--json", default=None, metavar="PATH",
                          help="write the deterministic result as JSON "
                               "('-' for stdout)")
    workload.add_argument("--list", action="store_true",
                          help="list builtin scenarios and exit")
    workload.add_argument("--trace-out", default=None, metavar="PATH",
                          help="record a JSONL packet trace of the run")
    workload.add_argument("--trace-sample", type=float, default=1.0,
                          metavar="F", help="fraction of packet spans to keep")
    workload.add_argument("--probes", action="store_true",
                          help="run live invariant probes during the run")
    workload.add_argument("--metrics-out", default=None, metavar="PATH",
                          help="stream windowed perf-registry deltas as "
                               "JSONL (deterministic per seed)")
    workload.add_argument("--metrics-window", type=float, default=None,
                          metavar="T",
                          help="virtual-time span of one metrics window "
                               "(default: the scenario's sample interval)")
    workload.set_defaults(func=_cmd_workload)

    tracecmd = sub.add_parser(
        "trace",
        help="route packets under the tracer and explain the decisions")
    tracecmd.add_argument("--inter", action="store_true",
                          help="interdomain network instead of intradomain")
    tracecmd.add_argument("--routers", type=int, default=24,
                          help="intra: router count (default 24)")
    tracecmd.add_argument("--ases", type=int, default=30,
                          help="inter: AS count (default 30)")
    tracecmd.add_argument("--hosts", type=int, default=60,
                          help="hosts to join before routing (default 60)")
    tracecmd.add_argument("--packets", type=int, default=1,
                          help="packets to route and explain (default 1)")
    tracecmd.add_argument("--seed", type=int, default=0)
    tracecmd.add_argument("--scenario", default=None,
                          help="replay this workload scenario under tracing "
                               "instead of routing standalone packets")
    tracecmd.add_argument("--trace-out", default=None, metavar="PATH",
                          help="also dump the records as JSONL")
    tracecmd.add_argument("--trace-sample", type=float, default=1.0,
                          metavar="F", help="fraction of packet spans to keep")
    tracecmd.set_defaults(func=_cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="hold a network resident and answer JSON-line requests")
    serve.add_argument("--kind", choices=("intra", "inter"), default="intra",
                       help="network kind to build (default intra)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--routers", type=int, default=40,
                       help="intra: router count (default 40)")
    serve.add_argument("--ases", type=int, default=60,
                       help="inter: AS count (default 60)")
    serve.add_argument("--hosts", type=int, default=200,
                       help="hosts to join before serving (default 200)")
    serve.add_argument("--cache-entries", type=int, default=None,
                       help="pointer-cache size override")
    serve.add_argument("--snapshot", default=None, metavar="PATH",
                       help="warm-load this snapshot instead of building")
    serve.add_argument("--verify", action="store_true",
                       help="verify the snapshot hash while loading")
    serve.add_argument("--tcp", type=int, default=None, metavar="PORT",
                       help="serve over TCP instead of stdio (0 = ephemeral)")
    serve.add_argument("--tcp-timeout", type=float, default=60.0,
                       metavar="SECONDS",
                       help="drop a TCP connection idle for this long "
                            "mid-session (default 60)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default 127.0.0.1)")
    serve.add_argument("--requests", default=None, metavar="FILE",
                       help="answer the JSON-line requests in FILE and exit")
    serve.set_defaults(func=_cmd_serve)

    snap = sub.add_parser(
        "snapshot",
        help="save, inspect, or verify a network state snapshot")
    snap.add_argument("action", choices=("save", "info", "verify"))
    snap.add_argument("path", help="snapshot file")
    snap.add_argument("--kind", choices=("intra", "inter"), default="intra",
                      help="save: network kind to build (default intra)")
    snap.add_argument("--seed", type=int, default=0)
    snap.add_argument("--routers", type=int, default=40)
    snap.add_argument("--ases", type=int, default=60)
    snap.add_argument("--hosts", type=int, default=200,
                      help="save: hosts to join before saving (default 200)")
    snap.add_argument("--cache-entries", type=int, default=None)
    snap.set_defaults(func=_cmd_snapshot)

    compare = sub.add_parser(
        "compare-stretch",
        help="ROFL vs compact-routing head-to-head with a stretch-bound "
             "gate (nonzero exit on any violation)")
    compare.add_argument("--profile", default="AS3967",
                         help="Rocketfuel ISP profile (default AS3967)")
    compare.add_argument("--hosts", type=int, default=200,
                         help="intra: hosts joined per baseline (default 200)")
    compare.add_argument("--packets", type=int, default=400,
                         help="intra: packets per baseline (default 400)")
    compare.add_argument("--ases", type=int, default=60,
                         help="inter: AS count (default 60)")
    compare.add_argument("--inter-hosts", type=int, default=150,
                         help="inter: hosts joined (default 150)")
    compare.add_argument("--inter-packets", type=int, default=200,
                         help="inter: packets routed (default 200)")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--full", action="store_true",
                         help="full-scale topology instead of the sample")
    compare.add_argument("--landmark-factor", type=float, default=1.0,
                         metavar="F",
                         help="landmarks = ceil(F * sqrt(routers))")
    compare.add_argument("--all-pairs-hosts", type=int, default=40,
                         metavar="N",
                         help="exhaustive bound sweep over the first N "
                              "hosts (default 40)")
    compare.add_argument("--json", default=None, metavar="PATH",
                         help="write the full result as JSON ('-' = stdout)")
    compare.set_defaults(func=_cmd_compare_stretch)

    report = sub.add_parser(
        "report",
        help="render telemetry artifacts into one HTML/markdown report")
    report.add_argument("--metrics", default=None, metavar="PATH",
                        help="window-metrics JSONL (from --metrics-out)")
    report.add_argument("--perf", default=None, metavar="PATH",
                        help="JSON result carrying a perf snapshot "
                             "(timer tree source)")
    report.add_argument("--bench", default=None, metavar="PATH",
                        help="BENCH_scaling.json scaling trajectory")
    report.add_argument("--compare", default=None, metavar="PATH",
                        help="compare_stretch.json head-to-head result "
                             "(from 'compare-stretch --json')")
    report.add_argument("--title", default="repro telemetry report")
    report.add_argument("--out", default="-", metavar="PATH",
                        help="output file; '.html' renders HTML, anything "
                             "else markdown ('-' = markdown to stdout)")
    report.set_defaults(func=_cmd_report)

    quick = sub.add_parser("quickstart", help="run the quickstart scenario")
    quick.set_defaults(func=_cmd_quickstart)

    info = sub.add_parser("info", help="package and paper summary")
    info.set_defaults(func=_cmd_info)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
