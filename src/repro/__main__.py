"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``figures [--full] [--only PREFIX]`` — run the figure registry
  (``repro.harness.report.FIGURES``): every evaluation block of the
  paper's §6 at its registered sizes, then the ROFL-vs-Disco
  head-to-head; ``--only fig`` is the evaluation blocks alone.
* ``workload <scenario.json|builtin> [--seed N] [--json PATH]`` — run a
  declarative churn/traffic/fault scenario (``--list`` names builtins).
  ``--trace-out out.jsonl`` records a causal packet trace; ``--probes``
  runs live invariant probes.  The ``--json`` view's ``samples`` are the
  run's window rows (same seed, byte-identical file).
* ``trace`` — route packets under the ``repro.obs`` tracer and render
  each decision tree with per-hop stretch attribution; ``--scenario``
  replays a workload window instead, on the network the scenario names.
* ``serve [--kind intra|inter|cmu|ospf|disco] [--hosts N] [--snapshot
  PATH] [--tcp PORT]`` — build (or warm-load) a network once and answer
  line-delimited JSON requests against it (``repro.serve``; ``--requests
  FILE`` scripts a session for tests and CI).
* ``snapshot {save,info,verify} PATH`` — checkpoint/restore of complete
  network state with canonical state hashing (``repro.snapshot``).  A
  file that is not a snapshot, is corrupt or has another schema version
  exits 2 with ``repro: <what is wrong>``, here and under ``serve
  --snapshot``.
* ``compare-stretch [--json PATH]`` — run the registry's ROFL-vs-Disco
  (vs CMU-ETHERNET / OSPF) stretch head-to-head, the ``figures`` block
  at its sizes, with the stretch-bound probe live; exits nonzero on any
  bound breach, probe violation, or attribution mismatch (the CI gate).
  With ``--json -`` the JSON alone goes to stdout, the table to stderr.
* ``report [--metrics view.json] [--perf result.json] [--bench
  sweep.json] [--compare compare_stretch.json] [--out report.html]`` —
  render telemetry artifacts into one self-contained HTML or markdown
  document (``repro.obs.report``); ``--metrics`` reads the window rows of
  a ``workload --json`` view.  An input of the wrong shape, or a
  ``--perf`` file with no timers in it, exits 2 with ``report: <file>:
  <what is wrong>``.
* ``info`` — package, paper, and inventory summary.

``--help`` lists every subcommand; an unknown subcommand exits with
status 2 and a usage message on stderr.  A path a command cannot open
(to read or to write) exits 2 with one ``repro: <error and path>`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time


def _write_json(payload, path: str) -> None:
    """``--json PATH``: sorted, indented; ``-`` is stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print("wrote {}".format(path))


def _bounded(convert, low, high=float("inf")):
    """An argparse type: ``convert(text)`` in [low, high], else a usage
    error naming the flag (NaN is in no range)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError("expected {} in [{}, {}], got "
                                             "{!r}".format(convert.__name__,
                                                           low, high, text))
        return value
    return parse


def _load_scenario(command: str, name: str, seed):
    """The builtin scenario or scenario JSON file ``name``, reseeded when
    ``--seed`` was given.  A bad name, a path that cannot be read or a
    malformed file is reported on stderr under ``command`` and returns
    None."""
    from repro.workload.scenario import (BUILTIN_SCENARIOS, Scenario,
                                         ScenarioError, builtin_scenario)
    try:
        if name in BUILTIN_SCENARIOS:
            scenario = builtin_scenario(name)
        elif os.path.exists(name):
            scenario = Scenario.load(name)
        else:
            raise ScenarioError(
                "no such builtin or file: {!r} (builtins: {})".format(
                    name, ", ".join(sorted(BUILTIN_SCENARIOS))))
    except (OSError, UnicodeError, ScenarioError) as exc:
        print("{}: {}".format(command, exc), file=sys.stderr)
        return None
    if seed is not None:
        scenario.seed = seed
    return scenario


@contextlib.contextmanager
def _tracing(args: argparse.Namespace, sink=None):
    """One command's tracing session: a tracer installed for the block
    and closed after it.  Records go to ``sink`` when the caller brings
    one, else stream to ``--trace-out`` (summarised on stderr at the
    end); with neither there is no tracer and the block gets None."""
    from repro.obs import trace as obs_trace
    streamed = sink is None and args.trace_out is not None
    if streamed:
        sink = obs_trace.JsonlSink(args.trace_out)
    if sink is None:
        yield None
        return
    tracer = obs_trace.Tracer(sink=sink)
    try:
        with obs_trace.tracing(tracer):
            yield tracer
    finally:
        tracer.close()
        if streamed:
            print("trace: {} records ({} spans) -> {}".format(
                tracer.records_emitted, tracer.spans_started,
                args.trace_out), file=sys.stderr)


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.harness.report import FIGURES, run_figures

    only = args.only or ""
    if not any(name.startswith(only) for name in FIGURES):
        print("no figure matches {!r}; choices: {}".format(
            args.only, ", ".join(FIGURES)), file=sys.stderr)
        return 2
    start = time.time()
    for name, text, took in run_figures(args.full, only):
        print(text)
        print("[{} took {:.1f}s]\n".format(name, took))
    print("done in {:.1f}s".format(time.time() - start))
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workload.driver import run_scenario
    from repro.workload.scenario import BUILTIN_SCENARIOS, builtin_scenario

    if args.list:
        for name in sorted(BUILTIN_SCENARIOS):
            scenario = builtin_scenario(name)
            print("{:<16} {:>5.0f}s  {}/{}  phases={} faults={}".format(
                name, scenario.duration, scenario.network.kind,
                getattr(scenario.network, scenario.network.sizing()[0]),
                len(scenario.phases), len(scenario.faults)))
        return 0
    if args.scenario is None:
        print("workload: need a scenario (builtin name or JSON file); "
              "--list shows builtins", file=sys.stderr)
        return 2
    scenario = _load_scenario("workload", args.scenario, args.seed)
    if scenario is None:
        return 2

    sink = None
    if args.probes and args.trace_out is None:
        from repro.obs.trace import NullSink    # probes listen on a tracer
        sink = NullSink()
    with _tracing(args, sink) as tracer:
        result = run_scenario(scenario, tracer=tracer, probes=args.probes)
    if result.violations:
        print("probes: {} violation(s)".format(len(result.violations)),
              file=sys.stderr)

    if args.json is not None:
        _write_json(result.deterministic_view(), args.json)
    else:
        from repro.obs.report import emit_text
        print(emit_text(result.blocks()))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Route packets under the tracer and explain each decision tree."""
    from repro.obs import explain
    from repro.obs import trace as obs_trace

    # A network flag the run would not read is a usage error, not ignored.
    if args.scenario is not None:
        for flag, value in (("--inter", args.inter or None),
                            ("--routers", args.routers),
                            ("--ases", args.ases), ("--hosts", args.hosts)):
            if value is not None:
                _flag_error(args, flag, "the scenario names its network")
    elif args.inter and args.routers is not None:
        _flag_error(args, "--routers", "'inter' networks do not read it")
    elif not args.inter and args.ases is not None:
        _flag_error(args, "--ases", "'intra' networks do not read it")
    sink = obs_trace.RingBufferSink()
    if args.scenario is not None:
        # Replay a scenario window with tracing + probes on, then explain
        # the last packets it routed.
        from repro.workload.driver import run_scenario
        scenario = _load_scenario("trace", args.scenario, args.seed)
        if scenario is None:
            return 2
        with _tracing(args, sink) as tracer:
            result = run_scenario(scenario, tracer=tracer, probes=True)
        records = sink.records()
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
            print()
    else:
        # Standalone: build a small network, route packets, explain each.
        from repro import build_network
        from repro.obs.probes import ProbeSet
        net = build_network("inter" if args.inter else "intra",
                            args.seed or 0,
                            n_routers=24 if args.routers is None
                            else args.routers,
                            n_ases=30 if args.ases is None else args.ases,
                            hosts=60 if args.hosts is None else args.hosts,
                            cache_entries=256 if args.inter else None,
                            n_fingers=16)
        results = []
        with _tracing(args, sink) as tracer:
            probes = ProbeSet.for_network(net, tracer=tracer)
            for _ in range(args.packets):
                a, b = net.random_host_pair()
                results.append((a, b, net.send(a, b)))
            probes.tick(0.0)
        records = sink.records()
        for (a, b, result), packet in zip(results,
                                          explain.explain_packets(records)):
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


def _add_network_args(parser: argparse.ArgumentParser) -> None:
    """The network ``serve`` and ``snapshot save`` build when not handed
    a snapshot (see :func:`_network_from_args`).  None is a flag left out:
    a size is then :class:`repro.workload.scenario.NetworkSpec`'s, which a
    warm start does not import, and ``serve --snapshot`` takes none."""
    from repro.network import KINDS
    parser.add_argument("--kind", choices=tuple(KINDS),
                        help="network kind (default intra, or the snapshot's)")
    parser.add_argument("--seed", type=int, help="(default 0)")
    parser.add_argument("--routers", type=int, dest="n_routers",
                        help="every kind but inter: router count "
                             "(default NetworkSpec.n_routers)")
    parser.add_argument("--ases", type=int, dest="n_ases",
                        help="inter: AS count (default NetworkSpec.n_ases)")
    parser.add_argument("--hosts", type=_bounded(int, 0),
                        help="hosts to join after building (default 200)")
    parser.add_argument("--cache-entries", type=int,
                        help="intra, inter: pointer-cache size override")


#: The sizing flags and their ``NetworkSpec`` fields.
_SIZING_FLAGS = (("--routers", "n_routers"), ("--ases", "n_ases"),
                 ("--cache-entries", "cache_entries"))


def _flag_error(args: argparse.Namespace, flag: str, why: str) -> None:
    """Exit 2 with one line, worded as argparse words a usage error."""
    print("repro {}: error: argument {}: {}".format(args.command, flag, why),
          file=sys.stderr)
    raise SystemExit(2)


def _network_from_args(args: argparse.Namespace):
    """The network the flags describe; a sizing flag its kind does not
    read is a usage error (exit 2, one line), not ignored."""
    from repro import build_network
    from repro.workload.scenario import NetworkSpec
    kind = args.kind or "intra"
    reads = NetworkSpec(kind=kind).sizing()
    sizing = {}
    for flag, name in _SIZING_FLAGS:
        value = getattr(args, name)
        if value is None:
            continue
        if name not in reads:
            _flag_error(args, flag, "{!r} networks do not read it".format(
                kind))
        sizing[name] = value
    # The name seeds the RNG streams: the evicting snapshot gate and the
    # bench's serve_session digest hash "serve" in.
    return build_network(kind=kind, seed=args.seed or 0, name="serve",
                         hosts=200 if args.hosts is None else args.hosts,
                         **sizing)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ReproServer

    if args.snapshot is not None:
        from repro import snapshot
        for flag, name in (("--seed", "seed"), ("--hosts", "hosts"),
                           *_SIZING_FLAGS):
            if getattr(args, name) is not None:
                _flag_error(args, flag, "a snapshot is loaded, not built")
        from repro.network import KINDS
        header = snapshot.describe(args.snapshot)
        if args.kind is not None and KINDS[args.kind][1] != header["kind"]:
            _flag_error(args, "--kind", "{} holds {}, not a {!r} network"
                        .format(args.snapshot, header["kind"], args.kind))
        net = snapshot.load(args.snapshot, verify=args.verify)
        made = "loaded {} ({})".format(args.snapshot, header["counts"])
    else:
        if args.verify:
            _flag_error(args, "--verify", "needs --snapshot")
        net = _network_from_args(args)
        made = "built {} network (seed {}, {} hosts)".format(
            net.kind, net.seed, len(net.hosts))
    server = ReproServer(net)

    if args.requests is not None:
        # Opened before anything is printed, so a path that cannot be
        # read is the one line on stderr.
        with open(args.requests) as requests:
            print("serve: " + made, file=sys.stderr)
            answered = server.serve_lines(requests, sys.stdout)
        print("serve: answered {} scripted request(s)".format(answered),
              file=sys.stderr)
        return 0
    print("serve: " + made, file=sys.stderr)
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
        net = _network_from_args(args)
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
    """The registry's ROFL vs Disco (vs CMU/OSPF) head-to-head; nonzero
    exit on any stretch-bound breach, probe violation, or attribution
    mismatch."""
    from repro.harness.report import FIGURES, render

    figure = FIGURES["headtohead"]
    result = figure.driver(**figure.params(1))
    print(render("headtohead", result),
          file=sys.stderr if args.json == "-" else sys.stdout)
    if args.json is not None:
        _write_json(result, args.json)

    sweep = result["disco_all_pairs"]
    checks = [("{}/{}".format(scope, label), count, what)
              for scope in ("intra", "inter")
              for label, row in result[scope].items()
              for count, what in (
                  (row["bound_violations"], "stretch-bound violation(s)"),
                  (len(row["probe_violations"]), "probe violation(s)"),
                  (row["attribution_mismatches"], "attribution mismatch(es)"))]
    checks += [("all-pairs", sweep["undelivered"], "undelivered"),
               ("all-pairs", len(sweep["violations"]), "probe violation(s)")]
    failed = [check for check in checks if check[1]]
    for where, count, what in failed:
        print("compare-stretch: FAIL {}: {} {}".format(where, count, what),
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import ReportError, generate_report

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
    except (OSError, ReportError) as exc:
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
    print("            inter, baselines, compact, services, workload,")
    print("            snapshot, obs, harness")
    print("Docs: README.md (overview), DESIGN.md (inventory),")
    print("      EXPERIMENTS.md (paper-vs-measured)")
    return 0


def _refusals() -> tuple:
    """``SnapshotError`` and ``ScenarioError``, of those whose module the
    command imported: an error is raised only by code that was loaded, so
    a command pays for no module it does not run."""
    return tuple(getattr(sys.modules[module], name) for module, name in (
        ("repro.snapshot.store", "SnapshotError"),
        ("repro.workload.scenario", "ScenarioError"))
        if module in sys.modules)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate evaluation figures")
    figures.add_argument("--full", action="store_true",
                         help="larger (slower) workloads")
    figures.add_argument("--only", default=None,
                         help="run only figures whose id starts with this")
    figures.set_defaults(func=_cmd_figures)

    workload = sub.add_parser(
        "workload",
        help="run a declarative churn/traffic/fault scenario")
    workload.add_argument("scenario", nargs="?", default=None,
                          help="builtin scenario name or path to a "
                               "scenario JSON file")
    workload.add_argument("--seed", type=int, default=None,
                          help="override the scenario seed")
    workload.add_argument("--json", default=None, metavar="PATH",
                          help="write the deterministic result as JSON "
                               "('-' for stdout)")
    workload.add_argument("--list", action="store_true",
                          help="list builtin scenarios and exit")
    workload.add_argument("--trace-out", default=None, metavar="PATH",
                          help="record a JSONL packet trace of the run")
    workload.add_argument("--probes", action="store_true",
                          help="run live invariant probes during the run")
    workload.set_defaults(func=_cmd_workload)

    tracecmd = sub.add_parser(
        "trace",
        help="route packets under the tracer and explain the decisions")
    tracecmd.add_argument("--inter", action="store_true",
                          help="interdomain network instead of intradomain")
    tracecmd.add_argument("--routers", type=int,
                          help="intra: router count (default 24)")
    tracecmd.add_argument("--ases", type=int,
                          help="inter: AS count (default 30)")
    tracecmd.add_argument("--hosts", type=_bounded(int, 2),
                          help="hosts to join before routing (default 60)")
    tracecmd.add_argument("--packets", type=_bounded(int, 1), default=1,
                          help="packets to route and explain (default 1)")
    tracecmd.add_argument("--seed", type=int, default=None,
                          help="network seed (default 0), or an override "
                               "of the --scenario seed")
    tracecmd.add_argument("--scenario", default=None,
                          help="replay this workload scenario under tracing "
                               "instead of routing standalone packets")
    tracecmd.add_argument("--trace-out", default=None, metavar="PATH",
                          help="also dump the records as JSONL")
    tracecmd.set_defaults(func=_cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="hold a network resident and answer JSON-line requests")
    _add_network_args(serve)
    serve.add_argument("--snapshot", default=None, metavar="PATH",
                       help="warm-load this snapshot instead of building")
    serve.add_argument("--verify", action="store_true",
                       help="verify the snapshot hash while loading")
    serve.add_argument("--tcp", type=_bounded(int, 0, 65535), default=None,
                       metavar="PORT",
                       help="serve over TCP instead of stdio (0 = ephemeral)")
    # Positive, and at most a day: a socket refuses one past its time_t.
    serve.add_argument("--tcp-timeout", type=_bounded(float, 0.001, 86400),
                       default=60.0,
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
    actions = snap.add_subparsers(dest="action", required=True)
    for action in ("save", "info", "verify"):
        act = actions.add_parser(action)
        act.add_argument("path", help="snapshot file")
        act.set_defaults(func=_cmd_snapshot)
    _add_network_args(actions.choices["save"])      # the others build none

    compare = sub.add_parser(
        "compare-stretch",
        help="ROFL vs compact-routing head-to-head with a stretch-bound "
             "gate (nonzero exit on any violation)")
    compare.add_argument("--json", default=None, metavar="PATH",
                         help="write the full result as JSON ('-' = stdout, "
                              "the table then goes to stderr)")
    compare.set_defaults(func=_cmd_compare_stretch)

    report = sub.add_parser(
        "report",
        help="render telemetry artifacts into one HTML/markdown report")
    report.add_argument("--metrics", default=None, metavar="PATH",
                        help="workload result whose samples are the "
                             "window rows (from workload --json)")
    report.add_argument("--perf", default=None, metavar="PATH",
                        help="JSON result carrying a perf snapshot "
                             "(timer tree source)")
    report.add_argument("--bench", default=None, metavar="PATH",
                        help="population sweep JSON (from "
                             "benchmarks/perf_trajectory.py)")
    report.add_argument("--compare", default=None, metavar="PATH",
                        help="compare_stretch.json head-to-head result "
                             "(from 'compare-stretch --json')")
    report.add_argument("--title", default="repro telemetry report")
    report.add_argument("--out", default="-", metavar="PATH",
                        help="output file; '.html' renders HTML, anything "
                             "else markdown ('-' = markdown to stdout)")
    report.set_defaults(func=_cmd_report)

    info = sub.add_parser("info", help="package and paper summary")
    info.set_defaults(func=_cmd_info)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError,) + _refusals() as exc:
        # A path that cannot be opened; a file that is not a snapshot, is
        # corrupt, or has another schema version; a scenario naming a link
        # or router the network lacks: the message says which, and why.
        print("repro: {}".format(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
