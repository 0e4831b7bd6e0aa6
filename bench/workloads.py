"""The five workloads, as they run inside one measuring child process.

Each workload has the same four parts, so that each reports every
end-to-end metric: set-up, a join phase, a traffic phase and a snapshot
phase.  What differs is the traffic — closed-loop sends (``*_5k``), the
scenario event loop (``churn_*``) or the request tape over a loopback
socket (``serve_session``) — and therefore which layers carry the load.
The same code runs untraced and traced; a traced run only has the
wrappers of :mod:`bench.trace` installed around it.

All timing is on the calibrator's clock (:mod:`bench.calib`), which stops
while a reference tick runs; every end-to-end time is reported calibrated
(``value``) with the raw wall-clock reading beside it (``raw``).  Ticks are
paced between operations in the phases the benchmark drives one operation
at a time, and by an interval timer inside set-up and inside each single
long call (hash, save, load).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import socket
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench import inputs, probes
from bench.calib import Calibrator
from bench.spec import (BENCH_DIR, OUT_DIR, ROOT, child_env, cores, median,
                        quantile)
from bench.trace import DRIVER_EVENT, Tracer

MIN_DELIVERY = 0.99

#: Kernel timings in the tick before and after a single long call
#: (set-up, hash, save, load).
SINGLE_CALL_TICKS = 9

#: A load is over in a fifth of a second, a dozen ticks: a snapshot phase
#: loads this many times and keeps the median.
LOADS = 3


class Run:
    """What one child was asked to do, and everything it found."""

    def __init__(self, workload: str, seed: int, scale: float,
                 spawned: float, tracer: Optional[Tracer],
                 available: List[int]):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.spawned = spawned
        self.tracer = tracer
        #: the cores this child may use, lowest first
        self.available = available
        # The reference kernel is built first of all (off the clock), so
        # that set-up is calibrated by ticks taken while it runs; a tracer
        # reads the same clock, so that no span contains a tick.
        self.cal = Calibrator()
        if tracer is not None:
            tracer.clock = self.cal.clock
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.layers: Dict[str, float] = {}
        self.checks: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failed = 0
        self.digest_parts: Dict[str, Any] = {}

    def setup_done(self) -> None:
        """Called where set-up ends: parent's spawn → here is ``setup_s``
        (the parent read the same monotonic clock, and no tick had stopped
        this process's clock yet when it did)."""
        end = self.cal.clock()
        self.cal.tick(SINGLE_CALL_TICKS)
        self.metric("setup_s", self.cal.seconds(self.spawned, end),
                    end - self.spawned)

    def metric(self, name: str, value: float, raw: float,
               samples: int = 1) -> None:
        self.metrics[name] = {"value": value, "raw": raw, "n": samples}

    def rate(self, name: str, count: int, start: float, end: float) -> None:
        self.metric(name, count / self.cal.seconds(start, end),
                    count / (end - start))

    def percentiles(self, prefix: str, starts: List[float],
                    durations: List[float], tags: Tuple[str, ...]) -> None:
        """``<prefix>_p50`` / ``<prefix>_p95`` (per ``tags``), in ms."""
        seconds = self.cal.seconds
        calibrated = [seconds(at, at + took)
                      for at, took in zip(starts, durations)]
        for tag in tags:
            fraction = int(tag[1:]) / 100.0
            self.metric("{}_{}".format(prefix, tag),
                        quantile(calibrated, fraction) * 1e3,
                        quantile(durations, fraction) * 1e3, len(durations))

    def repeated(self, name: str, times: int,
                 measure: Callable[[], Any]) -> Any:
        """Call ``measure``, which records metric ``name``, ``times`` times
        and keep the median; returns what the last call returned."""
        samples = []
        for _ in range(times):
            result = measure()
            samples.append(self.metrics[name])
        self.metric(name, median([m["value"] for m in samples]),
                    median([m["raw"] for m in samples]), len(samples))
        return result

    def timed(self, name: Optional[str], call: Callable[[], Any],
              freeze: Optional[int] = None) -> Tuple[Any, float]:
        """One long call with a tick on either side and ticks inside it
        (``freeze``: see ``Calibrator.ticking``); recorded as metric
        ``name`` if given.  Returns its result and its raw seconds."""
        cal = self.cal
        cal.tick(SINGLE_CALL_TICKS)
        with cal.ticking(freeze):
            start = cal.clock()
            result = call()
            end = cal.clock()
        cal.tick(SINGLE_CALL_TICKS)
        if name is not None:
            self.metric(name, cal.seconds(start, end), end - start)
        return result, end - start

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def span(self, name: str):
        """A span around a call the benchmark makes itself; free when the
        run is untraced."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def size(self, key: str) -> float:
        return inputs.SIZES[self.workload][key]

    def net_seed(self) -> int:
        return inputs.derive_seed(self.seed, self.workload, "net")

    def scratch(self, suffix: str) -> str:
        os.makedirs(OUT_DIR, exist_ok=True)
        return os.path.join(OUT_DIR, "{}-{}-{}{}".format(
            self.workload, self.seed, os.getpid(), suffix))

    def result(self) -> Dict[str, Any]:
        text = json.dumps(self.digest_parts, sort_keys=True)
        return {
            "workload": self.workload, "seed": self.seed,
            "metrics": self.metrics, "layers": self.layers,
            "checks": self.checks, "attempted": self.attempted,
            "failed": self.failed,
            "sim_digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "unresolved": (self.tracer.unresolved if self.tracer else []),
        }


# ---------------------------------------------------------------------------
# Building the networks (set-up).
# ---------------------------------------------------------------------------

def build_inter(run: Run):
    from repro.inter.network import InterDomainNetwork
    from repro.inter.policy import JoinStrategy
    from repro.topology.asgraph import synthetic_as_graph

    start = time.perf_counter()
    asg = synthetic_as_graph(n_ases=inputs.N_ASES, seed=inputs.TOPOLOGY_SEED)
    built = time.perf_counter()
    net = InterDomainNetwork(asg, n_fingers=8, seed=run.net_seed(),
                             strategy=JoinStrategy.MULTIHOMED,
                             cache_entries=0)
    run.layers["topology.asgraph_build_s"] = built - start
    run.layers["inter.construct_s"] = time.perf_counter() - built
    return net


def build_intra(run: Run, **options):
    from repro.intra.network import IntraDomainNetwork
    from repro.topology.isp import synthetic_isp

    start = time.perf_counter()
    topo = synthetic_isp(n_routers=inputs.N_ROUTERS,
                         seed=inputs.TOPOLOGY_SEED, name=inputs.ISP_NAME)
    built = time.perf_counter()
    net = IntraDomainNetwork(topo, seed=run.net_seed(), **options)
    run.layers["topology.isp_build_s"] = built - start
    run.layers["intra.construct_s"] = time.perf_counter() - built
    return net


def check_ring(run: Run, net, when: str) -> None:
    """The program's own misconvergence check, as an output check."""
    check = getattr(net, "check_rings", None) or net.check_ring
    try:
        check()
    except AssertionError as exc:
        run.check("ring consistent " + when, False, str(exc))
    else:
        run.check("ring consistent " + when, True)


# ---------------------------------------------------------------------------
# Phases shared by several workloads.
# ---------------------------------------------------------------------------

def join_phase(run: Run, join_one: Callable[[], Any], flush: Callable,
               per_window: int) -> Tuple[int, List[float]]:
    """Join ``WINDOWS * per_window`` hosts one call at a time, then settle
    the deferred index maintenance inside the phase's wall time.

    ``join_one`` returns the receipt, or None for a join that produced
    none; a join that raises counts as failed as well.  Returns the total
    join messages (simulated, exact) and the raw window rates.
    """
    cal = run.cal
    clock, pace = cal.clock, cal.pace
    starts: List[float] = []
    durations: List[float] = []
    rates: List[float] = []
    messages = failed = 0
    gc.collect()
    cal.tick()
    started = clock()
    for _ in range(inputs.WINDOWS):
        window = clock()
        for _ in range(per_window):
            t0 = clock()
            try:
                receipt = join_one()
            except Exception as exc:  # the op failed; the run reports it
                receipt = None
                run.check("join raised", False, repr(exc))
            starts.append(t0)
            durations.append(clock() - t0)
            if receipt is None:
                failed += 1
            else:
                messages += receipt.messages
            pace()
        rates.append(per_window / (clock() - window))
    flush()
    ended = clock()
    cal.tick()
    run.attempted += len(starts)
    run.failed += failed
    run.rate("join_per_s", len(starts), started, ended)
    run.percentiles("join_ms", starts, durations, ("p95",))
    return messages, rates


def snapshot_phase(run: Run, net):
    """save → load → re-hash, and the round-trip check: the hash of the
    loaded network equals the one ``save`` recorded for the network before
    it was written.  Returns (state hash, loaded).

    One call of each, with ticks inside; only the load, a dozen ticks long,
    is made ``LOADS`` times (untraced) and its median kept.
    """
    from repro import snapshot

    path = run.scratch(".snap")
    try:
        gc.collect()
        with run.span("snapshot.save"):
            digest, _ = run.timed("snapshot_save_s",
                                  lambda: snapshot.save(net, path))
        run.layers["snapshot.file_mb"] = os.path.getsize(path) / 2 ** 20
        loaded = timed_loads(run, path)
        gc.collect()
        with run.span("snapshot.state_hash"):
            rehash, _ = run.timed("state_hash_s",
                                  lambda: snapshot.state_hash(loaded))
        run.check("loaded snapshot hashes as saved", rehash == digest,
                  "{} != {}".format(rehash[:16], digest[:16]))
        if run.tracer is not None:
            with run.span("snapshot.load_verify"):
                snapshot.load(path, verify=True)
    finally:
        if os.path.exists(path):
            os.remove(path)
    return digest, loaded


def timed_loads(run: Run, path: str):
    """``snapshot_load_s``: the median of ``LOADS`` loads of ``path`` (one
    load when traced).  Returns the network loaded last."""
    from repro import snapshot

    def load():
        gc.collect()   # frees the copy loaded before: one alive at a time
        with run.span("snapshot.load"):
            return run.timed("snapshot_load_s",
                             lambda: snapshot.load(path))[0]

    return run.repeated("snapshot_load_s", 1 if run.tracer else LOADS, load)


def finish(run: Run, net) -> None:
    """Peak memory, and for a traced run the layer metrics and probes."""
    from repro.util import perf

    rss = peak_rss_mb(resource.RUSAGE_SELF)
    run.metric("peak_rss_mb", rss, rss)
    if run.tracer is not None:
        layer_metrics(run, net, perf.snapshot()["counters"])


def layer_metrics(run: Run, net, counters: Dict[str, float]) -> None:
    """Everything the tracer recorded, the program's own flush counters as
    a ratio per join, then the layer probes on ``net`` (with the wrappers
    taken off first, so the probes do not count as workload calls)."""
    tracer = run.tracer
    run.layers.update(tracer.metrics())
    for kind, layer, prefix in (("inter", "inter.asnode", "asnode"),
                                ("intra", "intra.router", "router")):
        run.layers[layer + ".flush_per_join"] = flushes_per_join(
            counters, prefix, tracer.cells.get(kind + ".join", (0,))[0])
    tracer.uninstall()
    run.layers.update(probes.run_all(net, run.scale))


def flushes_per_join(counters: Dict[str, float], prefix: str,
                     joins: float) -> Optional[float]:
    """Index flushes the program counted per join — its wasted-work ratio —
    from the counters of its public perf registry; None if they are gone."""
    names = [prefix + ".index.refresh.flushes", prefix + ".index.rebuild"]
    if not joins:
        return 0.0
    if not any(name in counters for name in names):
        return None
    return sum(counters.get(name, 0) for name in names) / joins


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# inter_5k / intra_5k.
# ---------------------------------------------------------------------------

def run_bulk(run: Run, kind: str, setup_only: bool) -> None:
    with run.cal.ticking():
        net = build_inter(run) if kind == "inter" else build_intra(run)
    run.setup_done()
    if setup_only:
        return
    cal = run.cal
    clock, pace = cal.clock, cal.pace

    def join_one():
        receipts = net.join_random_hosts(1)
        return receipts[0] if len(receipts) == 1 else None

    messages, rates = join_phase(run, join_one, net.flush_indexes,
                                 inputs.windowed(run.size("hosts"),
                                                 run.scale))
    run.layers[kind + ".join.cliff_ratio"] = rates[-1] / rates[0]
    check_ring(run, net, "after the join phase")
    if kind == "inter":
        # The BGP tables behind the stretch denominator belong to neither
        # protocol phase.
        t0 = clock()
        net.bgp.warm()
        run.layers["inter.bgp.warm_s"] = clock() - t0

    per_window = inputs.windowed(run.size("sends"), run.scale)
    send, pair = net.send, net.random_host_pair
    starts: List[float] = []
    durations: List[float] = []
    windows: List[Tuple[float, float]] = []
    delivered = hops = 0
    gc.collect()
    cal.tick()
    for _ in range(inputs.WINDOWS):
        window = clock()
        for _ in range(per_window):
            t0 = clock()
            result = send(*pair())
            starts.append(t0)
            durations.append(clock() - t0)
            if result.delivered:
                delivered += 1
                hops += result.hops
            pace()
        windows.append((window, clock()))
    cal.tick()
    sends = len(starts)
    run.attempted += sends
    run.failed += sends - delivered
    run.metric("traffic_per_s",
               quantile([per_window / cal.seconds(start, end)
                         for start, end in windows], 0.5),
               quantile([per_window / (end - start)
                         for start, end in windows], 0.5), len(windows))
    run.percentiles("traffic_ms", starts, durations, ("p50", "p95"))
    run.check("delivery >= {}".format(MIN_DELIVERY),
              delivered >= MIN_DELIVERY * sends,
              "{}/{}".format(delivered, sends))

    digest, loaded = snapshot_phase(run, net)
    run.digest_parts = {"state_hash": digest, "delivered": delivered,
                        "hops": hops, "join_messages": messages}
    del net
    finish(run, loaded)


# ---------------------------------------------------------------------------
# churn_intra / churn_inter.
# ---------------------------------------------------------------------------

def run_churn(run: Run, kind: str, setup_only: bool) -> None:
    with run.cal.ticking():
        from repro.workload.driver import WorkloadDriver
        from repro.workload.scenario import Scenario

        if kind == "inter":
            net = build_inter(run)
            spec = inputs.churn_scenario(kind, run.seed, run.scale)
        else:
            net = build_intra(run, cache_entries=256)
            spec = inputs.churn_scenario(
                kind, run.seed, run.scale,
                victims=inputs.connected_victims(
                    net.topology.routers, list(net.topology.links()),
                    run.seed))
        driver = WorkloadDriver(Scenario.from_dict(spec), network=net)
    run.setup_done()
    if setup_only:
        return
    cal = run.cal
    clock, pace = cal.clock, cal.pace

    def join_one():
        receipt = net.join_host(net.next_planned_host())
        driver.note_join(receipt.host_name)
        return receipt

    warm_messages, _ = join_phase(run, join_one, net.flush_indexes,
                                  inputs.windowed(run.size("warmup"),
                                                  run.scale))
    check_ring(run, net, "after the join phase")

    # One stamp per event, taken by the loop's public observer hook (which
    # also paces the reference ticks); a traced run puts a span around the
    # callback about to run as well.
    stamps: List[float] = []
    if run.tracer is None:
        def on_event(event) -> None:
            stamps.append(clock())
            pace()
    else:
        wrap = run.tracer.wrap

        def on_event(event) -> None:
            stamps.append(clock())
            pace()
            event.callback = wrap(DRIVER_EVENT, event.callback)
    driver.loop.on_event = on_event
    # The warm-up joins above already ran under the tracer; the workload.*
    # layer metrics cover the scenario alone.
    before = scenario_busy(run.tracer)
    gc.collect()
    cal.tick()
    started = clock()
    result = driver.run()
    ended = clock()
    cal.tick()
    stamps.append(ended)

    totals, summary = result.totals, result.summary
    events = totals["events_run"]
    run.rate("traffic_per_s", events, started, ended)
    run.percentiles("traffic_ms", stamps[:-1],
                    [b - a for a, b in zip(stamps, stamps[1:])],
                    ("p50", "p95"))
    lost = totals["packets_sent"] - totals["packets_delivered"]
    run.attempted += (totals["joins"] + totals["failed_joins"]
                      + totals["departures"] + totals["packets_sent"])
    run.failed += totals["failed_joins"] + lost
    run.check("delivery >= {}".format(MIN_DELIVERY),
              (summary["delivery_rate"] or 0.0) >= MIN_DELIVERY,
              str(summary["delivery_rate"]))
    run.check("no probe violations", not result.violations)
    check_ring(run, net, "after the scenario")
    wall = ended - started
    run.layers.update({
        "workload.wall_s": wall,
        "workload.events": events,
        "workload.delivery_rate": summary["delivery_rate"] or 0.0,
    })
    if run.tracer is not None:
        net_busy, engine_self = (
            after - start for after, start
            in zip(scenario_busy(run.tracer), before))
        run.layers["workload.net_busy_s"] = net_busy
        run.layers["workload.driver_self_s"] = wall - net_busy - engine_self

    digest, loaded = snapshot_phase(run, net)
    run.digest_parts = {"state_hash": digest,
                        "warmup_join_messages": warm_messages,
                        "view": result.deterministic_view()}
    del net, driver
    finish(run, loaded)


def scenario_busy(tracer: Optional[Tracer]) -> Tuple[float, float]:
    """Seconds so far inside the network's public methods and inside the
    event loop's own code."""
    if tracer is None:
        return 0.0, 0.0
    return tracer.net_busy(), tracer.self_time("sim.engine.step")


# ---------------------------------------------------------------------------
# serve_session.
# ---------------------------------------------------------------------------

class ServeClient:
    """One closed-loop client on one loopback TCP connection."""

    def __init__(self, port: int, tracer: Optional[Tracer]):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        if tracer is not None:
            self.write = tracer.wrap("serve.client.write", self.write)
            self.wait = tracer.wrap("serve.client.wait", self.wait)
            self.decode = tracer.wrap("serve.client.decode", self.decode)
            self.call = tracer.wrap("serve.request", self.call)

    def write(self, request: Dict) -> None:
        self.sock.sendall((json.dumps(request) + "\n").encode("utf-8"))

    def wait(self) -> bytes:
        line = self.reader.readline()
        if not line:
            raise RuntimeError("the server closed the connection")
        return line

    def decode(self, line: bytes) -> Dict:
        return json.loads(line)

    def call(self, request: Dict) -> Dict:
        """Send one request and wait for its reply."""
        self.write(request)
        return self.decode(self.wait())

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def start_server(run: Run, source: List[str], metric: str,
                 dump: Optional[str] = None):
    """Start ``repro serve`` on the network ``source`` names (the options
    that build one, or ``--snapshot PATH``); returns (process, port) once
    it listens, with spawn → "listening" recorded as ``metric``.  With
    ``dump`` (a traced run) it is started through ``bench/serve_traced.py``,
    which installs the boundary wrappers there.

    Server and client share one core: the loop is closed, so the two never
    run at the same time, and the client's reference ticks then measure
    the core the server's work runs on.  During the tape the client ticks
    while the server waits for the next request; while the server starts
    and inside a closing op it stops the server for the length of each tick
    (``Calibrator.ticking``), or the tick would be timing its own contest
    with the server for the core.
    """
    launcher = ([sys.executable, "-m", "repro"] if dump is None else
                [sys.executable, os.path.join(BENCH_DIR, "serve_traced.py")])
    argv = launcher + ["serve", "--kind", "intra"] + source + [
        "--tcp", "0", "--tcp-timeout", "120"]
    env = child_env()
    if dump is not None:
        env["BENCH_TRACE_DUMP"] = dump
    core = run.available[-1]
    cal = run.cal
    cal.tick(SINGLE_CALL_TICKS)
    spawned = cal.clock()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {core}))
    with cal.ticking(proc.pid):
        line = next((line for line in proc.stderr if "listening on" in line),
                    None)
        listening = cal.clock()
    if line is not None:
        cal.tick(SINGLE_CALL_TICKS)
        run.metric(metric, cal.seconds(spawned, listening),
                   listening - spawned)
        return proc, int(line.rsplit(":", 1)[1])
    proc.wait()
    raise RuntimeError("repro serve exited with {} before listening"
                       .format(proc.returncode))


def stop_server(proc, client: Optional[ServeClient]) -> None:
    """Ask the server to shut down and wait until it has ended."""
    try:
        if client is not None:
            client.call({"op": "shutdown"})
            client.close()
        proc.communicate(timeout=60)
    except (OSError, RuntimeError, subprocess.TimeoutExpired):
        proc.kill()
        proc.communicate()


def run_serve(run: Run, setup_only: bool) -> None:
    hosts = inputs.scaled(run.size("hosts"), run.scale)
    tape = inputs.serve_tape(run.seed,
                             inputs.scaled(run.size("requests"), run.scale))
    traced = run.tracer is not None
    dump = run.scratch(".trace.json") if traced else None
    path = run.scratch(".snap")
    proc, port = start_server(
        run, ["--routers", str(inputs.N_ROUTERS), "--hosts", str(hosts),
              "--seed", str(run.net_seed())], "setup_s", dump)
    client = session = None
    try:
        try:
            client = ServeClient(port, run.tracer)
            if not setup_only:
                session = serve_session(run, client, tape, proc.pid, path)
        finally:
            stop_server(proc, client)
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        run.metric("peak_rss_mb", rss, rss)
        if traced:
            with open(dump) as fh:
                run.tracer.merge(json.load(fh), proc="server")
            os.remove(dump)
        if session is not None:
            digest = session[2]["state_hash"]["state_hash"]
            if traced:
                serve_layers(run, *session,
                             loaded=loaded_by_client(run, path, digest))
            else:
                warm_restarts(run, path, digest)
    finally:
        if os.path.exists(path):
            os.remove(path)


def warm_restarts(run: Run, path: str, digest: str) -> None:
    """``snapshot_load_s`` of this workload — what a user does with a file
    the server saved: start a server on it (spawn → "listening"), ``LOADS``
    times over.  The last one is asked for its state hash, the round-trip
    check."""
    remaining = [LOADS]

    def restart() -> None:
        proc, port = start_server(run, ["--snapshot", path],
                                  "snapshot_load_s")
        client = None
        try:
            client = ServeClient(port, None)
            remaining[0] -= 1
            if not remaining[0]:
                reply = client.call({"op": "state_hash"})
                run.check("loaded snapshot hashes as saved",
                          reply.get("state_hash") == digest)
        finally:
            stop_server(proc, client)

    run.repeated("snapshot_load_s", LOADS, restart)


def loaded_by_client(run: Run, path: str, digest: str):
    """A traced run loads the server's file itself, for the span around the
    load and for the layer probes, which need a network in this process."""
    from repro import snapshot

    loaded = timed_loads(run, path)
    run.check("loaded snapshot hashes as saved",
              snapshot.state_hash(loaded) == digest)
    return loaded


#: The ops that close a serve session, with the end-to-end metric each one
#: is (if any).
SERVE_CLOSING = (("metrics", None), ("state_hash", "state_hash_s"),
                 ("save", "snapshot_save_s"), ("verify", None))


def serve_session(run: Run, client: ServeClient, tape, server: int,
                  path: str):
    """The tape, then the closing ops (``server`` is the server's pid, to
    be stopped during their ticks; ``save`` writes to ``path``).  Returns
    what the layer metrics need — (per-op latencies, closing-op latencies,
    closing replies) — or None if a closing op was refused."""
    cal = run.cal
    clock, pace = cal.clock, cal.pace
    by_op: Dict[str, List[float]] = {op: [] for op, _ in inputs.SERVE_MIX}
    starts: List[float] = []
    durations: List[float] = []
    refused = delivered = joined = total_hosts = 0
    call = client.call
    gc.collect()
    cal.tick()
    started = clock()
    for number, op in enumerate(tape):
        request = {"op": op, "id": number}
        if op in ("send", "join"):
            request["n"] = 1
        t0 = clock()
        reply = call(request)
        took = clock() - t0
        starts.append(t0)
        durations.append(took)
        by_op[op].append(took)
        if not reply.get("ok"):
            refused += 1
            run.check("tape reply ok", False,
                      "#{} {}: {}".format(number, op, reply.get("error")))
        elif op == "send":
            delivered += reply["delivered"]
        elif op == "join":
            joined += reply["joined"]
            total_hosts = reply["total_hosts"]
        pace()
    ended = clock()
    cal.tick()

    sends = len(by_op["send"])
    run.attempted += len(starts)
    run.failed += refused + (sends - delivered)
    run.rate("traffic_per_s", len(starts), started, ended)
    run.percentiles("traffic_ms", starts, durations, ("p50", "p95"))
    join_starts = [at for at, op in zip(starts, tape) if op == "join"]
    calibrated = sum(cal.seconds(at, at + took)
                     for at, took in zip(join_starts, by_op["join"]))
    run.metric("join_per_s", len(join_starts) / calibrated,
               len(join_starts) / sum(by_op["join"]))
    run.percentiles("join_ms", join_starts, by_op["join"], ("p95",))
    run.check("delivery >= {}".format(MIN_DELIVERY),
              delivered >= MIN_DELIVERY * sends,
              "{}/{}".format(delivered, sends))

    closing: Dict[str, float] = {}
    replies: Dict[str, Dict] = {}
    for op, metric in SERVE_CLOSING:
        request = {"op": op, "path": path} if op == "save" else {"op": op}
        replies[op], closing[op] = run.timed(
            metric, lambda: call(request), freeze=server)
        run.attempted += 1
        if not replies[op].get("ok"):
            run.failed += 1
            run.check("closing op " + op, False,
                      str(replies[op].get("error")))
            return None
    run.layers["snapshot.file_mb"] = os.path.getsize(path) / 2 ** 20
    digest = replies["state_hash"]["state_hash"]
    run.check("server verify clean", replies["verify"]["clean"],
              str(replies["verify"]["violations"]))
    run.check("save reports the state hash",
              replies["save"]["state_hash"] == digest)
    run.digest_parts = {"state_hash": digest, "delivered": delivered,
                        "joined": joined, "hosts": total_hosts}
    return by_op, closing, replies


def serve_layers(run: Run, by_op, closing, replies, loaded) -> None:
    """Client-side latency per op, the server's own handler latency from
    its ``metrics`` reply, then the shared layer metrics."""
    for op, values in by_op.items():
        run.layers["serve.op.{}.calls".format(op)] = len(values)
        run.layers["serve.op.{}.ms_p50".format(op)] = \
            quantile(values, 0.50) * 1e3
        run.layers["serve.op.{}.ms_p99".format(op)] = \
            quantile(values, 0.99) * 1e3
    for op, seconds in closing.items():
        run.layers["serve.op.{}_ms".format(op)] = seconds * 1e3
    # The snapshot layer as this workload reaches it: through two ops.
    run.layers["snapshot.state_hash.busy_s"] = closing["state_hash"]
    run.layers["snapshot.save.busy_s"] = closing["save"]
    handler = replies["metrics"].get("latency", {})
    for op in ("send", "join"):
        p50 = handler.get(op, {}).get("p50")
        run.layers["serve.handler.{}.ms_p50".format(op)] = (
            None if p50 is None else p50 * 1e3)
    run.layers["serve.transport_us_p50"] = \
        quantile(by_op["ping"], 0.50) * 1e6
    layer_metrics(run, loaded,
                  replies["metrics"].get("perf", {}).get("counters", {}))


# ---------------------------------------------------------------------------
# Child entry point.
# ---------------------------------------------------------------------------

WORKLOADS: Dict[str, Callable[[Run, bool], None]] = {
    "inter_5k": lambda run, setup_only: run_bulk(run, "inter", setup_only),
    "intra_5k": lambda run, setup_only: run_bulk(run, "intra", setup_only),
    "churn_intra": lambda run, setup_only: run_churn(run, "intra",
                                                     setup_only),
    "churn_inter": lambda run, setup_only: run_churn(run, "inter",
                                                     setup_only),
    "serve_session": run_serve,
}


def child_main(workload: str, seed: int, scale: float, traced: bool,
               spawned: float, setup_only: bool) -> Dict[str, Any]:
    """Run one workload in this (fresh) process, pinned to the last core
    it may use."""
    available = cores()
    os.sched_setaffinity(0, {available[-1]})
    tracer = None
    if traced and not setup_only:
        tracer = Tracer()
        if workload != "serve_session":
            # The serve client wraps its own calls; the boundary table is
            # installed in the server process instead.
            tracer.install()
    run = Run(workload, seed, scale, spawned, tracer, available)
    WORKLOADS[workload](run, setup_only)
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_jsonl(
            os.path.join(OUT_DIR, "trace-{}.jsonl".format(workload)),
            {"workload": workload, "seed": seed, "scale": scale})
    return run.result()
